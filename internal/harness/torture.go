// Crash-recovery torture harness.
//
// RunTorture drives the full system — concurrent update transactions
// plus a fleet reorganization — into a seeded, schedule-chosen crash,
// captures the durable image exactly as a real crash would leave it
// (including torn WAL tails), restarts through ARIES recovery and the
// reorganizer's §4.4 resume protocol, and asserts that every
// consistency invariant holds. Repeating this for a few hundred seeds
// across the crash-point taxonomy (WAL append, commit flush, each IRA
// migration step, and crash-during-recovery) is the repo's strongest
// evidence that on-line reorganization never loses or corrupts data.
//
// The committed-prefix oracle: the workload increments counter
// objects, recording each value twice — issued when the update enters
// the transaction (it MAY survive a crash) and acked when Commit
// returns nil (it MUST survive). After every recovery each counter c
// must satisfy acked(c) <= recovered(c) <= issued(c). Less than acked
// is lost durability; more than issued is phantom data. Everything
// else reachable is immutable under the workload, so its
// address-independent check.Signature must be bit-for-bit stable
// across any number of crashes, recoveries and migrations.
package harness

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/check"
	"repro/internal/db"
	"repro/internal/fault"
	"repro/internal/interleave"
	"repro/internal/lock"
	"repro/internal/oid"
	"repro/internal/query"
	"repro/internal/recovery"
	"repro/internal/reorg"
	"repro/internal/segment"
	"repro/internal/wal"
)

// tortureMu serializes torture runs: the fault registry is
// process-wide, so two concurrent runs would see each other's faults.
var tortureMu sync.Mutex

// TortureConfig parameterizes one torture run. The zero value of any
// field picks a sensible default (see defaults()).
type TortureConfig struct {
	// Seed determines everything: fixture shape, workload choices,
	// and the crash schedule. Same config + same seed = same run.
	Seed int64
	// Point is the fault point to crash at ("wal/crash", "db/commit",
	// "reorg/parents-locked", ...). Empty means db/commit.
	Point string
	// Mode is the per-partition reorganization algorithm.
	Mode reorg.Mode
	// MaxHit bounds the randomized hit index the crash is armed at;
	// the actual index is 1+rng.Intn(MaxHit). Size it to the point's
	// firing frequency (per-object points support larger values than
	// once-per-partition points).
	MaxHit int

	Partitions          int
	ObjectsPerPartition int
	Counters            int
	// MPL is the number of concurrent counter-updating workers.
	MPL       int
	Workers   int // scheduler pool size
	BatchSize int

	// CrashRounds is how many crash/recover/resume cycles to attempt.
	// A round whose crash never fires completes the fleet and ends
	// the run early (that is a pass, not a failure).
	CrashRounds int
	// CrashDuringRecovery additionally interrupts the first restart
	// of every round after one of its passes, then reruns it — the
	// log is never appended to during recovery, so a rerun from the
	// same image must succeed and produce the same database.
	CrashDuringRecovery bool
	// Chaos arms background noise on top of the crash schedule:
	// spurious lock timeouts (p=0.02) and latch delays (p=0.01).
	Chaos bool
	// QueryScan adds an analytic query worker to every round: full
	// reference-path traversals of the tree fixture through the
	// internal/query operators while the partitions underneath migrate,
	// crash, and resume. Every traversal that commits must return
	// exactly the fixture's payload multiset — no dangling refs, no
	// duplicates (two-lock rounds excepted: a committed in-flight pair
	// is legitimately alive at two addresses, §4.2), and no missed
	// committed objects. Failed attempts (crashes, injected faults,
	// exhausted restart budgets) end silently: liveness is the fleet's
	// problem, the worker only polices committed results.
	QueryScan bool

	// FileWAL runs the WAL on a real file device under Dir, so
	// crashes exercise torn-tail scanning and fsync ordering. Dir is
	// required when FileWAL is set.
	FileWAL bool
	Dir     string

	// LogicalOIDs runs the database behind the logical→physical
	// indirection table (db.Config.LogicalOIDs): migrations swing map
	// entries instead of rewriting parents, and every crash must
	// recover the map exactly alongside the store.
	LogicalOIDs bool
	// StoreMove replaces the round's compaction fleet with cross-store
	// partition moves (reorg.MigrateStore): each remaining partition's
	// bodies are evacuated into a fresh store partition — alternating
	// backing in disk-backed runs — and the emptied sources dropped,
	// under the same crash schedule and resume protocol. Requires
	// LogicalOIDs.
	StoreMove bool

	// DiskBacked puts the object store on segment files under Dir with
	// a deliberately tiny buffer pool and small pages, so evictions
	// (and their WAL-ahead flushes) run constantly and crashes land on
	// segment writes, fsyncs, and mid-eviction windows. The segment
	// directory is shared across lives: recovery must overlay whatever
	// the pool flushed before the crash — torn pages included — onto
	// the checkpoint snapshot. Dir is required when DiskBacked is set.
	DiskBacked bool

	// Hardware runs every life's database under the hardware preset
	// (ApplyHardware): group commit and deadlock detection on queueing.
	Hardware bool

	// RoundTimeout bounds one crash round end to end; exceeding it
	// means a wedge and fails the run.
	RoundTimeout time.Duration
}

func (c *TortureConfig) defaults() {
	if c.Point == "" {
		c.Point = fault.DBCommit
	}
	if c.MaxHit <= 0 {
		c.MaxHit = 16
	}
	if c.Partitions <= 0 {
		c.Partitions = 4
	}
	if c.ObjectsPerPartition <= 0 {
		c.ObjectsPerPartition = 24
	}
	if c.Counters <= 0 {
		c.Counters = 6
	}
	if c.MPL <= 0 {
		c.MPL = 3
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 4
	}
	if c.CrashRounds <= 0 {
		c.CrashRounds = 3
	}
	if c.RoundTimeout <= 0 {
		c.RoundTimeout = 30 * time.Second
	}
}

// RoundReport describes one crash round.
type RoundReport struct {
	Round   int
	Crashed bool
	// ArmedHit is the 1-based hit index the crash was armed at.
	ArmedHit int
	// DroppedBytes is the torn-tail length discarded by the durable
	// log scan (file-backed runs only).
	DroppedBytes int
	// RecoveryInterrupted notes a crash-during-recovery sub-round.
	RecoveryInterrupted bool
	// Resumed and Fresh count how the next life's partitions restart.
	Resumed int
	Fresh   int
	// QueryCommits counts the round's committed analytic traversals
	// (QueryScan runs only).
	QueryCommits int
}

// TortureResult summarizes a passed run.
type TortureResult struct {
	Seed    int64
	Point   string
	Mode    reorg.Mode
	Rounds  []RoundReport
	Lives   int // number of database incarnations (1 + recoveries)
	Objects int // final object count
}

// tortureWorld is the mutable state of one run across lives.
type tortureWorld struct {
	cfg   TortureConfig
	d     *db.Database
	rng   *rand.Rand
	life  int
	stats struct{ resumed, fresh int }

	treeRoots []oid.OID
	ctrRoot   oid.OID
	allRoots  []oid.OID
	treeSig   map[string][]string
	// treePayloads is the payload multiset reachable from treeRoots —
	// the ground truth every committed QueryScan traversal must return.
	treePayloads map[string]int
	expectObj    int

	oracle *ctrOracle

	remaining []oid.PartitionID
	resume    map[oid.PartitionID]*reorg.State
	records   []*wal.Record

	// Store-move bookkeeping: fresh target partitions are allocated from
	// a counter so no two moves (across rounds and lives) ever collide,
	// and the backing alternates per move in disk-backed runs.
	nextTarget oid.PartitionID
	moveCount  int
}

func (w *tortureWorld) fail(round int, format string, args ...any) error {
	msg := fmt.Sprintf(format, args...)
	return fmt.Errorf("torture: seed=%d point=%s mode=%s round=%d: %s (replay: RunTorture with this seed and point)",
		w.cfg.Seed, w.cfg.Point, w.cfg.Mode, round, msg)
}

func (w *tortureWorld) dbConfig() db.Config {
	cfg := db.DefaultConfig()
	cfg.FlushLatency = 0
	cfg.LockTimeout = 150 * time.Millisecond
	if w.cfg.FileWAL {
		cfg.LogDir = filepath.Join(w.cfg.Dir, fmt.Sprintf("life-%d", w.life))
		cfg.LogSegmentBytes = 4096 // small segments: crashes land near rotation too
	}
	cfg.LogicalOIDs = w.cfg.LogicalOIDs
	if w.cfg.Hardware {
		ApplyHardware(nil, &cfg)
	}
	if w.cfg.DiskBacked {
		cfg.DiskBacked = true
		cfg.DataDir = filepath.Join(w.cfg.Dir, "segments")
		// Small pages spread the fixture over many pages and a 4-frame
		// pool keeps the CLOCK hand moving, so the workload faults and
		// flushes continuously rather than settling into residency.
		cfg.PageSize = 1024
		cfg.PoolFrames = 4
	}
	return cfg
}

func (w *tortureWorld) ckptPath() string {
	return filepath.Join(w.cfg.Dir, fmt.Sprintf("ckpt-life-%d", w.life))
}

// ctrOracle tracks the committed prefix of every counter.
type ctrOracle struct {
	mu     sync.Mutex
	issued []int
	acked  []int
}

func newCtrOracle(n int) *ctrOracle {
	return &ctrOracle{issued: make([]int, n), acked: make([]int, n)}
}

func (o *ctrOracle) issue(i, v int) {
	o.mu.Lock()
	if v > o.issued[i] {
		o.issued[i] = v
	}
	o.mu.Unlock()
}

func (o *ctrOracle) ack(i, v int) {
	o.mu.Lock()
	if v > o.acked[i] {
		o.acked[i] = v
	}
	o.mu.Unlock()
}

// checkAndReset asserts acked <= recovered <= issued for every
// counter, then anchors both bounds at the recovered value: the
// recovered database is the new ground truth.
func (o *ctrOracle) checkAndReset(recovered []int) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	for i, v := range recovered {
		if v < o.acked[i] {
			return fmt.Errorf("counter %d lost durability: recovered %d < acked %d (issued %d)",
				i, v, o.acked[i], o.issued[i])
		}
		if v > o.issued[i] {
			return fmt.Errorf("counter %d holds phantom value: recovered %d > issued %d (acked %d)",
				i, v, o.issued[i], o.acked[i])
		}
		o.acked[i] = v
		o.issued[i] = v
	}
	return nil
}

func ctrPayload(i, v int) []byte { return []byte(fmt.Sprintf("ctr-%d=%d", i, v)) }

func parseCtr(payload []byte) (i, v int, err error) {
	name, val, ok := strings.Cut(string(payload), "=")
	if !ok || !strings.HasPrefix(name, "ctr-") {
		return 0, 0, fmt.Errorf("not a counter payload: %q", payload)
	}
	if i, err = strconv.Atoi(strings.TrimPrefix(name, "ctr-")); err != nil {
		return 0, 0, err
	}
	if v, err = strconv.Atoi(val); err != nil {
		return 0, 0, err
	}
	return i, v, nil
}

// build creates the fixture: per data partition a binary tree of
// uniquely-payloaded objects rooted from partition 0, a few
// cross-partition glue edges, and the counter objects spread over the
// data partitions, all reachable from a partition-0 counter root.
func (w *tortureWorld) build() error {
	cfg := w.cfg
	w.d = db.Open(w.dbConfig())
	for p := 0; p <= cfg.Partitions; p++ {
		if err := w.d.CreatePartition(oid.PartitionID(p)); err != nil {
			return err
		}
	}
	tx, err := w.d.Begin()
	if err != nil {
		return err
	}
	nodes := make([][]oid.OID, cfg.Partitions+1)
	for p := 1; p <= cfg.Partitions; p++ {
		part := oid.PartitionID(p)
		nodes[p] = make([]oid.OID, cfg.ObjectsPerPartition)
		for i := cfg.ObjectsPerPartition - 1; i >= 0; i-- {
			var refs []oid.OID
			if c := 2*i + 1; c < cfg.ObjectsPerPartition {
				refs = append(refs, nodes[p][c])
			}
			if c := 2*i + 2; c < cfg.ObjectsPerPartition {
				refs = append(refs, nodes[p][c])
			}
			o, err := tx.Create(part, []byte(fmt.Sprintf("p%d-n%d", p, i)), refs)
			if err != nil {
				return err
			}
			nodes[p][i] = o
		}
		root, err := tx.Create(0, []byte(fmt.Sprintf("root-p%d", p)), []oid.OID{nodes[p][0]})
		if err != nil {
			return err
		}
		w.treeRoots = append(w.treeRoots, root)
	}
	// Glue edges: leaves of p referencing nodes of the next partition,
	// so migrations must repoint cross-partition parents via the ERT.
	for p := 1; p <= cfg.Partitions; p++ {
		q := p%cfg.Partitions + 1
		for g := 0; g < 3; g++ {
			from := nodes[p][w.rng.Intn(cfg.ObjectsPerPartition)]
			to := nodes[q][w.rng.Intn(cfg.ObjectsPerPartition)]
			if err := tx.InsertRef(from, to); err != nil {
				return err
			}
		}
	}
	var ctrs []oid.OID
	for i := 0; i < cfg.Counters; i++ {
		part := oid.PartitionID(1 + i%cfg.Partitions)
		o, err := tx.Create(part, ctrPayload(i, 0), nil)
		if err != nil {
			return err
		}
		ctrs = append(ctrs, o)
	}
	if w.ctrRoot, err = tx.Create(0, []byte("ctr-root"), ctrs); err != nil {
		return err
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	w.allRoots = append(append([]oid.OID(nil), w.treeRoots...), w.ctrRoot)
	w.expectObj = cfg.Partitions*cfg.ObjectsPerPartition + cfg.Partitions + cfg.Counters + 1
	w.treePayloads = make(map[string]int)
	for p := 1; p <= cfg.Partitions; p++ {
		w.treePayloads[fmt.Sprintf("root-p%d", p)]++
		for i := 0; i < cfg.ObjectsPerPartition; i++ {
			w.treePayloads[fmt.Sprintf("p%d-n%d", p, i)]++
		}
	}
	if w.treeSig, err = check.Signature(w.d, w.treeRoots); err != nil {
		return err
	}
	for p := 1; p <= cfg.Partitions; p++ {
		w.remaining = append(w.remaining, oid.PartitionID(p))
	}
	w.nextTarget = oid.PartitionID(cfg.Partitions + 100)
	return nil
}

// storeMoveFleet is the round driver for StoreMove runs: one
// cross-store move per remaining partition, sequentially — the moves
// share the map and the WAL, so the concurrency under test is against
// the workload, not between moves. Partitions with a checkpointed move
// resume it; the rest start a fresh move to a fresh target. Returns
// per-partition failures and last checkpointed states, mirroring the
// scheduler's contract, plus the joined failure for round bookkeeping.
func (w *tortureWorld) storeMoveFleet(crashC <-chan struct{}) (map[oid.PartitionID]error, map[oid.PartitionID]*reorg.State, error) {
	failures := make(map[oid.PartitionID]error)
	states := make(map[oid.PartitionID]*reorg.State)
	stopped := func() error {
		select {
		case <-crashC:
			return reorg.ErrStopped
		default:
			return nil
		}
	}
	var errs []error
	for _, p := range w.remaining {
		if stopped() != nil {
			failures[p] = reorg.ErrStopped
			if st := w.resume[p]; st != nil {
				states[p] = st
			}
			continue
		}
		part := p
		opts := reorg.Options{
			Mode:            w.cfg.Mode,
			BatchSize:       w.cfg.BatchSize,
			MaxRetries:      50,
			WaitTimeout:     500 * time.Millisecond,
			CheckpointEvery: 1,
			OnCheckpoint:    func(s *reorg.State) { states[part] = s },
			Stopped:         stopped,
			Gate:            stopped,
		}
		var err error
		if st := w.resume[p]; st != nil && st.StoreMove != nil {
			states[p] = st
			_, err = reorg.ResumeMigrateStore(w.d, st, w.records, opts)
		} else {
			w.moveCount++
			toDisk := w.cfg.DiskBacked && w.moveCount%2 == 1
			target := w.nextTarget
			w.nextTarget++
			_, err = reorg.MigrateStore(w.d, p, target, toDisk, opts)
		}
		if err != nil {
			failures[p] = err
			errs = append(errs, fmt.Errorf("partition %d: %w", p, err))
			continue
		}
		delete(states, p)
	}
	return failures, states, errors.Join(errs...)
}

// readCounters walks the counter root fuzzily (the database must be
// quiesced) and returns each counter's current value.
func (w *tortureWorld) readCounters() ([]int, error) {
	root, err := w.d.FuzzyRead(w.ctrRoot)
	if err != nil {
		return nil, fmt.Errorf("read ctr-root: %w", err)
	}
	vals := make([]int, w.cfg.Counters)
	found := make([]bool, w.cfg.Counters)
	for _, c := range root.Refs {
		obj, err := w.d.FuzzyRead(c)
		if err != nil {
			return nil, fmt.Errorf("read counter %s: %w", c, err)
		}
		i, v, err := parseCtr(obj.Payload)
		if err != nil {
			return nil, err
		}
		if i < 0 || i >= len(vals) || found[i] {
			return nil, fmt.Errorf("counter set corrupt: unexpected or duplicate counter %d", i)
		}
		vals[i], found[i] = v, true
	}
	for i, ok := range found {
		if !ok {
			return nil, fmt.Errorf("counter %d vanished from ctr-root", i)
		}
	}
	return vals, nil
}

// counterWorker is one MPL thread: pick a counter through the root
// (its OID changes as it migrates), increment it under proper 2PL,
// and record issued/acked values for the oracle. Errors — injected
// timeouts, device failure, the crash itself — just end the attempt;
// the transaction aborts and the loop retries until stopped.
func (w *tortureWorld) counterWorker(seed int64, stop <-chan struct{}) {
	rng := rand.New(rand.NewSource(seed))
	for {
		select {
		case <-stop:
			return
		default:
		}
		w.counterTxn(rng)
		// Throttle: keeps file-backed runs from drowning in fsyncs.
		time.Sleep(200 * time.Microsecond)
	}
}

func (w *tortureWorld) counterTxn(rng *rand.Rand) {
	tx, err := w.d.Begin()
	if err != nil {
		return
	}
	defer tx.Abort()
	refs, err := tx.ReadRefs(w.ctrRoot) // takes a Shared lock on the root
	if err != nil || len(refs) == 0 {
		return
	}
	o := refs[rng.Intn(len(refs))]
	if err := tx.Lock(o, lock.Exclusive); err != nil {
		return
	}
	obj, err := tx.Read(o)
	if err != nil {
		return
	}
	i, v, err := parseCtr(obj.Payload)
	if err != nil {
		return
	}
	next := v + 1
	// Issued strictly before the update can reach the log: if the
	// crash lands anywhere past this line the value may survive.
	w.oracle.issue(i, next)
	if err := tx.UpdatePayload(o, ctrPayload(i, next)); err != nil {
		return
	}
	if tx.Commit() == nil {
		w.oracle.ack(i, next)
	}
}

// queryCell collects one round's query-worker observations.
type queryCell struct {
	mu        sync.Mutex
	committed int
	viol      error
}

func (c *queryCell) commit() {
	c.mu.Lock()
	c.committed++
	c.mu.Unlock()
}

func (c *queryCell) fail(err error) {
	c.mu.Lock()
	if c.viol == nil {
		c.viol = err
	}
	c.mu.Unlock()
}

func (c *queryCell) result() (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.committed, c.viol
}

// errRoundStopped ends a query traversal whose round has stopped.
var errRoundStopped = errors.New("torture: round stopped")

// queryWorker runs full tree traversals through the query operators
// while the round's fleet migrates the partitions underneath. Errors
// end the attempt (the crash kills every transaction eventually);
// committed traversals are held to the fixture's payload multiset.
// The worker is bounded — a few committed traversals (or attempts, if
// the round is too contended to commit) cover the racing window, and
// an unbounded worker would stretch every round: each traversal
// S-locks the whole tree, so the fleet spends its wait budget against
// it and a ~0.1s round becomes seconds, multiplied across the sweep.
func (w *tortureWorld) queryWorker(cell *queryCell, stop <-chan struct{}) {
	allowDup := w.cfg.Mode == reorg.ModeIRATwoLock
	commits := 0
	for attempts := 0; commits < 3 && attempts < 6; attempts++ {
		select {
		case <-stop:
			return
		default:
		}
		// Each attempt first checks stop, so once the round ends Run
		// returns after the attempt in flight instead of retrying on.
		res, err := query.Run(w.d, query.Options{MaxRestarts: 8, Backoff: time.Millisecond},
			func(e *query.Exec) (query.Operator, error) {
				select {
				case <-stop:
					return nil, errRoundStopped
				default:
				}
				return query.NewFollowRefs(w.treeRoots, -1), nil
			})
		if err != nil {
			time.Sleep(500 * time.Microsecond)
			continue
		}
		if err := w.checkQueryRows(res.Rows, allowDup); err != nil {
			cell.fail(err)
			return
		}
		commits++
		cell.commit()
		time.Sleep(time.Millisecond)
	}
}

// checkQueryRows asserts a committed traversal returned exactly the
// tree payload multiset. allowDup admits one extra copy per payload:
// the two-lock algorithm commits intermediate states in which a
// migrating object is legitimately alive at both addresses, and a
// traversal can reach both through differently-repointed parents.
func (w *tortureWorld) checkQueryRows(rows []query.Row, allowDup bool) error {
	got := query.Multiset(query.Payloads(rows))
	for payload, n := range got {
		want, ok := w.treePayloads[payload]
		if !ok {
			return fmt.Errorf("traversal returned phantom payload %q", payload)
		}
		max := want
		if allowDup {
			max = want + 1
		}
		if n > max {
			return fmt.Errorf("traversal returned payload %q %d times (want %d, dup allowance %v)",
				payload, n, want, allowDup)
		}
	}
	for payload, want := range w.treePayloads {
		if got[payload] < want {
			return fmt.Errorf("traversal missed committed payload %q (%d of %d)",
				payload, got[payload], want)
		}
	}
	return nil
}

// verify asserts every invariant on a quiesced database: zero
// consistency violations, full reachability, exact object count,
// stable tree signature, and the counter oracle.
//
// inflight excuses the one transient two-lock resume allows (§4.2): a
// crash mid-migration leaves the object alive at both addresses, so
// until the resumed reorganizer collapses the pair, exactly those OIDs
// may be unreachable (the copy, or the superseded original) and the
// object count may exceed the baseline by one per in-flight pair. The
// final verify passes no in-flight set and is fully strict.
func (w *tortureWorld) verify(round int, stage string, inflight map[oid.OID]bool, pairs int) error {
	rep, err := check.Verify(w.d, w.allRoots)
	if err != nil {
		return w.fail(round, "%s: verify: %v", stage, err)
	}
	if err := rep.Err(); err != nil {
		return w.fail(round, "%s: consistency violations: %v", stage, err)
	}
	for _, o := range rep.Unreachable {
		if !inflight[o] {
			return w.fail(round, "%s: object %s unreachable (%d total)", stage, o, len(rep.Unreachable))
		}
	}
	if rep.Objects < w.expectObj || rep.Objects > w.expectObj+pairs {
		return w.fail(round, "%s: object count %d, want %d (plus at most %d in-flight copies)",
			stage, rep.Objects, w.expectObj, pairs)
	}
	sig, err := check.Signature(w.d, w.treeRoots)
	if err != nil {
		// A half-repointed in-flight object is reachable at both
		// addresses under one payload; the signature cannot be formed
		// until the resumed migration collapses the pair.
		if pairs == 0 || !strings.Contains(err.Error(), "duplicate payload") {
			return w.fail(round, "%s: signature: %v", stage, err)
		}
		sig = nil
	}
	if sig != nil && !sigEqual(sig, w.treeSig) {
		return w.fail(round, "%s: tree signature drifted across crash/recovery", stage)
	}
	vals, err := w.readCounters()
	if err != nil {
		return w.fail(round, "%s: %v", stage, err)
	}
	if err := w.oracle.checkAndReset(vals); err != nil {
		return w.fail(round, "%s: %v", stage, err)
	}
	return nil
}

func sigEqual(a, b map[string][]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, av := range a {
		bv, ok := b[k]
		if !ok || len(av) != len(bv) {
			return false
		}
		for i := range av {
			if av[i] != bv[i] {
				return false
			}
		}
	}
	return true
}

// captureImage assembles the durable crash image: for file-backed
// runs, the checkpoint file plus a scan of the segment files
// (tolerating a torn tail); for memory runs, recovery.CaptureImage's
// flushed-prefix cut.
func (w *tortureWorld) captureImage(ckpt *db.Checkpoint, rep *RoundReport) (*recovery.Image, error) {
	if !w.cfg.FileWAL {
		return recovery.CaptureImage(w.d, ckpt), nil
	}
	loaded, err := recovery.LoadCheckpoint(w.ckptPath())
	if err != nil {
		return nil, fmt.Errorf("load checkpoint: %w", err)
	}
	dev, err := wal.NewFileDevice(filepath.Join(w.cfg.Dir, fmt.Sprintf("life-%d", w.life)), 0)
	if err != nil {
		return nil, err
	}
	defer dev.Close()
	scan, err := dev.ScanAll()
	if err != nil {
		return nil, fmt.Errorf("durable log scan: %w", err)
	}
	rep.DroppedBytes = scan.DroppedBytes
	return &recovery.Image{Ckpt: loaded, Records: scan.Records}, nil
}

// recoverWorld restarts from the image into a fresh life, optionally
// crashing the first recovery attempt and rerunning it.
func (w *tortureWorld) recoverWorld(img *recovery.Image, round int, rep *RoundReport) error {
	w.life++
	cfg := w.dbConfig()
	if w.cfg.CrashDuringRecovery {
		points := []string{fault.RecoveryAnalysis, fault.RecoveryRedo, fault.RecoveryUndo}
		pt := points[w.rng.Intn(len(points))]
		reg := fault.NewRegistry(w.cfg.Seed*1000 + int64(round) + 500)
		reg.Arm(fault.Trigger{Point: pt, Kind: fault.KindError, Hit: 1})
		restore := fault.Install(reg)
		d, err := recovery.Recover(img, cfg)
		restore()
		if err == nil {
			d.Close()
			return w.fail(round, "recovery armed at %s succeeded instead of failing", pt)
		}
		if !errors.Is(err, fault.ErrInjected) {
			return w.fail(round, "interrupted recovery failed organically: %v", err)
		}
		rep.RecoveryInterrupted = true
	}
	d, err := recovery.Recover(img, cfg)
	if err != nil {
		return w.fail(round, "recovery: %v", err)
	}
	w.d = d
	return nil
}

// round runs one crash round. It returns done=true when the fleet
// finished every remaining partition without the crash firing.
func (w *tortureWorld) round(round int) (rep RoundReport, done bool, err error) {
	cfg := w.cfg
	rep.Round = round

	// Durable base for this life: checkpoint before any fault is
	// armed. Recovery replays this round's records on top of it.
	ckpt, err := w.d.Checkpoint()
	if err != nil {
		return rep, false, w.fail(round, "checkpoint: %v", err)
	}
	if cfg.FileWAL {
		if err := recovery.SaveCheckpoint(w.ckptPath(), ckpt); err != nil {
			return rep, false, w.fail(round, "save checkpoint: %v", err)
		}
	}

	reg := fault.NewRegistry(cfg.Seed*1000 + int64(round))
	rep.ArmedHit = 1 + w.rng.Intn(cfg.MaxHit)
	reg.Arm(fault.Trigger{Point: cfg.Point, Kind: fault.KindCrash, Hit: rep.ArmedHit})
	if cfg.Chaos {
		reg.Arm(fault.Trigger{Point: fault.LockAcquire, Kind: fault.KindError, Prob: 0.02})
		reg.Arm(fault.Trigger{Point: fault.LatchAcquire, Kind: fault.KindDelay, Prob: 0.01, Delay: 200 * time.Microsecond})
	}
	// The crash instant freezes the durable horizon: nothing started
	// after it may commit. For wal/ points the injection site latches
	// the device itself (it holds the device mutex); elsewhere we
	// freeze it here so the file cannot advance past the crash.
	d := w.d
	reg.OnCrash(func() {
		d.Log().Fail(fmt.Errorf("torture: simulated crash at %s", cfg.Point))
		if dev := d.LogDevice(); dev != nil && !strings.HasPrefix(cfg.Point, "wal/") {
			dev.Freeze()
		}
		// Freeze the segment directory too: a dead process writes no
		// more pages, so flush-behind must not advance the durable
		// store image past the crash instant. (At a segment/ point the
		// injection site itself tears the in-flight write first.)
		if seg := d.Store().Segments(); seg != nil {
			seg.Freeze()
		}
	})
	restore := fault.Install(reg)
	defer restore()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < cfg.MPL; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w.counterWorker(cfg.Seed*100+int64(round*cfg.MPL+i), stop)
		}(i)
	}
	var qcell *queryCell
	if cfg.QueryScan {
		qcell = &queryCell{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.queryWorker(qcell, stop)
		}()
	}

	var s *reorg.Scheduler
	var mvFailures map[oid.PartitionID]error
	var mvStates map[oid.PartitionID]*reorg.State
	fleetDone := make(chan error, 1)
	if cfg.StoreMove {
		go func() {
			var ferr error
			mvFailures, mvStates, ferr = w.storeMoveFleet(reg.CrashC())
			fleetDone <- ferr
		}()
	} else {
		var serr error
		s, serr = reorg.NewScheduler(w.d, w.remaining, reorg.FleetOptions{
			Workers: cfg.Workers,
			Reorg: reorg.Options{
				Mode:            cfg.Mode,
				BatchSize:       cfg.BatchSize,
				MaxRetries:      50,
				WaitTimeout:     500 * time.Millisecond,
				CheckpointEvery: 1,
			},
			ResumeStates: w.resume,
			Records:      w.records,
		})
		if serr != nil {
			close(stop)
			wg.Wait()
			return rep, false, w.fail(round, "scheduler: %v", serr)
		}
		go func() { fleetDone <- s.Run() }()
	}

	timeout := time.NewTimer(cfg.RoundTimeout)
	defer timeout.Stop()
	var fleetErr error
	select {
	case fleetErr = <-fleetDone:
		// The crash and the fleet's unwinding can be ready together, and
		// select picks among ready cases at random — re-check so a fired
		// crash is never misread as a spontaneous fleet failure.
		select {
		case <-reg.CrashC():
			rep.Crashed = true
		default:
		}
	case <-reg.CrashC():
		rep.Crashed = true
		// The process is "dead": the log is frozen, so the fleet and
		// workload can only fail their way out. Let them unwind.
		if s != nil {
			s.Stop()
		}
		select {
		case fleetErr = <-fleetDone:
		case <-timeout.C:
			return rep, false, w.fail(round, "fleet wedged after crash at hit %d", rep.ArmedHit)
		}
	case <-timeout.C:
		return rep, false, w.fail(round, "fleet wedged (crash armed at hit %d never fired, fleet never finished)", rep.ArmedHit)
	}
	close(stop)
	wg.Wait()
	// A counter worker's last commit can reach the armed hit after the
	// fleet finished and the first CrashC check passed — the WAL device
	// and segment directory are then frozen, and treating the round as
	// clean would hand that dead store to the verifier. Re-check now
	// that every firing source has stopped.
	select {
	case <-reg.CrashC():
		rep.Crashed = true
	default:
	}
	restore()

	if qcell != nil {
		commits, viol := qcell.result()
		rep.QueryCommits = commits
		if viol != nil {
			return rep, false, w.fail(round, "query worker: %v", viol)
		}
	}

	failures := mvFailures
	states := mvStates
	if s != nil {
		failures = s.Failures()
		states = s.States()
	}

	if !rep.Crashed {
		// The armed hit was never reached. The fleet either finished
		// everything or lost partitions to chaos noise; either way the
		// database is alive — no recovery, just bookkeeping.
		if fleetErr != nil {
			for p, ferr := range failures {
				// ErrTxnWaitTimeout joins the tolerated set when analytic
				// traversals run: the §4.5 pre-start wait can expire against
				// a query that S-locks the whole tree, and the partition
				// simply retries next round.
				if !errors.Is(ferr, lock.ErrTimeout) && !errors.Is(ferr, reorg.ErrQuiesced) &&
					!(cfg.QueryScan && errors.Is(ferr, db.ErrTxnWaitTimeout)) {
					return rep, false, w.fail(round, "partition %d failed without a crash: %v", p, ferr)
				}
			}
		}
		w.nextRemaining(failures, states, w.d.Log().Records(1))
		return rep, len(w.remaining) == 0, nil
	}

	// Crashed: every recorded failure must be a typed, expected error —
	// the crash itself, device failure, a frozen segment store, fleet
	// quiesce, or a lock/txn wait that died with the world. Panics or
	// mystery errors fail the run.
	for p, ferr := range failures {
		switch {
		case errors.Is(ferr, reorg.ErrCrash),
			errors.Is(ferr, wal.ErrDeviceFailed),
			errors.Is(ferr, segment.ErrFrozen),
			errors.Is(ferr, reorg.ErrQuiesced),
			errors.Is(ferr, reorg.ErrStopped),
			errors.Is(ferr, lock.ErrTimeout),
			errors.Is(ferr, db.ErrTxnWaitTimeout),
			errors.Is(ferr, fault.ErrInjected):
		default:
			return rep, false, w.fail(round, "partition %d died with unexpected error: %v", p, ferr)
		}
	}

	img, err := w.captureImage(ckpt, &rep)
	if err != nil {
		return rep, false, w.fail(round, "%v", err)
	}
	w.d.Close()
	if err := w.recoverWorld(img, round, &rep); err != nil {
		return rep, false, err
	}
	// Partitions that failed will resume; their checkpointed states
	// name the only objects allowed to dangle off the reachability map.
	inflight := make(map[oid.OID]bool)
	pairs := 0
	for p, st := range states {
		if _, failed := failures[p]; failed && st != nil && st.InFlight != nil {
			inflight[st.InFlight.Old] = true
			inflight[st.InFlight.New] = true
			pairs++
		}
	}
	if err := w.verify(round, "post-recovery", inflight, pairs); err != nil {
		return rep, false, err
	}

	// Partitions that completed before the crash are durably done
	// (their batch commits were acknowledged); everything else resumes
	// from its latest checkpointed state, or restarts fresh.
	w.nextRemaining(failures, states, img.Records)
	rep.Resumed = w.stats.resumed
	rep.Fresh = w.stats.fresh
	return rep, false, nil
}

// nextRemaining narrows the fleet to the partitions that still need
// work and prepares their resume inputs.
func (w *tortureWorld) nextRemaining(failures map[oid.PartitionID]error, states map[oid.PartitionID]*reorg.State, records []*wal.Record) {
	var left []oid.PartitionID
	resume := make(map[oid.PartitionID]*reorg.State)
	w.stats.resumed, w.stats.fresh = 0, 0
	for _, p := range w.remaining {
		if _, failed := failures[p]; !failed {
			continue // completed and durable
		}
		left = append(left, p)
		if st := states[p]; st != nil {
			resume[p] = st
			w.stats.resumed++
		} else {
			w.stats.fresh++
		}
	}
	sort.Slice(left, func(i, j int) bool { return left[i] < left[j] })
	w.remaining = left
	w.resume = resume
	w.records = records
}

// RunTorture executes one seeded crash-recovery torture run. A nil
// error means every invariant held through every crash; any failure
// message carries the seed and crash point needed to replay it.
func RunTorture(cfg TortureConfig) (*TortureResult, error) {
	cfg.defaults()
	if (cfg.FileWAL || cfg.DiskBacked) && cfg.Dir == "" {
		return nil, fmt.Errorf("torture: FileWAL and DiskBacked require Dir")
	}
	if cfg.StoreMove && !cfg.LogicalOIDs {
		return nil, fmt.Errorf("torture: StoreMove requires LogicalOIDs")
	}
	tortureMu.Lock()
	defer tortureMu.Unlock()
	if fault.Enabled() {
		return nil, fmt.Errorf("torture: a fault registry is already installed")
	}

	w := &tortureWorld{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		oracle: newCtrOracle(cfg.Counters),
	}
	if err := w.build(); err != nil {
		return nil, w.fail(-1, "build fixture: %v", err)
	}
	defer func() { w.d.Close() }()

	res := &TortureResult{Seed: cfg.Seed, Point: cfg.Point, Mode: cfg.Mode, Lives: 1}
	for r := 0; r < cfg.CrashRounds && len(w.remaining) > 0; r++ {
		rep, done, err := w.round(r)
		if err != nil {
			return res, err
		}
		res.Rounds = append(res.Rounds, rep)
		if rep.Crashed {
			res.Lives++
		}
		if done {
			break
		}
	}

	// Final life: finish whatever is left with no faults armed, then
	// hold the world to the full invariant set one last time.
	if len(w.remaining) > 0 && cfg.StoreMove {
		if _, _, err := w.storeMoveFleet(nil); err != nil {
			return res, w.fail(-1, "final store moves failed: %v", err)
		}
	} else if len(w.remaining) > 0 {
		s, err := reorg.NewScheduler(w.d, w.remaining, reorg.FleetOptions{
			Workers: cfg.Workers,
			// Same retry budget as the crash rounds: two workers can
			// deadlock on cross-partition parent locks, and timeout plus
			// retry is the designed resolution — a default (zero) budget
			// turns the first such victim into a run failure.
			Reorg: reorg.Options{
				Mode:            cfg.Mode,
				BatchSize:       cfg.BatchSize,
				MaxRetries:      50,
				WaitTimeout:     500 * time.Millisecond,
				CheckpointEvery: 1,
			},
			ResumeStates: w.resume,
			Records:      w.records,
		})
		if err != nil {
			return res, w.fail(-1, "final scheduler: %v", err)
		}
		if err := s.Run(); err != nil {
			return res, w.fail(-1, "final fleet failed: %v (failures: %v)", err, s.Failures())
		}
	}
	if err := w.verify(-1, "final", nil, 0); err != nil {
		return res, err
	}
	if cfg.QueryScan {
		// The final database is quiesced and every in-flight pair is
		// collapsed, so one traversal MUST commit and match exactly —
		// no two-lock duplicate allowance here.
		qres, err := query.Run(w.d, query.Options{MaxRestarts: 10},
			func(e *query.Exec) (query.Operator, error) {
				return query.NewFollowRefs(w.treeRoots, -1), nil
			})
		if err != nil {
			return res, w.fail(-1, "final traversal failed on a quiesced database: %v", err)
		}
		if err := w.checkQueryRows(qres.Rows, false); err != nil {
			return res, w.fail(-1, "final traversal: %v", err)
		}
	}
	rep, err := check.Verify(w.d, w.allRoots)
	if err != nil {
		return res, err
	}
	res.Objects = rep.Objects
	return res, nil
}

// TorturePoint pairs a crash point with the run shape that exercises
// it: the reorganization mode whose code path contains the point, a
// hit budget matched to its firing frequency, and whether the WAL
// must be file-backed for the point to exist at all.
type TorturePoint struct {
	Point      string
	Mode       reorg.Mode
	FileWAL    bool
	DiskBacked bool
	// Logical runs the cell behind the OID indirection table; StoreMove
	// additionally swaps the compaction fleet for cross-store partition
	// moves (implies Logical).
	Logical   bool
	StoreMove bool
	MaxHit    int
}

// DefaultTorturePoints is the crash-point taxonomy: the WAL append
// path, the commit-flush window, every IRA migration step (basic and
// two-lock), the traversal/wait phases, and — disk-backed — the
// segment write/fsync paths and the mid-eviction flush window.
func DefaultTorturePoints() []TorturePoint {
	return []TorturePoint{
		{Point: fault.WALCrash, Mode: reorg.ModeIRA, FileWAL: true, MaxHit: 60},
		{Point: fault.DBCommit, Mode: reorg.ModeIRA, MaxHit: 40},
		{Point: fault.DBCommit, Mode: reorg.ModeIRA, FileWAL: true, MaxHit: 40},
		{Point: fault.DBCommit, Mode: reorg.ModeIRA, DiskBacked: true, MaxHit: 40},
		{Point: fault.SegmentWrite, Mode: reorg.ModeIRA, DiskBacked: true, MaxHit: 12},
		{Point: fault.SegmentSync, Mode: reorg.ModeIRA, DiskBacked: true, MaxHit: 2},
		{Point: fault.PoolEvict, Mode: reorg.ModeIRA, DiskBacked: true, MaxHit: 4},
		{Point: fault.SegmentWrite, Mode: reorg.ModeIRATwoLock, DiskBacked: true, FileWAL: true, MaxHit: 12},
		{Point: "reorg/after-wait", Mode: reorg.ModeIRA, MaxHit: 4},
		{Point: "reorg/after-traversal", Mode: reorg.ModeIRA, MaxHit: 4},
		{Point: "reorg/parents-locked", Mode: reorg.ModeIRA, MaxHit: 60},
		{Point: "reorg/before-batch-commit", Mode: reorg.ModeIRA, MaxHit: 20},
		{Point: "reorg/batch-done", Mode: reorg.ModeIRA, MaxHit: 20},
		{Point: "reorg/after-migrate", Mode: reorg.ModeIRA, MaxHit: 4},
		{Point: "reorg/twolock-inflight", Mode: reorg.ModeIRATwoLock, MaxHit: 60},
		{Point: "reorg/twolock-parent-locked", Mode: reorg.ModeIRATwoLock, MaxHit: 90},
		{Point: "reorg/twolock-parents-done", Mode: reorg.ModeIRATwoLock, MaxHit: 60},
		// Logical-OID cells: crashes inside the relocate window (map
		// swung, old slot not yet freed), on the commit path, in both
		// algorithms, and under the buffer pool; store-move cells crash
		// between evacuation and source drop, across backings.
		{Point: fault.ReorgMapSet, Mode: reorg.ModeIRA, Logical: true, MaxHit: 40},
		{Point: fault.DBCommit, Mode: reorg.ModeIRA, Logical: true, MaxHit: 40},
		{Point: "reorg/batch-done", Mode: reorg.ModeIRATwoLock, Logical: true, MaxHit: 20},
		{Point: fault.PoolEvict, Mode: reorg.ModeIRA, Logical: true, DiskBacked: true, MaxHit: 4},
		{Point: fault.ReorgStoreMove, Mode: reorg.ModeIRA, Logical: true, StoreMove: true, MaxHit: 3},
		{Point: fault.ReorgMapSet, Mode: reorg.ModeIRA, Logical: true, StoreMove: true, DiskBacked: true, MaxHit: 40},
		{Point: fault.ReorgStoreMove, Mode: reorg.ModeIRA, Logical: true, StoreMove: true, DiskBacked: true, FileWAL: true, MaxHit: 3},
	}
}

// TortureSpec shapes a sweep: Seeds runs, rotating through Points.
type TortureSpec struct {
	Seeds    int
	SeedBase int64
	// Points is the crash-point list; nil means DefaultTorturePoints.
	// A non-nil list is replayed by name, so it should be the default
	// points whose names SelectTorturePoints would pick.
	Points []TorturePoint
	// Dir hosts file-backed WAL state; empty means a fresh temp dir.
	Dir string
	// Hardware sets TortureConfig.Hardware in every cell.
	Hardware bool
}

// SelectTorturePoints returns the default crash points whose name is in
// the comma-separated list, in taxonomy order.
func SelectTorturePoints(csv string) ([]TorturePoint, error) {
	want := make(map[string]bool)
	for _, p := range strings.Split(csv, ",") {
		want[strings.TrimSpace(p)] = true
	}
	var sel []TorturePoint
	for _, tp := range DefaultTorturePoints() {
		if want[tp.Point] {
			sel = append(sel, tp)
		}
	}
	if len(sel) == 0 {
		return nil, fmt.Errorf("no crash points match %q", csv)
	}
	return sel, nil
}

// pointNames is the -points value that selects the spec's list again,
// or "" for the default taxonomy.
func (s TortureSpec) pointNames() string {
	var names []string
	seen := make(map[string]bool)
	for _, p := range s.Points {
		if !seen[p.Point] {
			seen[p.Point] = true
			names = append(names, p.Point)
		}
	}
	return strings.Join(names, ",")
}

// cell is the run the sweep makes at seed. The crash point and the
// CrashDuringRecovery, Chaos and QueryScan flags follow from the seed
// alone, so a one-seed sweep from the same seed and point list runs the
// same cell.
func (s TortureSpec) cell(seed int64, dir string) TortureConfig {
	points := s.Points
	if len(points) == 0 {
		points = DefaultTorturePoints()
	}
	n := int64(len(points))
	pt := points[(seed%n+n)%n]
	return TortureConfig{
		Seed:                seed,
		Point:               pt.Point,
		Mode:                pt.Mode,
		MaxHit:              pt.MaxHit,
		FileWAL:             pt.FileWAL,
		DiskBacked:          pt.DiskBacked,
		LogicalOIDs:         pt.Logical || pt.StoreMove,
		StoreMove:           pt.StoreMove,
		Hardware:            s.Hardware,
		Dir:                 dir,
		CrashDuringRecovery: seed%3 == 0,
		Chaos:               seed%2 != 0,
		QueryScan:           seed%2 == 0,
	}
}

// SweepFailure is one failed run of a sweep.
type SweepFailure struct {
	Seed  int64
	Point string
	// Points is the sweep's -points value ("" for the default
	// taxonomy) and Hardware its execution mode: with the seed they
	// select the failing cell.
	Points   string
	Hardware bool
	Err      error
	// Trace is the tail of the (append, apply, evict, flush)
	// interleaving captured around the failing run — the ordering
	// context the load-sensitive failures lose by the time the checker
	// reports them.
	Trace []interleave.Event
}

// ReplayLine is the deterministic reproduction recipe for a failure.
func (f SweepFailure) ReplayLine() string {
	cmd := fmt.Sprintf("reorgck -torture -seeds 1 -seedbase %d", f.Seed)
	if f.Points != "" {
		cmd += " -points " + f.Points
	}
	if f.Hardware {
		cmd += " -mode hardware"
	}
	return fmt.Sprintf("replay: seed=%d point=%s (%s)", f.Seed, f.Point, cmd)
}

// DumpTrace writes the captured interleaving tail to w, one event per
// line under the given prefix.
func (f SweepFailure) DumpTrace(w io.Writer, prefix string) {
	if len(f.Trace) == 0 {
		fmt.Fprintf(w, "%sinterleave: no events captured\n", prefix)
		return
	}
	fmt.Fprintf(w, "%sinterleave tail: %d events (append|apply|evict|flush)\n", prefix, len(f.Trace))
	for _, e := range f.Trace {
		fmt.Fprintf(w, "%s  %s\n", prefix, e)
	}
}

// RunTortureSweep runs the seed matrix. Every third seed interrupts
// recovery and reruns it; every odd seed adds chaos noise and every even
// one a query scan. It returns the failures (empty on a clean sweep)
// plus a hard error for setup problems; w, if non-nil, receives one
// progress line per run.
func RunTortureSweep(w io.Writer, spec TortureSpec) ([]SweepFailure, error) {
	dir := spec.Dir
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "torture-*"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}
	var failures []SweepFailure
	for n := 0; n < spec.Seeds; n++ {
		seed := spec.SeedBase + int64(n)
		runDir := filepath.Join(dir, fmt.Sprintf("run-%d", n))
		cfg := spec.cell(seed, runDir)
		// A fresh interleaving ring per run: on failure its tail shows
		// the (append, apply, evict, flush) ordering that led up to the
		// violation, which the deterministic replay alone cannot — the
		// rare failures at pool/evict and segment/write are
		// load-sensitive.
		ring := interleave.NewRing(interleave.DefaultCap)
		restoreRing := interleave.Install(ring)
		res, err := RunTorture(cfg)
		restoreRing()
		if err != nil {
			f := SweepFailure{Seed: seed, Point: cfg.Point, Points: spec.pointNames(), Hardware: spec.Hardware, Err: err, Trace: ring.Events()}
			failures = append(failures, f)
			if w != nil {
				fmt.Fprintf(w, "FAIL seed=%d point=%s: %v\n  %s\n", seed, cfg.Point, err, f.ReplayLine())
				f.DumpTrace(w, "  ")
			}
			continue
		}
		os.RemoveAll(runDir)
		if w != nil {
			crashes := 0
			for _, r := range res.Rounds {
				if r.Crashed {
					crashes++
				}
			}
			fmt.Fprintf(w, "ok   seed=%-6d point=%-28s mode=%-10s lives=%d crashes=%d\n",
				seed, cfg.Point, cfg.Mode, res.Lives, crashes)
		}
	}
	return failures, nil
}
