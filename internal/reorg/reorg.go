// Package reorg implements the paper's contribution: on-line
// reorganization of a partition of an object database whose references
// are physical.
//
// Three algorithms are provided:
//
//   - IRA, the Incremental Reorganization Algorithm (§3): a fuzzy,
//     latch-only traversal finds the partition's live objects and an
//     approximate parent list for each; then objects are migrated one at
//     a time, locking exactly the parents of the object in flight. The
//     Temporary Reference Table closes the gap between the fuzzy parent
//     lists and the exact parent sets (Lemmas 3.1–3.3).
//
//   - IRA with the two-lock extension (§4.2): the object being migrated
//     is locked at its old and new locations and parents are locked and
//     updated one at a time, each in its own transaction, so at most two
//     distinct objects are ever locked.
//
//   - PQR, Partition Quiesce Reorganization (§5.1): the baseline that
//     locks every external parent of the partition — quiescing it — and
//     then reorganizes at leisure. Simple, and devastating to concurrent
//     transactions; the benchmarks reproduce exactly that contrast.
//
// An off-line variant (§3.1) for quiescent databases, failure
// checkpoint/resume (§4.4), and copying garbage collection (§4.6) round
// out the package.
package reorg

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/db"
	"repro/internal/fault"
	"repro/internal/lock"
	"repro/internal/obs"
	"repro/internal/oid"
	"repro/internal/trt"
	"repro/internal/wal"
)

// Mode selects the reorganization algorithm.
type Mode int

// Algorithms.
const (
	// ModeIRA is the basic Incremental Reorganization Algorithm: all
	// parents of the object in flight are locked simultaneously.
	ModeIRA Mode = iota
	// ModeIRATwoLock is IRA with the §4.2 extension: at most the object
	// being migrated (old+new location) plus one parent are locked.
	ModeIRATwoLock
	// ModePQR is the partition-quiesce baseline (§5.1).
	ModePQR
	// ModeOffline reorganizes assuming a quiescent database (§3.1). The
	// caller must guarantee no concurrent transactions.
	ModeOffline
)

func (m Mode) String() string {
	switch m {
	case ModeIRA:
		return "IRA"
	case ModeIRATwoLock:
		return "IRA-2L"
	case ModePQR:
		return "PQR"
	case ModeOffline:
		return "offline"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Plan decides where migrated objects go. The driving operation —
// compaction, clustering, garbage collection — supplies it (the paper
// treats this choice as orthogonal, §2).
type Plan struct {
	// Target returns the destination partition for an object.
	Target func(o oid.OID) oid.PartitionID
	// Dense packs objects contiguously at the partition tail instead of
	// first-fit hole filling.
	Dense bool
}

// CompactPlan migrates objects densely within their own partition,
// defragmenting it.
func CompactPlan(part oid.PartitionID) Plan {
	return Plan{Target: func(oid.OID) oid.PartitionID { return part }, Dense: true}
}

// EvacuatePlan migrates objects densely into another partition (the
// copying-collector layout, §4.6).
func EvacuatePlan(to oid.PartitionID) Plan {
	return Plan{Target: func(oid.OID) oid.PartitionID { return to }, Dense: true}
}

// ErrCrash is returned by a Failpoint to simulate a system failure: the
// reorganizer returns immediately without any cleanup, leaving
// in-flight transactions unfinished, exactly as a crash would.
var ErrCrash = errors.New("reorg: simulated crash")

// Options configures a Reorganizer.
type Options struct {
	Mode Mode
	// Plan defaults to CompactPlan of the partition being reorganized.
	Plan *Plan
	// BatchSize groups this many object migrations into one transaction
	// (§4.3); 0 or 1 means one transaction per object. Only the basic
	// IRA mode batches.
	BatchSize int
	// Filter, if set, restricts migration to the objects it accepts
	// (paper §2: the solutions "can easily be extended if ... only
	// certain specific objects in the partition need to be migrated").
	// The traversal is unchanged — parent lists are needed either way.
	// Incompatible with CollectGarbage, which requires full evacuation.
	Filter func(o oid.OID) bool
	// MigrateCreations also migrates objects created in the partition
	// after the reorganization started, up to the moment the main
	// migration pass finishes — the extension the paper defers to its
	// technical report ([LRSS99], footnote 6). Every parent of such an
	// object is necessarily in the TRT (the object did not exist before
	// the reorganization, so every reference to it post-dates the TRT),
	// which is why no traversal is needed for these objects.
	MigrateCreations bool
	// CollectGarbage deletes objects of the partition that the traversal
	// proved unreachable (§4.6).
	CollectGarbage bool
	// MaxRetries bounds per-object deadlock (lock timeout) retries.
	MaxRetries int
	// WaitTimeout bounds the §4.5 wait for transactions that were active
	// when the reorganization started, and the §4.1 ever-locker waits.
	WaitTimeout time.Duration
	// Failpoint, if set, is invoked at named points; returning ErrCrash
	// simulates a crash at that point.
	Failpoint func(point string) error
	// Gate, if set, is invoked before each object (or batch) migration in
	// the incremental modes, and before each late-creation migration and
	// garbage deletion. Blocking inside it pauses the reorganization at an
	// object boundary — no reorganizer locks are held across the call —
	// and returning an error aborts the run cleanly (in-flight work rolled
	// back, TRT detached). The parallel scheduler uses it for
	// pause/resume and cancellation.
	Gate func() error
	// Stopped, if set, is polled between lock-timeout retries. Unlike
	// Gate it must never block (retry loops may hold reorganizer locks
	// when they poll it); a non-nil return abandons the retry loop with
	// that error. Without it, a worker whose lock conflicts with an
	// orphaned transaction (e.g. one killed by a simulated crash) burns
	// its whole MaxRetries × WaitTimeout budget before noticing the
	// fleet was stopped.
	Stopped func() error
	// Transform, if set, rewrites an object's payload as it migrates —
	// the schema-evolution case (§1): the object is re-written in its
	// new representation at its new location, atomically with the
	// pointer rewrites. References are never transformed.
	Transform func(o oid.OID, payload []byte) []byte
	// PerObjectWork, if set, is invoked once per object migration. The
	// harness uses it to charge the reorganizer for the CPU each
	// migration costs, so the reorganizer competes with transactions for
	// the (simulated) processor as it did on the paper's testbed.
	PerObjectWork func()
	// MigrationOrder, if set, reorders the traversal's object list
	// before migration. Dense plans place objects in migration order, so
	// this is where a clustering policy (paper §1: [TN91], [WMK94])
	// plugs in. The returned slice must be a permutation of (a subset
	// of) the input; omitted objects are appended in traversal order.
	MigrationOrder func(objects []oid.OID) []oid.OID
	// CheckpointEvery snapshots reorganizer state after traversal and
	// every N migrated objects (§4.4); 0 disables. Snapshots are
	// delivered to OnCheckpoint.
	CheckpointEvery int
	OnCheckpoint    func(*State)
	// Worker tags this reorganizer's observability spans with the fleet
	// worker index driving it (internal/obs). Informational only; a lone
	// reorganizer leaves it 0.
	Worker int
}

// Stats describes a completed (or interrupted) reorganization.
type Stats struct {
	Mode           Mode
	Partition      oid.PartitionID
	Traversed      int // live objects found by the fuzzy traversal
	Migrated       int
	ParentsUpdated int // parent reference rewrites
	Garbage        int // unreachable objects reclaimed
	Retries        int // deadlock-timeout retries
	TRTPurged      int // tuples removed by the §4.5 optimization
	MaxLocksHeld   int // peak simultaneously-held reorganizer locks
	Started        time.Time
	Finished       time.Time
}

// Duration returns the wall-clock reorganization time.
func (s Stats) Duration() time.Duration { return s.Finished.Sub(s.Started) }

type parentSet map[oid.OID]struct{}

// Reorganizer migrates every live object of one partition.
type Reorganizer struct {
	d    *db.Database
	part oid.PartitionID
	opts Options
	plan Plan

	trt      *trt.Table
	startLSN wal.LSN
	trtOwned bool // whether Run attached the TRT (resume may pre-attach)

	objects  []oid.OID // traversal order
	parents  map[oid.OID]parentSet
	migrated map[oid.OID]oid.OID
	// preMigrated counts migrations inherited from a resume checkpoint,
	// so Stats reports only this run's work.
	preMigrated int
	inFlight    *InFlight

	stats Stats
}

// New creates a reorganizer for partition part.
func New(d *db.Database, part oid.PartitionID, opts Options) *Reorganizer {
	if opts.BatchSize <= 0 {
		opts.BatchSize = 1
	}
	if opts.MaxRetries <= 0 {
		opts.MaxRetries = 10000
	}
	if opts.WaitTimeout <= 0 {
		opts.WaitTimeout = 30 * time.Second
	}
	plan := CompactPlan(part)
	if opts.Plan != nil {
		plan = *opts.Plan
	}
	return &Reorganizer{
		d:        d,
		part:     part,
		opts:     opts,
		plan:     plan,
		parents:  make(map[oid.OID]parentSet),
		migrated: make(map[oid.OID]oid.OID),
	}
}

// Stats returns the statistics gathered so far.
func (r *Reorganizer) Stats() Stats {
	s := r.stats
	s.Mode = r.opts.Mode
	s.Partition = r.part
	s.Migrated = len(r.migrated) - r.preMigrated
	if r.trt != nil {
		s.TRTPurged = r.trt.Purged()
	}
	return s
}

// fail triggers the failpoint hook and the process-wide fault
// registry. Every named point is also a fault point "reorg/<name>":
// a crash-kind firing becomes ErrCrash (no cleanup, as a real crash);
// an error-kind firing aborts the run cleanly like any other error.
func (r *Reorganizer) fail(point string) error {
	if r.opts.Failpoint != nil {
		if err := r.opts.Failpoint(point); err != nil {
			return err
		}
	}
	if !fault.Enabled() {
		return nil
	}
	ferr := fault.Point("reorg/" + point).Maybe()
	if ferr == nil {
		return nil
	}
	if fault.IsCrash(ferr) {
		return fmt.Errorf("%w at %q: %v", ErrCrash, point, ferr)
	}
	return ferr
}

// gate invokes the Gate hook at an object boundary. It is only called
// while the reorganizer holds no locks, so blocking inside the hook
// stalls nothing but this reorganization.
func (r *Reorganizer) gate() error {
	if r.opts.Gate == nil {
		return nil
	}
	return r.opts.Gate()
}

// stopCheck polls the non-blocking Stopped hook; retry loops call it
// between attempts so a stopped fleet unwinds promptly instead of
// exhausting the retry budget against orphaned locks.
func (r *Reorganizer) stopCheck() error {
	if r.opts.Stopped == nil {
		return nil
	}
	return r.opts.Stopped()
}

// retry runs attempt until it returns anything but a lock timeout. Each
// timeout counts in Stats.Retries and polls Stopped before the next
// attempt; after MaxRetries retries it gives up with an error that names
// what and o and wraps the last timeout, so callers can still tell it
// apart from other failures with errors.Is(err, lock.ErrTimeout).
func (r *Reorganizer) retry(what string, o oid.OID, attempt func() error) error {
	for retries := 1; ; retries++ {
		err := attempt()
		if err == nil || errors.Is(err, ErrCrash) || !errors.Is(err, lock.ErrTimeout) {
			return err
		}
		r.stats.Retries++
		if retries > r.opts.MaxRetries {
			return fmt.Errorf("reorg: giving up on %s %s after %d retries: %w", what, o, retries, err)
		}
		if serr := r.stopCheck(); serr != nil {
			return serr
		}
	}
}

// Run executes the reorganization. On ErrCrash it returns immediately
// with no cleanup (simulating a failure); any other error aborts cleanly.
func (r *Reorganizer) Run() error {
	r.stats.Started = time.Now()
	var err error
	switch r.opts.Mode {
	case ModePQR:
		err = r.runPQR()
	case ModeOffline:
		err = r.runOffline()
	case ModeIRA, ModeIRATwoLock:
		err = r.runIRA()
	default:
		err = fmt.Errorf("reorg: unknown mode %v", r.opts.Mode)
	}
	r.stats.Finished = time.Now()
	if errors.Is(err, ErrCrash) {
		return err // crash: leave everything as-is
	}
	if r.trt != nil && r.trtOwned {
		r.d.StopReorgTRT(r.part)
		r.trtOwned = false
	}
	return err
}

// lockParent acquires an exclusive reorganizer lock on R for txn and, in
// relaxed-2PL databases, additionally waits for every active transaction
// that ever locked R to finish (§4.1).
func (r *Reorganizer) lockParent(txn lock.TxnID, R oid.OID) error {
	if err := r.d.Locks().Lock(txn, R, lock.Exclusive); err != nil {
		return err
	}
	if !r.d.Config().Strict2PL {
		if err := r.d.Locks().WaitEverLockers(R, txn, r.opts.WaitTimeout); err != nil {
			return err
		}
	}
	return nil
}

// startStep begins an observability span for one migration step of the
// object in flight. Returns nil (one atomic load, no allocation) when
// tracing is off; every Span method is nil-safe.
func (r *Reorganizer) startStep(step string, o oid.OID) *obs.Span {
	return obs.StartSpan(step, r.opts.Worker, uint32(r.part), uint64(o))
}

// lockParentSpanned is lockParent with the acquisition (and any §4.1
// ever-locker wait) attributed to sp as lock-wait time.
func (r *Reorganizer) lockParentSpanned(sp *obs.Span, txn lock.TxnID, R oid.OID) error {
	if sp == nil {
		return r.lockParent(txn, R)
	}
	start := time.Now()
	err := r.lockParent(txn, R)
	sp.AddLockWait(time.Since(start))
	return err
}

// chargeWorkSpanned is chargeWork with the simulated-CPU time attributed
// to sp as CPU-token-wait.
func (r *Reorganizer) chargeWorkSpanned(sp *obs.Span) {
	if sp == nil {
		r.chargeWork()
		return
	}
	start := time.Now()
	r.chargeWork()
	sp.AddCPUWait(time.Since(start))
}

// isParent reports whether R currently references child. R must be locked
// by the caller. A vanished R (deleted object) is not a parent.
func (r *Reorganizer) isParent(R, child oid.OID) bool {
	obj, err := r.d.FuzzyRead(R)
	return err == nil && obj.HasRef(child)
}

// sortedParents returns the parent set in deterministic order.
func sortedParents(ps parentSet) []oid.OID {
	out := make([]oid.OID, 0, len(ps))
	for p := range ps {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// addParent notes R as an (approximate) parent of child.
func (r *Reorganizer) addParent(child, R oid.OID) {
	ps := r.parents[child]
	if ps == nil {
		ps = make(parentSet)
		r.parents[child] = ps
	}
	ps[R] = struct{}{}
}

// fixupChildren replaces Oold with Onew in the parent lists of Oold's
// children that live in the partition and have not migrated yet
// (Move_Object_And_Update_Refs's bookkeeping step).
func (r *Reorganizer) fixupChildren(refs []oid.OID, oldO, newO oid.OID) {
	for _, c := range refs {
		if c.Partition() != r.part || c == oldO {
			continue
		}
		if _, done := r.migrated[c]; done {
			continue
		}
		if ps, ok := r.parents[c]; ok {
			if _, had := ps[oldO]; had {
				delete(ps, oldO)
				ps[newO] = struct{}{}
			}
		}
	}
}

// noteLocks records a peak lock count.
func (r *Reorganizer) noteLocks(n int) {
	if n > r.stats.MaxLocksHeld {
		r.stats.MaxLocksHeld = n
	}
}

// transformPayload applies the configured payload transform.
func (r *Reorganizer) transformPayload(o oid.OID, payload []byte) []byte {
	if r.opts.Transform == nil {
		return payload
	}
	return r.opts.Transform(o, payload)
}

// transformFn curries the configured transform for one object, in the
// shape db.Txn.Relocate expects; nil when no transform is configured.
func (r *Reorganizer) transformFn(o oid.OID) func([]byte) []byte {
	if r.opts.Transform == nil {
		return nil
	}
	return func(p []byte) []byte { return r.opts.Transform(o, p) }
}

// logical reports whether the database runs in logical-OID mode, where
// a migration relocates the object's body behind the indirection table
// and parent references never change.
func (r *Reorganizer) logical() bool {
	return r.d.OIDMap() != nil
}

// wantsMigration reports whether o is in scope for this run.
func (r *Reorganizer) wantsMigration(o oid.OID) bool {
	return r.opts.Filter == nil || r.opts.Filter(o)
}

// chargeWork invokes the per-object work hook.
func (r *Reorganizer) chargeWork() {
	if r.opts.PerObjectWork != nil {
		r.opts.PerObjectWork()
	}
}

// applyMigrationOrder reorders r.objects per the configured policy,
// keeping any objects the policy dropped (in traversal order) so nothing
// is left behind.
func (r *Reorganizer) applyMigrationOrder() {
	if r.opts.MigrationOrder == nil {
		return
	}
	ordered := r.opts.MigrationOrder(append([]oid.OID(nil), r.objects...))
	seen := make(map[oid.OID]bool, len(ordered))
	out := make([]oid.OID, 0, len(r.objects))
	inPart := make(map[oid.OID]bool, len(r.objects))
	for _, o := range r.objects {
		inPart[o] = true
	}
	for _, o := range ordered {
		if inPart[o] && !seen[o] {
			seen[o] = true
			out = append(out, o)
		}
	}
	for _, o := range r.objects {
		if !seen[o] {
			out = append(out, o)
		}
	}
	r.objects = out
}

// sealTargets seals dense allocation in every partition the plan will
// migrate objects into, so no new copy can reuse a just-freed address.
func (r *Reorganizer) sealTargets() error {
	if !r.plan.Dense {
		return nil
	}
	sealed := make(map[oid.PartitionID]bool)
	for _, o := range r.objects {
		t := r.plan.Target(o)
		if sealed[t] {
			continue
		}
		if err := r.d.Store().SealDense(t); err != nil {
			return err
		}
		sealed[t] = true
	}
	return nil
}

// waitPreStartTxns implements the §4.5 rule: after the TRT is attached,
// wait for every transaction that was active at that moment, so all
// relevant reference updates are guaranteed to be in the TRT.
func (r *Reorganizer) waitPreStartTxns() error {
	return r.d.WaitForTxns(r.d.ActiveTxnIDs(), r.opts.WaitTimeout)
}
