package db_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/check"
	"repro/internal/db"
	"repro/internal/oid"
	"repro/internal/reorg"
	"repro/internal/testkit"
)

// The equivalence oracle, over the configuration matrix with the store
// axis in full. Within one addressing mode and engine the in-memory and
// disk-backed stores must be observationally identical: both share every layout decision (first-fit cursor, dense
// floor, page extension), and the buffer pool only decides residency,
// never placement — so replaying one schedule of operations, aborts,
// and a mid-stream reorganization must produce identical OIDs,
// identical read results, and identical reachability signatures, even
// with a frame budget tiny enough that the disk store evicts on nearly
// every access. Across addressing modes the OIDs legitimately differ
// (logical OIDs come from the per-partition sequence, and survive
// migration), so the grid compares the address-free projection instead:
// per-node payloads and the reference graph over abstract node ids.
// Logical cells additionally assert the tentpole's identity-stability
// claim — a reorganization pass changes no OID the root hands out.

// oracleOp is one step of an abstract schedule. Object identity is the
// abstract node index, so the schedule can be interpreted against either
// database regardless of the OIDs it happens to produce (they must then
// agree anyway).
type oracleOp struct {
	kind    int // 0 create, 1 update, 2 insertRef, 3 deleteRef, 4 delete, 5 update+abort
	node    int // target node index (interpreted modulo the live set)
	other   int // second node for ref ops
	payload byte
}

// oracleWorld tracks the abstract graph the schedule builds: which nodes
// are alive, their OIDs in one database, and the edge set (so deletes
// only target unreferenced nodes and check.Verify stays clean).
type oracleWorld struct {
	d     *db.Database
	root  oid.OID
	nodes map[int]oid.OID
	edges map[[2]int]bool
}

const oraclePart = oid.PartitionID(1)

func newOracleWorld(t *testing.T, d *db.Database) *oracleWorld {
	t.Helper()
	for _, p := range []oid.PartitionID{0, oraclePart} {
		if err := d.CreatePartition(p); err != nil {
			t.Fatal(err)
		}
	}
	tx, err := d.Begin()
	if err != nil {
		t.Fatal(err)
	}
	root, err := tx.Create(0, []byte("oracle-root"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return &oracleWorld{d: d, root: root, nodes: map[int]oid.OID{}, edges: map[[2]int]bool{}}
}

// liveAt picks the i'th live node in index order (deterministic for both
// databases because the live sets evolve identically).
func (w *oracleWorld) liveAt(i int) (int, bool) {
	if len(w.nodes) == 0 {
		return 0, false
	}
	keys := make([]int, 0, len(w.nodes))
	for k := range w.nodes {
		keys = append(keys, k)
	}
	// Insertion order is map order; sort for determinism.
	for a := 1; a < len(keys); a++ {
		for b := a; b > 0 && keys[b] < keys[b-1]; b-- {
			keys[b], keys[b-1] = keys[b-1], keys[b]
		}
	}
	return keys[i%len(keys)], true
}

func (w *oracleWorld) referenced(n int) bool {
	for e := range w.edges {
		if e[1] == n {
			return true
		}
	}
	return false
}

// apply interprets one op, returning a result string ("OID" or "err:...")
// that the caller compares across databases. nextID numbers creates.
func (w *oracleWorld) apply(op oracleOp, nextID int) (string, error) {
	tx, err := w.d.Begin()
	if err != nil {
		return "", err
	}
	done := func(res string, err error) (string, error) {
		if err != nil {
			tx.Abort()
			return "err:" + err.Error(), nil
		}
		if cerr := tx.Commit(); cerr != nil {
			return "", cerr
		}
		return res, nil
	}
	switch op.kind {
	case 0: // create, hooked under the root so it stays reachable
		o, err := tx.Create(oraclePart, []byte{op.payload, byte(nextID), byte(nextID >> 8)}, nil)
		if err != nil {
			return done("", err)
		}
		if err := tx.InsertRef(w.root, o); err != nil {
			return done("", err)
		}
		res, err := done(o.String(), nil)
		if err == nil {
			w.nodes[nextID] = o
		}
		return res, err
	case 1, 5: // update (5: then abort — no visible effect)
		n, ok := w.liveAt(op.node)
		if !ok {
			tx.Abort()
			return "noop", nil
		}
		if err := tx.UpdatePayload(w.nodes[n], []byte{op.payload, 0xFF, byte(n)}); err != nil {
			return done("", err)
		}
		if op.kind == 5 {
			if err := tx.Abort(); err != nil {
				return "", err
			}
			return "aborted", nil
		}
		return done("updated", nil)
	case 2: // insertRef
		a, ok1 := w.liveAt(op.node)
		b, ok2 := w.liveAt(op.other)
		if !ok1 || !ok2 || a == b || w.edges[[2]int{a, b}] {
			tx.Abort()
			return "noop", nil
		}
		if err := tx.InsertRef(w.nodes[a], w.nodes[b]); err != nil {
			return done("", err)
		}
		res, err := done("ref+", nil)
		if err == nil {
			w.edges[[2]int{a, b}] = true
		}
		return res, err
	case 3: // deleteRef
		var edge [2]int
		found := false
		for e := range w.edges {
			if !found || e[0] < edge[0] || (e[0] == edge[0] && e[1] < edge[1]) {
				edge, found = e, true
			}
		}
		if !found {
			tx.Abort()
			return "noop", nil
		}
		if err := tx.DeleteRef(w.nodes[edge[0]], w.nodes[edge[1]]); err != nil {
			return done("", err)
		}
		res, err := done("ref-", nil)
		if err == nil {
			delete(w.edges, edge)
		}
		return res, err
	case 4: // delete an unreferenced node (unhook from the root first)
		n, ok := w.liveAt(op.node)
		if !ok || w.referenced(n) {
			tx.Abort()
			return "noop", nil
		}
		if err := tx.DeleteRef(w.root, w.nodes[n]); err != nil {
			return done("", err)
		}
		if err := tx.Delete(w.nodes[n]); err != nil {
			return done("", err)
		}
		res, err := done("deleted", nil)
		if err == nil {
			delete(w.nodes, n)
			for e := range w.edges {
				if e[0] == n {
					delete(w.edges, e)
				}
			}
		}
		return res, err
	}
	tx.Abort()
	return "noop", nil
}

// reorgPass densely compacts the bench partition with IRA and refreshes
// the OID map from the root's reference list (child order is preserved
// by migration, and creates appended children in ascending node id).
func (w *oracleWorld) reorgPass(t *testing.T) error {
	t.Helper()
	plan := reorg.CompactPlan(oraclePart)
	r := reorg.New(w.d, oraclePart, reorg.Options{
		Mode:        reorg.ModeIRA,
		Plan:        &plan,
		BatchSize:   4,
		WaitTimeout: time.Second,
	})
	if err := r.Run(); err != nil {
		return err
	}
	refs, err := w.d.FuzzyReadRefs(w.root)
	if err != nil {
		return err
	}
	ids := make([]int, 0, len(w.nodes))
	for id := range w.nodes {
		ids = append(ids, id)
	}
	for a := 1; a < len(ids); a++ {
		for b := a; b > 0 && ids[b] < ids[b-1]; b-- {
			ids[b], ids[b-1] = ids[b-1], ids[b]
		}
	}
	if len(refs) != len(ids) {
		return fmt.Errorf("root holds %d refs, want %d", len(refs), len(ids))
	}
	for i, id := range ids {
		if w.d.OIDMap() != nil && refs[i] != w.nodes[id] {
			// The logical cells' identity-stability claim: migration may
			// move a body anywhere, but the OID a parent holds never
			// changes.
			return fmt.Errorf("reorg changed node %d's logical OID: %s -> %s", id, w.nodes[id], refs[i])
		}
		w.nodes[id] = refs[i]
	}
	return nil
}

// abstract is the address-free projection of the world: per live node,
// its payload and outgoing references as abstract node ids, in stored
// order. This is what must agree across addressing modes, where the
// OIDs themselves cannot.
func (w *oracleWorld) abstract(t *testing.T) map[int]string {
	t.Helper()
	rev := make(map[oid.OID]int, len(w.nodes))
	for id, o := range w.nodes {
		rev[o] = id
	}
	out := make(map[int]string, len(w.nodes))
	for id, o := range w.nodes {
		obj, err := w.d.FuzzyRead(o)
		if err != nil {
			t.Fatalf("read node %d (%s): %v", id, o, err)
		}
		refIDs := make([]int, 0, len(obj.Refs))
		for _, c := range obj.Refs {
			cid, ok := rev[c]
			if !ok {
				t.Fatalf("node %d references %s, which is no live node", id, c)
			}
			refIDs = append(refIDs, cid)
		}
		out[id] = fmt.Sprintf("payload=%x refs=%v", obj.Payload, refIDs)
	}
	return out
}

// snapshot reads back every live node (payload and refs) plus the
// reachability signature from the root.
func (w *oracleWorld) snapshot(t *testing.T) (map[int]string, map[string][]string) {
	t.Helper()
	out := make(map[int]string, len(w.nodes))
	for id, o := range w.nodes {
		obj, err := w.d.FuzzyRead(o)
		if err != nil {
			t.Fatalf("read node %d (%s): %v", id, o, err)
		}
		var b bytes.Buffer
		fmt.Fprintf(&b, "%s payload=%x refs=%v", o, obj.Payload, obj.Refs)
		out[id] = b.String()
	}
	sig, err := check.Signature(w.d, []oid.OID{w.root})
	if err != nil {
		t.Fatalf("signature: %v", err)
	}
	return out, sig
}

func oracleSchedule(seed int64, n int) []oracleOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]oracleOp, n)
	for i := range ops {
		k := rng.Intn(10)
		switch { // weight creates so the graph grows
		case k < 4:
			k = 0
		case k < 6:
			k = 1
		case k < 7:
			k = 2
		case k < 8:
			k = 3
		case k < 9:
			k = 4
		default:
			k = 5
		}
		ops[i] = oracleOp{kind: k, node: rng.Intn(1 << 16), other: rng.Intn(1 << 16), payload: byte(rng.Intn(256))}
	}
	return ops
}

// oracleRun is everything one grid cell produced: the per-op results
// and final snapshot (address-bearing, compared within one addressing
// mode) plus the abstract projection (compared across modes).
type oracleRun struct {
	results  []string
	reads    map[int]string
	sig      map[string][]string
	abstract map[int]string
}

// runOracle replays one schedule against a database, with a mid-stream
// and a final reorganization pass.
func runOracle(t *testing.T, d *db.Database, ops []oracleOp) oracleRun {
	t.Helper()
	w := newOracleWorld(t, d)
	results := make([]string, 0, len(ops))
	nextID := 0
	for i, op := range ops {
		res, err := w.apply(op, nextID)
		if err != nil {
			t.Fatalf("op %d (%+v): %v", i, op, err)
		}
		if op.kind == 0 && res != "noop" && res[:4] != "err:" {
			nextID++
		}
		results = append(results, res)
		if i == len(ops)/2 {
			if err := w.reorgPass(t); err != nil {
				t.Fatalf("mid-stream reorg: %v", err)
			}
		}
	}
	if err := w.reorgPass(t); err != nil {
		t.Fatalf("final reorg: %v", err)
	}
	rep, err := check.Verify(w.d, []oid.OID{w.root})
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("consistency: %v", err)
	}
	reads, sig := w.snapshot(t)
	return oracleRun{results: results, reads: reads, sig: sig, abstract: w.abstract(t)}
}

func oracleConfig(t *testing.T, c testkit.Cell) db.Config {
	cfg := db.DefaultConfig()
	cfg.PageSize = 1024 // small pages: more eviction traffic per op
	cfg.FlushLatency = 0
	cfg.LockTimeout = 2 * time.Second
	cfg = c.Config(t, cfg)
	if c.Disk {
		cfg.PoolFrames = 4 // far below the working set: evict constantly
	}
	return cfg
}

// sameCell asserts exact observational equality between the memory and
// disk runs of one addressing mode and engine.
func sameCell(t *testing.T, seed int64, mode string, mem, dsk oracleRun) bool {
	t.Helper()
	if !reflect.DeepEqual(mem.results, dsk.results) {
		t.Errorf("seed %d (%s): op results diverge", seed, mode)
		for i := range mem.results {
			if mem.results[i] != dsk.results[i] {
				t.Errorf("  op %d: mem=%q disk=%q", i, mem.results[i], dsk.results[i])
				break
			}
		}
		return false
	}
	if !reflect.DeepEqual(mem.reads, dsk.reads) {
		t.Errorf("seed %d (%s): read-back diverges (mem %d nodes, disk %d nodes)",
			seed, mode, len(mem.reads), len(dsk.reads))
		return false
	}
	if !reflect.DeepEqual(mem.sig, dsk.sig) {
		t.Errorf("seed %d (%s): reachability signatures diverge", seed, mode)
		return false
	}
	return true
}

// TestDiskMemoryEquivalence is the oracle proper, driven by
// testing/quick over schedule seeds: one schedule replayed against each
// pairwise cell of the configuration matrix and against its twin on the
// other store.
func TestDiskMemoryEquivalence(t *testing.T) {
	nOps := 120
	maxCount := 5
	if testing.Short() {
		nOps, maxCount = 60, 2
	}
	f := func(seed int64) bool {
		ops := oracleSchedule(seed, nOps)
		runs := make(map[string]oracleRun, 2*len(testkit.Pairwise))
		for _, c := range testkit.Pairwise {
			memCell, dskCell := c, c
			memCell.Disk, dskCell.Disk = false, true
			mem := db.Open(oracleConfig(t, memCell))
			memRun := runOracle(t, mem, ops)
			mem.Close()

			dsk := db.Open(oracleConfig(t, dskCell))
			dskRun := runOracle(t, dsk, ops)
			if pinned := dsk.Store().PoolStats().Pinned; pinned != 0 {
				t.Errorf("seed %d (%s): %d frames left pinned", seed, dskCell, pinned)
				return false
			}
			dsk.Close()

			if !sameCell(t, seed, memCell.String(), memRun, dskRun) {
				return false
			}
			runs[memCell.String()] = memRun
			runs[dskCell.String()] = dskRun
		}
		// Across addressing modes the OIDs differ by design; the
		// address-free projection must not.
		want := runs[testkit.Cell{}.String()].abstract
		for name, run := range runs {
			if !reflect.DeepEqual(run.abstract, want) {
				t.Errorf("seed %d: %s abstract graph diverges from %s (%d vs %d nodes)",
					seed, name, testkit.Cell{}, len(run.abstract), len(want))
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(20260808))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
