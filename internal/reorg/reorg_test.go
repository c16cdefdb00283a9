package reorg

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/db"
	"repro/internal/lock"
	"repro/internal/oid"
	"repro/internal/testkit"
)

func testConfig() db.Config {
	cfg := db.DefaultConfig()
	cfg.FlushLatency = 0
	cfg.LockTimeout = 100 * time.Millisecond
	return cfg
}

// fixture is a small multi-partition object graph:
//
//	partition 0 holds per-cluster root objects (the persistent roots);
//	partitions 1..N hold clusters — binary trees plus one "glue" edge per
//	node to a random node, some crossing partitions.
type fixture struct {
	d     *db.Database
	roots []oid.OID          // root-table objects in partition 0
	all   map[oid.OID]string // every object -> payload
}

func buildFixture(t *testing.T, cfg db.Config, parts, clusterSize int) *fixture {
	t.Helper()
	d := db.Open(cfg)
	for i := 0; i <= parts; i++ {
		if err := d.CreatePartition(oid.PartitionID(i)); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(d.Close)
	f := &fixture{d: d, all: make(map[oid.OID]string)}
	rng := rand.New(rand.NewSource(99))
	tx, err := d.Begin()
	if err != nil {
		t.Fatal(err)
	}
	var everywhere []oid.OID
	for p := 1; p <= parts; p++ {
		var nodes []oid.OID
		for i := 0; i < clusterSize; i++ {
			payload := fmt.Sprintf("p%d-n%d", p, i)
			o, err := tx.Create(oid.PartitionID(p), []byte(payload), nil)
			if err != nil {
				t.Fatal(err)
			}
			f.all[o] = payload
			nodes = append(nodes, o)
			everywhere = append(everywhere, o)
			if i > 0 {
				// Tree edge from parent (i-1)/2.
				if err := tx.InsertRef(nodes[(i-1)/2], o); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Glue edges: each node points somewhere random (possibly
		// another partition).
		for _, n := range nodes {
			target := everywhere[rng.Intn(len(everywhere))]
			if target != n {
				if err := tx.InsertRef(n, target); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Persistent root in partition 0.
		rootPayload := fmt.Sprintf("root-p%d", p)
		root, err := tx.Create(0, []byte(rootPayload), []oid.OID{nodes[0]})
		if err != nil {
			t.Fatal(err)
		}
		f.all[root] = rootPayload
		f.roots = append(f.roots, root)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return f
}

// verify asserts database consistency and graph preservation.
func (f *fixture) verify(t *testing.T, wantSig map[string][]string) {
	t.Helper()
	rep, err := check.Verify(f.d, f.roots)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if wantSig != nil {
		sig, err := check.Signature(f.d, f.roots)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sig, wantSig) {
			t.Fatalf("graph signature changed by reorganization")
		}
	}
}

func (f *fixture) signature(t *testing.T) map[string][]string {
	t.Helper()
	sig, err := check.Signature(f.d, f.roots)
	if err != nil {
		t.Fatal(err)
	}
	return sig
}

// partitionOIDs returns the current OIDs of objects in part.
func (f *fixture) partitionOIDs(t *testing.T, part oid.PartitionID) map[oid.OID]bool {
	t.Helper()
	out := make(map[oid.OID]bool)
	err := f.d.Store().ForEach(part, func(o oid.OID, _ []byte) bool {
		out[o] = true
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func testModesQuiescent(t *testing.T, mode Mode, batch int) {
	f := buildFixture(t, testConfig(), 3, 30)
	sig := f.signature(t)
	before := f.partitionOIDs(t, 1)

	r := New(f.d, 1, Options{Mode: mode, BatchSize: batch})
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Traversed != 30 {
		t.Fatalf("Traversed = %d, want 30", st.Traversed)
	}
	if st.Migrated != 30 {
		t.Fatalf("Migrated = %d, want 30", st.Migrated)
	}
	after := f.partitionOIDs(t, 1)
	if len(after) != 30 {
		t.Fatalf("partition has %d objects after reorg", len(after))
	}
	for o := range after {
		if before[o] {
			t.Fatalf("object %v did not move", o)
		}
	}
	f.verify(t, sig)
	// The TRT must be gone.
	if _, ok := f.d.Analyzer().TRT(1); ok {
		t.Fatal("TRT still attached after reorganization")
	}
}

func TestIRAQuiescent(t *testing.T)        { testModesQuiescent(t, ModeIRA, 1) }
func TestIRABatchedQuiescent(t *testing.T) { testModesQuiescent(t, ModeIRA, 8) }
func TestIRATwoLockQuiescent(t *testing.T) { testModesQuiescent(t, ModeIRATwoLock, 1) }
func TestPQRQuiescent(t *testing.T)        { testModesQuiescent(t, ModePQR, 1) }
func TestOfflineQuiescent(t *testing.T)    { testModesQuiescent(t, ModeOffline, 1) }

// walker drives random-walk transactions against the fixture until
// stopped, mimicking the paper's workload.
type walker struct {
	stop    atomic.Bool
	wg      sync.WaitGroup
	aborts  atomic.Int64
	commits atomic.Int64
}

func (w *walker) run(t *testing.T, f *fixture, threads int) {
	for g := 0; g < threads; g++ {
		w.wg.Add(1)
		go func(seed int64) {
			defer w.wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !w.stop.Load() {
				tx, err := f.d.Begin()
				if err != nil {
					return
				}
				cur := f.roots[rng.Intn(len(f.roots))]
				ok := true
				for step := 0; step < 6; step++ {
					mode := lock.Shared
					if rng.Intn(2) == 0 {
						mode = lock.Exclusive
					}
					if err := tx.Lock(cur, mode); err != nil {
						ok = false
						break
					}
					obj, err := tx.Read(cur)
					if err != nil {
						ok = false
						break
					}
					if mode == lock.Exclusive && len(obj.Payload) > 0 {
						// Update in place, preserving the payload value
						// so graph signatures remain comparable.
						if err := tx.UpdatePayload(cur, obj.Payload); err != nil {
							ok = false
							break
						}
					}
					if len(obj.Refs) == 0 {
						break
					}
					cur = obj.Refs[rng.Intn(len(obj.Refs))]
				}
				if ok {
					if err := tx.Commit(); err == nil {
						w.commits.Add(1)
						continue
					}
				}
				tx.Abort()
				w.aborts.Add(1)
			}
		}(int64(g) * 7)
	}
}

func (w *walker) halt() {
	w.stop.Store(true)
	w.wg.Wait()
}

func testModeUnderLoad(t *testing.T, c testkit.Cell, mode Mode, batch int) {
	f := buildFixture(t, c.Config(t, testConfig()), 3, 40)
	sig := f.signature(t)
	w := &walker{}
	w.run(t, f, 8)
	time.Sleep(50 * time.Millisecond) // let walkers get going
	r := New(f.d, 1, Options{Mode: mode, BatchSize: batch})
	err := r.Run()
	time.Sleep(50 * time.Millisecond) // walkers must keep working after
	w.halt()
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Stats().Migrated; got != 40 {
		t.Fatalf("Migrated = %d, want 40", got)
	}
	if w.commits.Load() == 0 {
		t.Fatal("no transactions committed during reorganization")
	}
	f.verify(t, sig)
}

// TestIRAUnderLoad keeps the disk cell it stalled in (see CHANGES.md).
func TestIRAUnderLoad(t *testing.T) {
	testkit.Run(t, []testkit.Cell{{}, {Disk: true}}, func(t *testing.T, c testkit.Cell) {
		testModeUnderLoad(t, c, ModeIRA, 1)
	})
}

func TestIRABatchedUnderLoad(t *testing.T) { testModeUnderLoad(t, testkit.Cell{}, ModeIRA, 4) }
func TestIRATwoLockUnderLoad(t *testing.T) { testModeUnderLoad(t, testkit.Cell{}, ModeIRATwoLock, 1) }
func TestPQRUnderLoad(t *testing.T)        { testModeUnderLoad(t, testkit.Cell{}, ModePQR, 1) }

// TestFigure2Scenario reproduces the paper's Figure 2 motivation: a
// transaction deletes the only reference to O, the reorganizer runs, and
// the transaction then aborts, reinserting the reference — which must end
// up pointing at O's NEW location, not at freed space.
func TestFigure2Scenario(t *testing.T) {
	cfg := testConfig()
	cfg.LockTimeout = 150 * time.Millisecond
	f := buildFixture(t, cfg, 1, 5)
	sig := f.signature(t)

	// Find the cluster root (payload p1-n0) and one child edge to cut.
	tx, _ := f.d.Begin()
	rootObj, err := tx.Read(f.roots[0])
	if err != nil {
		t.Fatal(err)
	}
	clusterRoot := rootObj.Refs[0]
	cr, _ := tx.Read(clusterRoot)
	child := cr.Refs[0]
	if err := tx.DeleteRef(clusterRoot, child); err != nil {
		t.Fatal(err)
	}
	// tx keeps the reference "in local memory" and stays active.

	done := make(chan error, 1)
	go func() {
		r := New(f.d, 1, Options{Mode: ModeIRA, WaitTimeout: 10 * time.Second})
		done <- r.Run()
	}()
	// The reorganizer must not complete while tx is active: tx was
	// active at reorg start, so the §4.5 wait blocks it.
	time.Sleep(100 * time.Millisecond)
	select {
	case err := <-done:
		t.Fatalf("reorganizer finished while deleter active: %v", err)
	default:
	}
	// Abort reinserts the reference.
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("reorganizer stuck")
	}
	f.verify(t, sig)
}

// TestTRTCatchesMidReorgEdgeCut is Figure 2 with the pointer delete
// happening AFTER the reorganization has started (so the TRT, not the
// pre-start wait, must catch it).
func TestTRTCatchesMidReorgEdgeCut(t *testing.T) {
	cfg := testConfig()
	f := buildFixture(t, cfg, 1, 30)
	sig := f.signature(t)

	cut := make(chan struct{}) // closed at the cutter's first cut
	var cutOnce sync.Once
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(5))
		for {
			select {
			case <-stop:
				return
			default:
			}
			tx, err := f.d.Begin()
			if err != nil {
				return
			}
			// Walk root -> cluster root, cut a random edge, sometimes
			// abort (reinsert), sometimes reinsert explicitly + commit.
			ok := func() bool {
				rootObj, err := tx.Read(f.roots[0])
				if err != nil {
					return false
				}
				cr := rootObj.Refs[0]
				obj, err := tx.Read(cr)
				if err != nil || len(obj.Refs) == 0 {
					return false
				}
				victim := obj.Refs[rng.Intn(len(obj.Refs))]
				if err := tx.DeleteRef(cr, victim); err != nil {
					return false
				}
				cutOnce.Do(func() { close(cut) })
				time.Sleep(time.Millisecond)
				if rng.Intn(2) == 0 {
					return false // abort: reinsertion via rollback
				}
				return tx.InsertRef(cr, victim) == nil
			}()
			if ok {
				if tx.Commit() != nil {
					tx.Abort()
				}
			} else {
				tx.Abort()
			}
		}
	}()

	// The reorganization starts once the cutter is cutting, so the two
	// overlap on every schedule.
	select {
	case <-cut:
	case <-time.After(10 * time.Second):
		close(stop)
		wg.Wait()
		t.Fatal("cutter never cut an edge")
	}
	r := New(f.d, 1, Options{Mode: ModeIRA})
	err := r.Run()
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	f.verify(t, sig)
}

func TestRelaxed2PLWaitsForEverLockers(t *testing.T) {
	cfg := testConfig()
	cfg.Strict2PL = false
	f := buildFixture(t, cfg, 1, 10)
	sig := f.signature(t)

	// A transaction locks the persistent root, reads the cluster root
	// reference, and releases the lock early — but stays active, holding
	// the reference in local memory.
	tx, _ := f.d.Begin()
	rootObj, err := tx.Read(f.roots[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Unlock(f.roots[0]); err != nil {
		t.Fatal(err)
	}
	_ = rootObj

	// Run IRA after tx's lock release. We must not treat tx's start as
	// pre-reorg (it is pre-reorg here, which would also block; what we
	// want to exercise is WaitEverLockers) — so begin the reorganizer in
	// a goroutine and watch it block.
	done := make(chan error, 1)
	go func() {
		r := New(f.d, 1, Options{Mode: ModeIRA, WaitTimeout: 10 * time.Second})
		done <- r.Run()
	}()
	time.Sleep(100 * time.Millisecond)
	select {
	case err := <-done:
		t.Fatalf("reorg finished while ever-locker active: %v", err)
	default:
	}
	tx.Commit()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("reorg stuck")
	}
	f.verify(t, sig)
}

// TestLockRetryGiveUpWrapsTimeout checks that when lockObjectRetry runs
// out of retries its error still wraps lock.ErrTimeout: callers such as
// the torture sweep tolerate a timed-out partition by that sentinel, as
// they do for the reorganizer's other retry loops.
func TestLockRetryGiveUpWrapsTimeout(t *testing.T) {
	cfg := testConfig()
	cfg.LockTimeout = 10 * time.Millisecond
	f := buildFixture(t, cfg, 1, 4)
	var o oid.OID
	for o = range f.partitionOIDs(t, 1) {
		break
	}
	holder, err := f.d.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Abort()
	if err := f.d.Locks().Lock(holder.ID(), o, lock.Exclusive); err != nil {
		t.Fatal(err)
	}

	r := New(f.d, 1, Options{Mode: ModeIRATwoLock, MaxRetries: 1})
	txn, err := f.d.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer txn.Abort()
	err = r.lockObjectRetry(txn.ID(), o)
	if !errors.Is(err, lock.ErrTimeout) {
		t.Fatalf("give-up error %v does not wrap lock.ErrTimeout", err)
	}
	if got := r.Stats().Retries; got != 2 {
		t.Fatalf("Stats.Retries = %d, want 2 (MaxRetries 1, then give up)", got)
	}
}

func TestSelfReferenceAndCycle(t *testing.T) {
	d := db.Open(testConfig())
	defer d.Close()
	d.CreatePartition(0)
	d.CreatePartition(1)
	tx, _ := d.Begin()
	// a <-> b cycle plus a self-loop on a.
	a, _ := tx.Create(1, []byte("a"), nil)
	b, _ := tx.Create(1, []byte("b"), []oid.OID{a})
	tx.InsertRef(a, b)
	tx.InsertRef(a, a) // self-reference
	root, _ := tx.Create(0, []byte("root"), []oid.OID{a})
	tx.Commit()

	sigBefore, err := check.Signature(d, []oid.OID{root})
	if err != nil {
		t.Fatal(err)
	}
	r := New(d, 1, Options{Mode: ModeIRA})
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	rep, err := check.Verify(d, []oid.OID{root})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	sigAfter, err := check.Signature(d, []oid.OID{root})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sigBefore, sigAfter) {
		t.Fatalf("cycle graph changed:\n%v\n%v", sigBefore, sigAfter)
	}
	// The self-reference must point at the NEW address.
	newA := oid.Nil
	d.Store().ForEach(1, func(o oid.OID, _ []byte) bool {
		obj, _ := d.FuzzyRead(o)
		if string(obj.Payload) == "a" {
			newA = o
		}
		return true
	})
	obj, _ := d.FuzzyRead(newA)
	if obj.CountRef(newA) != 1 {
		t.Fatalf("self-reference not retargeted: refs = %v (a = %v)", obj.Refs, newA)
	}
}

func TestCopyingGarbageCollection(t *testing.T) {
	f := buildFixture(t, testConfig(), 2, 20)
	// Manufacture garbage in partition 1: unreachable objects, including
	// a cycle and a reference to a live object.
	tx, _ := f.d.Begin()
	live := oid.Nil
	f.d.Store().ForEach(1, func(o oid.OID, _ []byte) bool {
		live = o
		return false
	})
	g1, _ := tx.Create(1, []byte("garbage1"), []oid.OID{live})
	g2, _ := tx.Create(1, []byte("garbage2"), []oid.OID{g1})
	tx.InsertRef(g1, g2) // garbage cycle
	tx.Commit()
	sig := f.signature(t)

	stats, err := CollectPartition(f.d, 1, 77, Options{Mode: ModeIRA})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Garbage != 2 {
		t.Fatalf("Garbage = %d, want 2", stats.Garbage)
	}
	if stats.Migrated != 20 {
		t.Fatalf("Migrated = %d, want 20", stats.Migrated)
	}
	if f.d.Store().HasPartition(1) {
		t.Fatal("evacuated partition still exists")
	}
	f.verify(t, sig)
	// Live objects all ended up in partition 77.
	n := 0
	f.d.Store().ForEach(77, func(oid.OID, []byte) bool { n++; return true })
	if n != 20 {
		t.Fatalf("partition 77 holds %d objects, want 20", n)
	}
}

func TestCompactionReclaimsFragmentation(t *testing.T) {
	cfg := testConfig()
	cfg.PageSize = 1024
	d := db.Open(cfg)
	defer d.Close()
	d.CreatePartition(0)
	d.CreatePartition(1)
	// Fill partition 1, then delete most objects to fragment it.
	tx, _ := d.Begin()
	var objs []oid.OID
	for i := 0; i < 120; i++ {
		o, err := tx.Create(1, []byte(fmt.Sprintf("obj-%03d", i)), nil)
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, o)
	}
	var kept []oid.OID
	for i, o := range objs {
		if i%4 == 0 {
			kept = append(kept, o)
		} else if err := tx.Delete(o); err != nil {
			t.Fatal(err)
		}
	}
	root, _ := tx.Create(0, []byte("root"), kept)
	tx.Commit()

	before, _ := d.Store().PartitionStats(1)
	r := New(d, 1, Options{Mode: ModeIRA})
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Store().TrimPages(1); err != nil {
		t.Fatal(err)
	}
	after, _ := d.Store().PartitionStats(1)
	if after.Pages >= before.Pages {
		t.Fatalf("compaction did not shrink pages: %d -> %d", before.Pages, after.Pages)
	}
	if after.DeadBytes != 0 {
		t.Fatalf("DeadBytes = %d after compaction", after.DeadBytes)
	}
	rep, err := check.Verify(d, []oid.OID{root})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if rep.Reachable != len(kept)+1 {
		t.Fatalf("Reachable = %d", rep.Reachable)
	}
}

func TestEvacuatePlanMovesAcrossPartitions(t *testing.T) {
	f := buildFixture(t, testConfig(), 2, 15)
	sig := f.signature(t)
	f.d.CreatePartition(9)
	plan := EvacuatePlan(9)
	r := New(f.d, 1, Options{Mode: ModeIRA, Plan: &plan})
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if got := len(f.partitionOIDs(t, 1)); got != 0 {
		t.Fatalf("%d objects left behind", got)
	}
	if got := len(f.partitionOIDs(t, 9)); got != 15 {
		t.Fatalf("%d objects in target", got)
	}
	f.verify(t, sig)
}

func TestStatsPopulated(t *testing.T) {
	f := buildFixture(t, testConfig(), 1, 10)
	r := New(f.d, 1, Options{Mode: ModeIRA})
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Mode != ModeIRA || st.Partition != 1 {
		t.Fatalf("stats identity: %+v", st)
	}
	if st.ParentsUpdated == 0 {
		t.Fatal("ParentsUpdated = 0")
	}
	if st.Duration() <= 0 {
		t.Fatal("Duration <= 0")
	}
	if st.MaxLocksHeld == 0 {
		t.Fatal("MaxLocksHeld = 0")
	}
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{
		ModeIRA: "IRA", ModeIRATwoLock: "IRA-2L", ModePQR: "PQR", ModeOffline: "offline",
	} {
		if m.String() != want {
			t.Errorf("Mode(%d).String() = %q", int(m), m.String())
		}
	}
}

func TestOfflineRejectsActiveTxns(t *testing.T) {
	f := buildFixture(t, testConfig(), 1, 5)
	tx, _ := f.d.Begin()
	defer tx.Abort()
	r := New(f.d, 1, Options{Mode: ModeOffline})
	if err := r.Run(); err == nil {
		t.Fatal("offline mode ran with active transactions")
	}
}

func TestCollectPartitionRejectsSelf(t *testing.T) {
	f := buildFixture(t, testConfig(), 1, 5)
	if _, err := CollectPartition(f.d, 1, 1, Options{}); err == nil {
		t.Fatal("self-evacuation allowed")
	}
}

// TestCrashFailpointLeavesTxnActive asserts ErrCrash semantics: no
// cleanup happens.
func TestCrashFailpointLeavesTxnActive(t *testing.T) {
	f := buildFixture(t, testConfig(), 1, 10)
	r := New(f.d, 1, Options{
		Mode: ModeIRA,
		Failpoint: func(p string) error {
			if p == "parents-locked" {
				return ErrCrash
			}
			return nil
		},
	})
	if err := r.Run(); !errors.Is(err, ErrCrash) {
		t.Fatalf("err = %v", err)
	}
	// The migration transaction is still registered (not aborted).
	if n := len(f.d.ActiveTxnIDs()); n == 0 {
		t.Fatal("crash failpoint cleaned up the in-flight transaction")
	}
	// The TRT is still attached.
	if _, ok := f.d.Analyzer().TRT(1); !ok {
		t.Fatal("crash failpoint detached the TRT")
	}
}

func TestFilterMigratesOnlySelectedObjects(t *testing.T) {
	f := buildFixture(t, testConfig(), 1, 20)
	sig := f.signature(t)
	before := f.partitionOIDs(t, 1)
	// Select half the objects.
	selected := map[oid.OID]bool{}
	i := 0
	for o := range before {
		if i%2 == 0 {
			selected[o] = true
		}
		i++
	}
	r := New(f.d, 1, Options{Mode: ModeIRA, Filter: func(o oid.OID) bool { return selected[o] }})
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if got := r.Stats().Migrated; got != len(selected) {
		t.Fatalf("Migrated = %d, want %d", got, len(selected))
	}
	after := f.partitionOIDs(t, 1)
	for o := range after {
		if selected[o] {
			t.Fatalf("selected object %v did not move", o)
		}
	}
	moved := 0
	for o := range before {
		if !after[o] {
			moved++
		}
	}
	if moved != len(selected) {
		t.Fatalf("%d objects moved, want %d", moved, len(selected))
	}
	f.verify(t, sig)
}

func TestFilterWithCollectGarbageRejected(t *testing.T) {
	f := buildFixture(t, testConfig(), 1, 5)
	r := New(f.d, 1, Options{
		Mode:           ModeIRA,
		Filter:         func(oid.OID) bool { return true },
		CollectGarbage: true,
	})
	if err := r.Run(); err == nil {
		t.Fatal("Filter+CollectGarbage accepted")
	}
}

// TestConcurrentReorgOfTwoPartitions runs two reorganizers on different
// partitions at the same time, with walkers active. Each partition's TRT
// catches the other reorganizer's parent rewrites crossing the boundary.
// It keeps the disk cell it stalled in (see CHANGES.md).
func TestConcurrentReorgOfTwoPartitions(t *testing.T) {
	testkit.Run(t, []testkit.Cell{{}, {Disk: true}}, testConcurrentReorgOfTwoPartitions)
}

func testConcurrentReorgOfTwoPartitions(t *testing.T, c testkit.Cell) {
	f := buildFixture(t, c.Config(t, testConfig()), 2, 40)
	sig := f.signature(t)
	w := &walker{}
	w.run(t, f, 6)
	time.Sleep(30 * time.Millisecond)

	errs := make(chan error, 2)
	for _, part := range []oid.PartitionID{1, 2} {
		go func(p oid.PartitionID) {
			r := New(f.d, p, Options{Mode: ModeIRA})
			err := r.Run()
			if err == nil && r.Stats().Migrated != 40 {
				err = fmt.Errorf("partition %d migrated %d objects", p, r.Stats().Migrated)
			}
			errs <- err
		}(part)
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	w.halt()
	f.verify(t, sig)
}

func TestTransformRewritesPayloadsDuringMigration(t *testing.T) {
	f := buildFixture(t, testConfig(), 1, 15)
	r := New(f.d, 1, Options{
		Mode: ModeIRA,
		Transform: func(o oid.OID, payload []byte) []byte {
			return append([]byte("v2|"), payload...)
		},
	})
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	// Every object in the partition carries the new prefix; references
	// are untouched (checker validates them).
	n := 0
	f.d.Store().ForEach(1, func(o oid.OID, _ []byte) bool {
		obj, err := f.d.FuzzyRead(o)
		if err != nil {
			t.Errorf("read %v: %v", o, err)
			return false
		}
		if string(obj.Payload[:3]) != "v2|" {
			t.Errorf("object %v not transformed: %q", o, obj.Payload[:8])
			return false
		}
		n++
		return true
	})
	if n != 15 {
		t.Fatalf("visited %d objects", n)
	}
	rep, err := check.Verify(f.d, f.roots)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestTransformTwoLock(t *testing.T) {
	f := buildFixture(t, testConfig(), 1, 10)
	r := New(f.d, 1, Options{
		Mode:      ModeIRATwoLock,
		Transform: func(o oid.OID, payload []byte) []byte { return append(payload, '!') },
	})
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	f.d.Store().ForEach(1, func(o oid.OID, _ []byte) bool {
		obj, _ := f.d.FuzzyRead(o)
		if obj.Payload[len(obj.Payload)-1] != '!' {
			t.Errorf("object %v not transformed", o)
			return false
		}
		return true
	})
}

// TestPQRBlocksPartitionEntry captures the §5.3.1 mechanism: while PQR
// holds the quiesce locks, a transaction trying to enter the partition
// through its persistent root times out, while a transaction touching
// only other partitions proceeds.
func TestPQRBlocksPartitionEntry(t *testing.T) {
	f := buildFixture(t, testConfig(), 2, 15)
	quiesced := make(chan struct{})
	release := make(chan struct{})
	r := New(f.d, 1, Options{Mode: ModePQR, Failpoint: func(p string) error {
		if p == "quiesced" {
			close(quiesced)
			<-release
		}
		return nil
	}})
	done := make(chan error, 1)
	go func() { done <- r.Run() }()
	select {
	case <-quiesced:
	case <-time.After(30 * time.Second):
		t.Fatal("PQR never quiesced")
	}

	// Partition 1's persistent root is locked: entry blocks.
	blocked, _ := f.d.Begin()
	if err := blocked.Lock(f.roots[0], lock.Shared); !errors.Is(err, lock.ErrTimeout) {
		t.Fatalf("walk into quiesced partition: %v", err)
	}
	blocked.Abort()
	// Partition 2 is open for business.
	open, _ := f.d.Begin()
	if err := open.Lock(f.roots[1], lock.Shared); err != nil {
		t.Fatalf("walk into other partition blocked: %v", err)
	}
	obj, err := open.Read(f.roots[1])
	if err != nil || len(obj.Refs) == 0 {
		t.Fatalf("read root: %v", err)
	}
	open.Commit()

	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	f.verify(t, nil)
}

// TestRelaxedTwoLockComposition exercises the paper's note that the §4.1
// and §4.2 extensions compose: short-duration-lock transactions with the
// two-lock migration discipline.
func TestRelaxedTwoLockComposition(t *testing.T) {
	cfg := testConfig()
	cfg.Strict2PL = false
	f := buildFixture(t, cfg, 2, 25)
	sig := f.signature(t)

	// Short-lock walkers: lock, read, unlock immediately.
	var stop atomic.Bool
	var wg sync.WaitGroup
	var commits atomic.Int64
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				tx, err := f.d.Begin()
				if err != nil {
					return
				}
				cur := f.roots[rng.Intn(len(f.roots))]
				ok := true
				for i := 0; i < 5; i++ {
					if err := tx.Lock(cur, lock.Shared); err != nil {
						ok = false
						break
					}
					obj, err := tx.Read(cur)
					if err != nil {
						ok = false
						break
					}
					tx.Unlock(cur) // short-duration lock (§4.1)
					if len(obj.Refs) == 0 {
						break
					}
					cur = obj.Refs[rng.Intn(len(obj.Refs))]
				}
				if ok && tx.Commit() == nil {
					commits.Add(1)
				} else if !ok {
					tx.Abort()
				}
			}
		}(int64(g))
	}
	time.Sleep(30 * time.Millisecond)

	r := New(f.d, 1, Options{Mode: ModeIRATwoLock, WaitTimeout: 10 * time.Second})
	err := r.Run()
	stop.Store(true)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats().Migrated != 25 {
		t.Fatalf("Migrated = %d", r.Stats().Migrated)
	}
	if commits.Load() == 0 {
		t.Fatal("no short-lock transactions committed")
	}
	f.verify(t, sig)
}

// TestMigrateLateCreations exercises the footnote-6 extension: an object
// created in the partition AFTER the reorganization started is migrated
// too (its parents are discovered purely through the TRT).
func TestMigrateLateCreations(t *testing.T) {
	for _, enabled := range []bool{true, false} {
		f := buildFixture(t, testConfig(), 1, 10)
		paused := make(chan struct{})
		release := make(chan struct{})
		plan := EvacuatePlan(9)
		f.d.CreatePartition(9)
		r := New(f.d, 1, Options{
			Mode:             ModeIRA,
			Plan:             &plan,
			MigrateCreations: enabled,
			Failpoint: func(p string) error {
				if p == "after-traversal" {
					close(paused)
					<-release
				}
				return nil
			},
		})
		done := make(chan error, 1)
		go func() { done <- r.Run() }()
		<-paused
		// Create a new object in the partition mid-reorganization,
		// reachable from a fresh partition-0 parent.
		tx, _ := f.d.Begin()
		late, err := tx.Create(1, []byte("late-created"), nil)
		if err != nil {
			t.Fatal(err)
		}
		lateParent, err := tx.Create(0, []byte("late-parent"), []oid.OID{late})
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		close(release)
		if err := <-done; err != nil {
			t.Fatal(err)
		}

		if enabled && f.d.OIDMap() != nil {
			// Logical mode: the identity survives, its BODY must have
			// moved into the evacuation target's store partition.
			if !f.d.Exists(late) {
				t.Fatal("late-created identity died during logical migration")
			}
			p, ok := f.d.OIDMap().Resolve(late)
			if !ok || p.Partition() != 9 {
				t.Fatalf("late-created body at %v (ok=%v), want store partition 9", p, ok)
			}
			obj, err := f.d.FuzzyRead(lateParent)
			if err != nil {
				t.Fatal(err)
			}
			if obj.Refs[0] != late {
				t.Fatalf("late parent's reference changed to %v; logical identities must be stable", obj.Refs[0])
			}
		} else if enabled {
			if f.d.Exists(late) {
				t.Fatal("late-created object not migrated with MigrateCreations on")
			}
			obj, err := f.d.FuzzyRead(lateParent)
			if err != nil {
				t.Fatal(err)
			}
			if obj.Refs[0].Partition() != 9 {
				t.Fatalf("late parent points at %v, want partition 9", obj.Refs[0])
			}
			copyObj, err := f.d.FuzzyRead(obj.Refs[0])
			if err != nil || string(copyObj.Payload) != "late-created" {
				t.Fatalf("migrated copy wrong: %v %v", copyObj, err)
			}
		} else {
			if !f.d.Exists(late) {
				t.Fatal("late-created object vanished with MigrateCreations off")
			}
		}
		// Either way the database must be consistent.
		rep, err := check.Verify(f.d, append(f.roots, lateParent))
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.Err(); err != nil {
			t.Fatalf("enabled=%v: %v", enabled, err)
		}
	}
}
