package reorg

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/check"
	"repro/internal/db"
	"repro/internal/metrics"
	"repro/internal/oid"
	"repro/internal/testkit"
)

// TestSchedulerStressUnderLoad is the headline stress test: a worker pool
// reorganizes 10 partitions at once while 16 random-walk transactions
// hammer the same graph. Must pass under -race.
func TestSchedulerStressUnderLoad(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mode    Mode
		batch   int
		workers int
	}{
		{"IRA/workers=8", ModeIRA, 2, 8},
		{"TwoLock/workers=4", ModeIRATwoLock, 1, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const parts, clusterSize = 10, 20
			f := buildFixture(t, testConfig(), parts, clusterSize)
			sig := f.signature(t)
			w := &walker{}
			w.run(t, f, 16)
			time.Sleep(30 * time.Millisecond)

			var list []oid.PartitionID
			for p := 1; p <= parts; p++ {
				list = append(list, oid.PartitionID(p))
			}
			fleet := metrics.NewFleetRecorder(tc.workers)
			s, err := NewScheduler(f.d, list, FleetOptions{
				Workers: tc.workers,
				Reorg:   Options{Mode: tc.mode, BatchSize: tc.batch},
				Fleet:   fleet,
			})
			if err != nil {
				t.Fatal(err)
			}
			err = s.Run()
			time.Sleep(30 * time.Millisecond) // walkers must survive the fleet
			w.halt()
			if err != nil {
				t.Fatal(err)
			}

			st := s.Stats()
			if st.Done != parts || st.Failed != 0 || st.Pending != 0 {
				t.Fatalf("fleet status: %+v", st)
			}
			if st.Migrated != parts*clusterSize {
				t.Fatalf("Migrated = %d, want %d", st.Migrated, parts*clusterSize)
			}
			for p, ps := range st.PerPartition {
				if ps.Migrated != clusterSize {
					t.Fatalf("partition %d migrated %d objects", p, ps.Migrated)
				}
			}
			tot := fleet.Totals()
			if tot.Partitions != parts || tot.Migrated != parts*clusterSize {
				t.Fatalf("fleet recorder totals: %+v", tot)
			}
			if tot.Attempts < tot.Migrated {
				t.Fatalf("Attempts %d < Migrated %d", tot.Attempts, tot.Migrated)
			}
			if w.commits.Load() == 0 {
				t.Fatal("no transactions committed during the fleet")
			}
			f.verify(t, sig)
			for _, p := range list {
				if _, ok := f.d.Analyzer().TRT(p); ok {
					t.Fatalf("TRT still attached for partition %d", p)
				}
			}
		})
	}
}

// TestSchedulerTwoLockBoundedLockFootprint asserts the fleet-wide lock
// bound: in two-lock mode no worker ever holds more than 3 lock entries
// (old + new object address + one parent), so the fleet's footprint is
// bounded by workers × 3 regardless of graph shape.
func TestSchedulerTwoLockBoundedLockFootprint(t *testing.T) {
	f := buildFixture(t, testConfig(), 6, 15)
	var list []oid.PartitionID
	for p := 1; p <= 6; p++ {
		list = append(list, oid.PartitionID(p))
	}
	s, err := NewScheduler(f.d, list, FleetOptions{
		Workers: 3,
		Reorg:   Options{Mode: ModeIRATwoLock},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.MaxWorkerLocks == 0 || st.MaxWorkerLocks > 3 {
		t.Fatalf("MaxWorkerLocks = %d, want 1..3", st.MaxWorkerLocks)
	}
	f.verify(t, nil)
}

// TestSchedulerPauseResume pauses the fleet before its first migration,
// checks nothing moves while paused, then resumes and waits for
// completion. Pausing before Run makes the test deterministic: the gate
// precedes every migration.
func TestSchedulerPauseResume(t *testing.T) {
	f := buildFixture(t, testConfig(), 4, 10)
	sig := f.signature(t)
	fleet := metrics.NewFleetRecorder(2)
	s, err := NewScheduler(f.d, []oid.PartitionID{1, 2, 3, 4}, FleetOptions{
		Workers: 2,
		Reorg:   Options{Mode: ModeIRA},
		Fleet:   fleet,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Pause()
	done := make(chan error, 1)
	go func() { done <- s.Run() }()

	time.Sleep(100 * time.Millisecond)
	select {
	case err := <-done:
		t.Fatalf("fleet finished while paused: %v", err)
	default:
	}
	if got := fleet.Totals().Attempts; got != 0 {
		t.Fatalf("%d migrations attempted while paused", got)
	}
	if st := s.Stats(); st.Done != 0 {
		t.Fatalf("%d partitions done while paused", st.Done)
	}

	s.Resume()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("fleet stuck after resume")
	}
	if st := s.Stats(); st.Done != 4 || st.Migrated != 40 {
		t.Fatalf("after resume: %+v", st)
	}
	f.verify(t, sig)
}

// TestSchedulerStopAbortsCleanly stops a paused fleet: workers abort at
// the gate, roll back in-flight work, detach TRTs, and unstarted
// partitions are marked failed with ErrStopped.
func TestSchedulerStopAbortsCleanly(t *testing.T) {
	f := buildFixture(t, testConfig(), 4, 10)
	sig := f.signature(t)
	s, err := NewScheduler(f.d, []oid.PartitionID{1, 2, 3, 4}, FleetOptions{
		Workers: 2,
		Reorg:   Options{Mode: ModeIRA},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Pause()
	done := make(chan error, 1)
	go func() { done <- s.Run() }()
	time.Sleep(50 * time.Millisecond)
	s.Stop()
	var runErr error
	select {
	case runErr = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("fleet did not stop")
	}
	if !errors.Is(runErr, ErrStopped) {
		t.Fatalf("Run error = %v, want ErrStopped", runErr)
	}
	// A deliberate stop is distinguishable from a real failure: the
	// server's drain path matches ErrFleetStopped, which ErrQuiesced
	// (device failure) must never satisfy.
	if !errors.Is(runErr, ErrFleetStopped) {
		t.Fatalf("Run error = %v, want to match ErrFleetStopped", runErr)
	}
	if errors.Is(ErrQuiesced, ErrFleetStopped) {
		t.Fatal("ErrQuiesced must not match ErrFleetStopped")
	}
	for p, ferr := range s.Failures() {
		if !errors.Is(ferr, ErrStopped) {
			t.Fatalf("partition %d failed with %v", p, ferr)
		}
	}
	// Clean abort: no lingering reorg transactions, no TRTs, graph intact.
	if n := len(f.d.ActiveTxnIDs()); n != 0 {
		t.Fatalf("%d transactions still active after Stop", n)
	}
	for p := 1; p <= 4; p++ {
		if _, ok := f.d.Analyzer().TRT(oid.PartitionID(p)); ok {
			t.Fatalf("TRT still attached for partition %d", p)
		}
	}
	f.verify(t, sig)
}

// TestSchedulerCrossPartitionMutualRefs is the deterministic cross-
// partition hazard test: every object in partition 1 references its twin
// in partition 2 and vice versa, and the two partitions are reorganized
// concurrently — each worker's parent fix-ups land in objects the other
// worker is migrating. Repeated rounds re-run the race on the already-
// migrated graph. Afterwards: no dangling reference, ERT exact, graph
// signature unchanged.
func TestSchedulerCrossPartitionMutualRefs(t *testing.T) {
	for _, mode := range []Mode{ModeIRA, ModeIRATwoLock} {
		t.Run(mode.String(), func(t *testing.T) {
			const pairs = 25
			d := db.Open(testConfig())
			defer d.Close()
			for _, p := range []oid.PartitionID{0, 1, 2} {
				if err := d.CreatePartition(p); err != nil {
					t.Fatal(err)
				}
			}
			tx, err := d.Begin()
			if err != nil {
				t.Fatal(err)
			}
			var as []oid.OID
			for i := 0; i < pairs; i++ {
				a, err := tx.Create(1, []byte(fmt.Sprintf("a%d", i)), nil)
				if err != nil {
					t.Fatal(err)
				}
				b, err := tx.Create(2, []byte(fmt.Sprintf("b%d", i)), []oid.OID{a})
				if err != nil {
					t.Fatal(err)
				}
				if err := tx.InsertRef(a, b); err != nil {
					t.Fatal(err)
				}
				as = append(as, a)
			}
			root, err := tx.Create(0, []byte("root"), as)
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			roots := []oid.OID{root}
			sig, err := check.Signature(d, roots)
			if err != nil {
				t.Fatal(err)
			}

			for round := 0; round < 3; round++ {
				s, err := NewScheduler(d, []oid.PartitionID{1, 2}, FleetOptions{
					Workers: 2,
					Reorg:   Options{Mode: mode},
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Run(); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				st := s.Stats()
				if st.Migrated != 2*pairs {
					t.Fatalf("round %d: Migrated = %d, want %d", round, st.Migrated, 2*pairs)
				}
				rep, err := check.Verify(d, roots)
				if err != nil {
					t.Fatal(err)
				}
				if err := rep.Err(); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				after, err := check.Signature(d, roots)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(sig, after) {
					t.Fatalf("round %d changed the graph", round)
				}
			}
		})
	}
}

// buildSeededDB builds a deterministic multi-partition graph — same
// shape as buildFixture but parameterized by seed, so two calls with the
// same seed produce identical databases.
func buildSeededDB(t *testing.T, c testkit.Cell, seed int64, parts, clusterSize int) (*db.Database, []oid.OID) {
	t.Helper()
	d := db.Open(c.Config(t, testConfig()))
	t.Cleanup(d.Close)
	for p := 0; p <= parts; p++ {
		if err := d.CreatePartition(oid.PartitionID(p)); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	tx, err := d.Begin()
	if err != nil {
		t.Fatal(err)
	}
	var roots, everywhere []oid.OID
	for p := 1; p <= parts; p++ {
		var nodes []oid.OID
		for i := 0; i < clusterSize; i++ {
			o, err := tx.Create(oid.PartitionID(p), []byte(fmt.Sprintf("s%d-p%d-n%d", seed, p, i)), nil)
			if err != nil {
				t.Fatal(err)
			}
			nodes = append(nodes, o)
			everywhere = append(everywhere, o)
			if i > 0 {
				if err := tx.InsertRef(nodes[(i-1)/2], o); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, n := range nodes {
			target := everywhere[rng.Intn(len(everywhere))]
			if target != n {
				if err := tx.InsertRef(n, target); err != nil {
					t.Fatal(err)
				}
			}
		}
		root, err := tx.Create(0, []byte(fmt.Sprintf("root-p%d", p)), []oid.OID{nodes[0]})
		if err != nil {
			t.Fatal(err)
		}
		roots = append(roots, root)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return d, roots
}

// TestSchedulerPropertyMatchesSerial is the testing/quick property: for
// any partition subset and worker count, the scheduler migrates exactly
// what a serial per-partition IRA migrates — same traversed counts per
// partition, every object moved exactly once, no partition skipped, and
// the same final graph. It runs in each pairwise cell of the
// configuration matrix.
func TestSchedulerPropertyMatchesSerial(t *testing.T) {
	testkit.Run(t, testkit.Pairwise, testSchedulerMatchesSerial)
}

func testSchedulerMatchesSerial(t *testing.T, c testkit.Cell) {
	const parts, clusterSize = 4, 8
	prop := func(seed int64, mask, workersRaw uint8) bool {
		var subset []oid.PartitionID
		for p := 1; p <= parts; p++ {
			if mask&(1<<(p-1)) != 0 {
				subset = append(subset, oid.PartitionID(p))
			}
		}
		if len(subset) == 0 {
			subset = []oid.PartitionID{1}
		}
		workers := int(workersRaw)%4 + 1

		d1, roots1 := buildSeededDB(t, c, seed, parts, clusterSize)
		d2, roots2 := buildSeededDB(t, c, seed, parts, clusterSize)
		sigBefore, err := check.Signature(d1, roots1)
		if err != nil {
			t.Fatal(err)
		}

		// Serial reference run.
		serial := make(map[oid.PartitionID]Stats, len(subset))
		for _, p := range subset {
			r := New(d1, p, Options{Mode: ModeIRA})
			if err := r.Run(); err != nil {
				t.Fatalf("serial partition %d: %v", p, err)
			}
			serial[p] = r.Stats()
		}

		// Scheduler run over the same subset.
		s, err := NewScheduler(d2, subset, FleetOptions{
			Workers: workers,
			Reorg:   Options{Mode: ModeIRA},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(); err != nil {
			t.Fatalf("fleet (workers=%d): %v", workers, err)
		}
		st := s.Stats()

		// No partition skipped, and per-partition work identical.
		if len(st.PerPartition) != len(subset) {
			t.Logf("fleet covered %d partitions, want %d", len(st.PerPartition), len(subset))
			return false
		}
		for _, p := range subset {
			ps, ok := st.PerPartition[p]
			if !ok {
				t.Logf("partition %d skipped", p)
				return false
			}
			if ps.Traversed != serial[p].Traversed || ps.Migrated != serial[p].Migrated {
				t.Logf("partition %d: fleet traversed/migrated %d/%d, serial %d/%d",
					p, ps.Traversed, ps.Migrated, serial[p].Traversed, serial[p].Migrated)
				return false
			}
			// Exactly-once: every live object of the partition moved, and
			// the partition holds exactly its cluster again afterwards.
			if ps.Migrated != clusterSize {
				t.Logf("partition %d migrated %d, want %d", p, ps.Migrated, clusterSize)
				return false
			}
		}

		// Same final graph on both databases, unchanged from the start.
		for _, pair := range []struct {
			d     *db.Database
			roots []oid.OID
		}{{d1, roots1}, {d2, roots2}} {
			rep, err := check.Verify(pair.d, pair.roots)
			if err != nil {
				t.Fatal(err)
			}
			if err := rep.Err(); err != nil {
				t.Logf("checker: %v", err)
				return false
			}
			sig, err := check.Signature(pair.d, pair.roots)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(sig, sigBefore) {
				t.Log("graph signature changed")
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 12,
		Rand:     rand.New(rand.NewSource(7)),
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestSchedulerValidation covers constructor and lifecycle errors.
func TestSchedulerValidation(t *testing.T) {
	f := buildFixture(t, testConfig(), 2, 5)
	if _, err := NewScheduler(f.d, nil, FleetOptions{}); err == nil {
		t.Fatal("empty partition list accepted")
	}
	if _, err := NewScheduler(f.d, []oid.PartitionID{1, 2, 1}, FleetOptions{}); err == nil {
		t.Fatal("duplicate partition accepted")
	}
	s, err := NewScheduler(f.d, []oid.PartitionID{1, 2}, FleetOptions{Workers: 16})
	if err != nil {
		t.Fatal(err)
	}
	if s.Workers() != 2 {
		t.Fatalf("Workers() = %d, want clamp to 2", s.Workers())
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err == nil {
		t.Fatal("second Run accepted")
	}
}

// TestSchedulerStatesRetained checks that the scheduler keeps the latest
// checkpoint per partition — the inputs a resume after a crash needs.
func TestSchedulerStatesRetained(t *testing.T) {
	f := buildFixture(t, testConfig(), 3, 10)
	s, err := NewScheduler(f.d, []oid.PartitionID{1, 2, 3}, FleetOptions{
		Workers: 2,
		Reorg:   Options{Mode: ModeIRA, CheckpointEvery: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	states := s.States()
	if len(states) != 3 {
		t.Fatalf("retained %d states, want 3", len(states))
	}
	for p, st := range states {
		if st.Part != p {
			t.Fatalf("state for partition %d tagged %d", p, st.Part)
		}
		if len(st.Migrated) != 10 {
			t.Fatalf("partition %d final state has %d migrations", p, len(st.Migrated))
		}
	}
}
