package query

// The three-way race cell: analytic traversals racing the MPL point
// workload racing a full reorganization fleet, on one database. The
// workload preserves payloads (updates rewrite the same bytes) and
// reachability (ref churn only re-glues edges to visited objects), so
// every committed full traversal must return the same payload multiset
// as a quiescent baseline — while every address underneath it churns.
//
// The cell runs in each pairwise cell of the configuration matrix, so
// the race detector sees memory/disk × physical/logical ×
// fidelity/hardware.

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/db"
	"repro/internal/metrics"
	"repro/internal/oid"
	"repro/internal/reorg"
	"repro/internal/testkit"
	"repro/internal/workload"
)

func TestTraversalRaceWorkloadAndFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("race cell needs a few seconds of sustained contention")
	}
	testkit.Run(t, testkit.Pairwise, testTraversalRace)
}

func testTraversalRace(t *testing.T, c testkit.Cell) {
	p := c.Params(workload.DefaultParams())
	p.NumPartitions = 4
	p.ObjectsPerPartition = 255
	p.MPL = 4
	p.Seed = 42
	cfg := db.DefaultConfig()
	cfg.FlushLatency = 0
	cfg.LockTimeout = 150 * time.Millisecond
	w, err := workload.Build(c.Config(t, cfg), p)
	if err != nil {
		t.Fatal(err)
	}
	defer w.DB.Close()

	baselineQuery := func(budget int) (*Result, error) {
		return Run(w.DB, Options{MaxRestarts: budget}, func(e *Exec) (Operator, error) {
			return NewFollowRefs(w.Roots(), -1), nil
		})
	}
	base, err := baselineQuery(5)
	if err != nil {
		t.Fatal(err)
	}
	want := Multiset(Payloads(base.Rows))
	if len(base.Rows) != p.NumPartitions*p.ObjectsPerPartition+len(w.Roots()) {
		t.Fatalf("baseline traversal saw %d objects, want %d",
			len(base.Rows), p.NumPartitions*p.ObjectsPerPartition+len(w.Roots()))
	}

	driver := workload.NewDriver(w, metrics.NewRecorder())
	driver.Start()

	var parts []oid.PartitionID
	for pt := 1; pt <= p.NumPartitions; pt++ {
		parts = append(parts, oid.PartitionID(pt))
	}
	s, err := reorg.NewScheduler(w.DB, parts, reorg.FleetOptions{
		Workers: 2,
		Reorg: reorg.Options{
			Mode:       reorg.ModeIRA,
			BatchSize:  8,
			MaxRetries: 5000,
			// The §4.5 pre-start wait must outlast a full traversal: a
			// query S-locks every object it returns, and one that loses a
			// lock race only aborts after a LockTimeout of queueing.
			WaitTimeout: 3 * time.Second,
		},
	})
	if err != nil {
		driver.Stop()
		t.Fatal(err)
	}
	fleetDone := make(chan error, 1)
	go func() { fleetDone <- s.Run() }()

	// Query workers: full traversals until the fleet finishes. Restart
	// exhaustion under this much contention is a liveness hiccup, not a
	// failure — but any committed traversal with the wrong multiset is.
	var (
		committed  atomic.Int64
		exhausted  atomic.Int64
		mismatchMu sync.Mutex
		mismatch   error
		stop       = make(chan struct{})
		wg         sync.WaitGroup
	)
	for qi := 0; qi < 2; qi++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := baselineQuery(30)
				if err != nil {
					if errors.Is(err, ErrRestartsExhausted) {
						exhausted.Add(1)
						continue
					}
					mismatchMu.Lock()
					if mismatch == nil {
						mismatch = err
					}
					mismatchMu.Unlock()
					return
				}
				committed.Add(1)
				got := Multiset(Payloads(res.Rows))
				if len(got) != len(want) {
					mismatchMu.Lock()
					if mismatch == nil {
						mismatch = errors.New("committed traversal returned a drifted payload multiset")
					}
					mismatchMu.Unlock()
					return
				}
				for s, n := range want {
					if got[s] != n {
						mismatchMu.Lock()
						if mismatch == nil {
							mismatch = errors.New("committed traversal dropped or duplicated payload " + s)
						}
						mismatchMu.Unlock()
						return
					}
				}
				time.Sleep(5 * time.Millisecond)
			}
		}()
	}

	fleetErr := <-fleetDone
	close(stop)
	wg.Wait()
	driver.Stop()
	if fleetErr != nil {
		t.Fatalf("fleet failed under query+workload load: %v (failures: %v)", fleetErr, s.Failures())
	}
	if mismatch != nil {
		t.Fatal(mismatch)
	}
	// After the dust settles every traversal must still agree.
	res, err := baselineQuery(10)
	if err != nil {
		t.Fatal(err)
	}
	got := Multiset(Payloads(res.Rows))
	for s, n := range want {
		if got[s] != n {
			t.Fatalf("post-fleet traversal lost payload %s (want %d, got %d)", s, n, got[s])
		}
	}
	t.Logf("race cell: %d committed traversals, %d exhausted budgets during the fleet", committed.Load(), exhausted.Load())
}
