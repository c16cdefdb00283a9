package reorg

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/fault"
	"repro/internal/oid"
	"repro/internal/testkit"
	"repro/internal/wal"
)

// TestSchedulerQuiescesOnDeviceFailure: when the log device dies
// mid-fleet, the worker that hits wal.ErrDeviceFailed must stop the
// whole fleet cleanly — remaining partitions fail with ErrQuiesced,
// in-flight batches roll back (the database stays consistent), and
// nothing panics or hangs. It keeps the disk cell it failed in (see
// ROADMAP.md).
func TestSchedulerQuiescesOnDeviceFailure(t *testing.T) {
	testkit.Run(t, []testkit.Cell{{}, {Disk: true}}, testSchedulerQuiescesOnDeviceFailure)
}

func testSchedulerQuiescesOnDeviceFailure(t *testing.T, c testkit.Cell) {
	f := buildFixture(t, c.Config(t, testConfig()), 6, 16)
	sig := f.signature(t)

	var once sync.Once
	failed := make(chan struct{})
	parts := []oid.PartitionID{1, 2, 3, 4, 5, 6}
	s, err := NewScheduler(f.d, parts, FleetOptions{
		Workers: 2,
		Reorg:   Options{Mode: ModeIRA, BatchSize: 2, CheckpointEvery: 1},
		Configure: func(p oid.PartitionID, o *Options) {
			o.Failpoint = func(point string) error {
				if point != "batch-done" {
					return nil
				}
				if p == 1 {
					// The log medium dies under the fleet.
					once.Do(func() {
						f.d.Log().Fail(errors.New("medium gone"))
						close(failed)
					})
				}
				// The other worker's partition waits at a batch boundary,
				// where it holds no locks, until the medium is gone, so
				// partitions are still queued when it dies: the fleet
				// cannot finish them all first on any schedule. The bound
				// only keeps a partition 1 that failed early from hanging
				// the test.
				select {
				case <-failed:
				case <-time.After(10 * time.Second):
				}
				return nil
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err == nil {
		t.Fatal("fleet succeeded over a dead log device")
	}

	failures := s.Failures()
	if len(failures) == 0 {
		t.Fatal("no failures recorded")
	}
	quiesced := 0
	for p, ferr := range failures {
		switch {
		case errors.Is(ferr, ErrQuiesced):
			quiesced++
		case errors.Is(ferr, wal.ErrDeviceFailed):
			// The worker that hit the device directly.
		default:
			t.Fatalf("partition %d failed with unexpected error: %v", p, ferr)
		}
	}
	if quiesced == 0 {
		t.Fatalf("no partition quiesced; failures: %v", failures)
	}

	// Graceful degradation: every in-flight batch rolled back, so the
	// object graph is exactly the committed prefix — consistent and
	// signature-preserving.
	rep, err := check.Verify(f.d, f.roots)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("database inconsistent after quiesce: %v", err)
	}
	f.verify(t, sig)
}

// TestSchedulerQuiesceViaInjectedWALError: same property driven end to
// end through the fault registry and a real file device — injected
// write errors exhaust the retry budget, the device latches failed,
// commits surface wal.ErrDeviceFailed, and the fleet quiesces.
func TestSchedulerQuiesceViaInjectedWALError(t *testing.T) {
	cfg := testConfig()
	cfg.LogDir = t.TempDir()
	f := buildFixture(t, cfg, 4, 12)
	f.d.LogDevice().SetRetryPolicy(2, 0)

	reg := fault.NewRegistry(42)
	// Let the fixture's own commits through; kill writes from hit 1 on
	// (the fixture committed before Install, so hits start here).
	reg.Arm(fault.Trigger{Point: fault.WALWrite, Kind: fault.KindError, Hit: 1, Times: fault.Forever})
	restore := fault.Install(reg)
	defer restore()

	s, err := NewScheduler(f.d, []oid.PartitionID{1, 2, 3, 4}, FleetOptions{
		Workers: 2,
		Reorg:   Options{Mode: ModeIRA, BatchSize: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err == nil {
		t.Fatal("fleet succeeded with every WAL write failing")
	}
	sawDevice := false
	for p, ferr := range s.Failures() {
		if !errors.Is(ferr, wal.ErrDeviceFailed) && !errors.Is(ferr, ErrQuiesced) {
			t.Fatalf("partition %d: unexpected failure %v", p, ferr)
		}
		if errors.Is(ferr, wal.ErrDeviceFailed) {
			sawDevice = true
		}
	}
	if !sawDevice {
		t.Fatal("no partition surfaced the device failure")
	}
	if f.d.LogDevice().Failed() == nil {
		t.Fatal("device did not latch failed")
	}
}
