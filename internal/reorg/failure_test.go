package reorg

import (
	"errors"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/oid"
	"repro/internal/recovery"
)

// crashHarness runs a reorganization that crashes at the given failpoint,
// performs ARIES restart recovery, resumes the reorganization from its
// last checkpoint, and verifies full consistency and graph preservation.
func crashHarness(t *testing.T, mode Mode, crashAt string, batch int) {
	t.Helper()
	f := buildFixture(t, testConfig(), 2, 25)
	sig := f.signature(t)

	// Durable base image: checkpoint before the reorganization starts.
	ckpt, err := f.d.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	var lastState *State
	fired := false
	r := New(f.d, 1, Options{
		Mode:            mode,
		BatchSize:       batch,
		CheckpointEvery: 5,
		OnCheckpoint:    func(s *State) { lastState = s },
		Failpoint: func(p string) error {
			if p == crashAt && !fired {
				fired = true
				return ErrCrash
			}
			return nil
		},
	})
	err = r.Run()
	if !fired {
		t.Fatalf("failpoint %q never fired", crashAt)
	}
	if !errors.Is(err, ErrCrash) {
		t.Fatalf("Run() = %v, want ErrCrash", err)
	}

	// Crash: capture the durable image, discard the database, recover
	// with the same config the crashed instance ran (the mode pin must
	// survive the restart).
	img := recovery.CaptureImage(f.d, ckpt)
	f.d.Close()
	d2, err := recovery.Recover(img, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	f2 := &fixture{d: d2, roots: f.roots}

	// The recovered database must be consistent already (interrupted
	// migrations rolled back; completed ones intact) — allowing for the
	// §4.2 mixed state where both copies of an in-flight two-lock
	// migration exist (resolved by the resumed reorganizer below).
	rep, err := check.Verify(d2, f.roots)
	if err != nil {
		t.Fatal(err)
	}
	if cerr := rep.Err(); cerr != nil && mode != ModeIRATwoLock {
		t.Fatalf("recovered database inconsistent: %v", cerr)
	}

	// Resume from the reorganizer's last state checkpoint, if any was
	// taken before the crash; otherwise restart from scratch (the §4.4
	// "started afresh" path).
	var r2 *Reorganizer
	if lastState != nil {
		r2, err = Resume(d2, lastState, img.Records, Options{Mode: mode, BatchSize: batch})
		if err != nil {
			t.Fatal(err)
		}
	} else {
		r2 = New(d2, 1, Options{Mode: mode, BatchSize: batch})
	}
	if err := r2.Run(); err != nil {
		t.Fatal(err)
	}
	f2.verify(t, sig)
	// Everything must have ended up migrated across the two runs.
	if got := len(f2.partitionOIDs(t, 1)); got != 25 {
		t.Fatalf("partition holds %d objects after resume, want 25", got)
	}
}

func TestCrashAfterTraversalThenResume(t *testing.T) {
	crashHarness(t, ModeIRA, "after-traversal", 1)
}

func TestCrashMidMigrationThenResume(t *testing.T) {
	crashHarness(t, ModeIRA, "parents-locked", 1)
}

func TestCrashBeforeBatchCommitThenResume(t *testing.T) {
	crashHarness(t, ModeIRA, "before-batch-commit", 4)
}

func TestCrashTwoLockInFlightThenResume(t *testing.T) {
	crashHarness(t, ModeIRATwoLock, "twolock-inflight", 1)
}

func TestCrashTwoLockParentsDoneThenResume(t *testing.T) {
	crashHarness(t, ModeIRATwoLock, "twolock-parents-done", 1)
}

func TestCrashPQRQuiescedThenRestart(t *testing.T) {
	// PQR has no incremental progress worth resuming: the whole
	// reorganization is one transaction, so recovery rolls it back and a
	// full restart redoes it.
	f := buildFixture(t, testConfig(), 2, 20)
	sig := f.signature(t)
	ckpt, _ := f.d.Checkpoint()
	fired := false
	r := New(f.d, 1, Options{Mode: ModePQR, Failpoint: func(p string) error {
		if p == "quiesced" {
			fired = true
			return ErrCrash
		}
		return nil
	}})
	if err := r.Run(); !errors.Is(err, ErrCrash) {
		t.Fatalf("Run() = %v", err)
	}
	if !fired {
		t.Fatal("failpoint never fired")
	}
	img := recovery.CaptureImage(f.d, ckpt)
	f.d.Close()
	d2, err := recovery.Recover(img, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	f2 := &fixture{d: d2, roots: f.roots}
	f2.verify(t, sig) // rollback left everything consistent
	r2 := New(d2, 1, Options{Mode: ModePQR})
	if err := r2.Run(); err != nil {
		t.Fatal(err)
	}
	f2.verify(t, sig)
}

// TestResumeWithoutCheckpointRestartsCleanly covers the §4.4 fallback: if
// the traversal state was lost, the reorganization simply starts afresh
// for the objects not yet migrated.
func TestRestartAfreshAfterPartialMigration(t *testing.T) {
	f := buildFixture(t, testConfig(), 2, 25)
	sig := f.signature(t)
	ckpt, _ := f.d.Checkpoint()

	// Crash after roughly half the objects have migrated (each in its
	// own committed transaction).
	count := 0
	r := New(f.d, 1, Options{Mode: ModeIRA, Failpoint: func(p string) error {
		if p == "parents-locked" {
			count++
			if count > 12 {
				return ErrCrash
			}
		}
		return nil
	}})
	if err := r.Run(); !errors.Is(err, ErrCrash) {
		t.Fatalf("Run() = %v", err)
	}
	img := recovery.CaptureImage(f.d, ckpt)
	f.d.Close()
	d2, err := recovery.Recover(img, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	f2 := &fixture{d: d2, roots: f.roots}
	f2.verify(t, sig)

	// Start afresh with no saved state: the already-migrated objects are
	// simply treated as ordinary objects and migrated again (correct,
	// just more work — exactly the trade-off §4.4 describes).
	r2 := New(d2, 1, Options{Mode: ModeIRA})
	if err := r2.Run(); err != nil {
		t.Fatal(err)
	}
	f2.verify(t, sig)
	if got := len(f2.partitionOIDs(t, 1)); got != 25 {
		t.Fatalf("partition holds %d objects, want 25", got)
	}
}

// TestResumeSkipsCommittedMigrations asserts the resume path does not
// redo work: objects whose migration committed before the crash are not
// migrated again.
func TestResumeSkipsCommittedMigrations(t *testing.T) {
	f := buildFixture(t, testConfig(), 2, 25)
	ckpt, _ := f.d.Checkpoint()
	var lastState *State
	count := 0
	r := New(f.d, 1, Options{
		Mode:            ModeIRA,
		CheckpointEvery: 1,
		OnCheckpoint:    func(s *State) { lastState = s },
		Failpoint: func(p string) error {
			if p == "parents-locked" {
				count++
				if count > 10 {
					return ErrCrash
				}
			}
			return nil
		},
	})
	if err := r.Run(); !errors.Is(err, ErrCrash) {
		t.Fatalf("Run() = %v", err)
	}
	img := recovery.CaptureImage(f.d, ckpt)
	f.d.Close()
	d2, err := recovery.Recover(img, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	r2, err := Resume(d2, lastState, img.Records, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.Run(); err != nil {
		t.Fatal(err)
	}
	// The checkpoint recorded some migrations; the resume run must have
	// migrated only the remainder.
	if prior := len(lastState.Migrated); prior == 0 {
		t.Fatal("no migrations recorded in checkpoint")
	} else if r2.Stats().Migrated > 25-prior {
		t.Fatalf("resume migrated %d objects, checkpoint already had %d of 25",
			r2.Stats().Migrated, prior)
	}
}

// fleetCrashHarness kills one scheduler worker mid-migration at the
// given failpoint (injected only into the victim partition via
// Configure), lets the surviving workers drain the queue, performs ARIES
// restart recovery, resumes the unfinished partitions as a second fleet
// from their checkpointed states, and verifies full consistency.
func fleetCrashHarness(t *testing.T, mode Mode, crashAt string, batch int) {
	t.Helper()
	const parts, clusterSize = 5, 25
	victim := oid.PartitionID(3)
	f := buildFixture(t, testConfig(), parts, clusterSize)
	sig := f.signature(t)
	ckpt, err := f.d.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	var list []oid.PartitionID
	for p := 1; p <= parts; p++ {
		list = append(list, oid.PartitionID(p))
	}
	var fired atomic.Bool
	s, err := NewScheduler(f.d, list, FleetOptions{
		Workers: 2,
		// Low MaxRetries and WaitTimeout: a surviving worker wedged on
		// locks — or on the §4.5 pre-start wait for — the crashed worker's
		// dead transaction must fail fast (it is resumed after restart)
		// instead of waiting out the full default timeouts.
		Reorg: Options{
			Mode:            mode,
			BatchSize:       batch,
			MaxRetries:      25,
			WaitTimeout:     500 * time.Millisecond,
			CheckpointEvery: 5,
		},
		Configure: func(p oid.PartitionID, o *Options) {
			if p == victim {
				o.Failpoint = func(pt string) error {
					if pt == crashAt && fired.CompareAndSwap(false, true) {
						return ErrCrash
					}
					return nil
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	runErr := s.Run()
	if !fired.Load() {
		t.Fatalf("failpoint %q never fired", crashAt)
	}
	if runErr == nil {
		t.Fatal("fleet reported success despite a crashed worker")
	}
	failures := s.Failures()
	if !errors.Is(failures[victim], ErrCrash) {
		t.Fatalf("victim partition error = %v, want ErrCrash", failures[victim])
	}
	if crashAt == "batch-done" {
		// A clean crash point holds no locks, so the dead worker cannot
		// wedge its siblings: every other partition must have completed.
		if len(failures) != 1 {
			t.Fatalf("clean crash point: failures = %v, want only partition %d", failures, victim)
		}
		if st := s.Stats(); st.Done != parts-1 {
			t.Fatalf("Done = %d, want %d", st.Done, parts-1)
		}
	}
	states := s.States()

	// ARIES restart from the durable image, then a second fleet over
	// exactly the unfinished partitions, resuming from their checkpoints.
	img := recovery.CaptureImage(f.d, ckpt)
	f.d.Close()
	d2, err := recovery.Recover(img, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	f2 := &fixture{d: d2, roots: f.roots}

	var redo []oid.PartitionID
	resume := make(map[oid.PartitionID]*State)
	for p := range failures {
		redo = append(redo, p)
		if st := states[p]; st != nil {
			resume[p] = st
		}
	}
	sort.Slice(redo, func(i, j int) bool { return redo[i] < redo[j] })
	s2, err := NewScheduler(d2, redo, FleetOptions{
		Workers:      2,
		Reorg:        Options{Mode: mode, BatchSize: batch},
		ResumeStates: resume,
		Records:      img.Records,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Run(); err != nil {
		t.Fatalf("resumed fleet: %v", err)
	}
	if crashAt == "batch-done" {
		// The victim's checkpoint recorded its committed batches; the
		// resumed fleet must migrate only the remainder, not redo them.
		prior := len(resume[victim].Migrated)
		if prior == 0 {
			t.Fatal("no migrations recorded in victim checkpoint")
		}
		if got := s2.Stats().PerPartition[victim].Migrated; got > clusterSize-prior {
			t.Fatalf("resume migrated %d objects, checkpoint already had %d of %d",
				got, prior, clusterSize)
		}
	}
	f2.verify(t, sig)
	for p := 1; p <= parts; p++ {
		if got := len(f2.partitionOIDs(t, oid.PartitionID(p))); got != clusterSize {
			t.Fatalf("partition %d holds %d objects after resume, want %d", p, got, clusterSize)
		}
	}
}

func TestFleetCrashCleanPointOthersComplete(t *testing.T) {
	fleetCrashHarness(t, ModeIRA, "batch-done", 5)
}

func TestFleetCrashMidMigrationThenResume(t *testing.T) {
	fleetCrashHarness(t, ModeIRA, "parents-locked", 1)
}

func TestFleetCrashTwoLockInFlightThenResume(t *testing.T) {
	fleetCrashHarness(t, ModeIRATwoLock, "twolock-inflight", 1)
}
