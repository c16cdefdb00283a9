package reorg

import (
	"errors"
	"testing"

	"repro/internal/db"
	"repro/internal/oid"
	"repro/internal/recovery"
	"repro/internal/storage"
)

func logicalConfig() db.Config {
	cfg := testConfig()
	cfg.LogicalOIDs = true
	return cfg
}

// TestLogicalCompactNoParentUpdates is the tentpole claim in miniature:
// with the indirection table in place, migrating a partition rewrites
// zero parent references, and every pre-reorg OID remains valid.
func TestLogicalCompactNoParentUpdates(t *testing.T) {
	for _, mode := range []Mode{ModeIRA, ModeIRATwoLock} {
		t.Run(mode.String(), func(t *testing.T) {
			f := buildFixture(t, logicalConfig(), 2, 25)
			sig := f.signature(t)
			r := New(f.d, 1, Options{Mode: mode})
			if err := r.Run(); err != nil {
				t.Fatal(err)
			}
			st := r.Stats()
			if st.Migrated != st.Traversed || st.Traversed == 0 {
				t.Fatalf("migrated %d of %d traversed", st.Migrated, st.Traversed)
			}
			if st.ParentsUpdated != 0 {
				t.Fatalf("logical migration updated %d parents, want 0", st.ParentsUpdated)
			}
			if st.MaxLocksHeld != 1 {
				t.Fatalf("peak locks %d, want 1", st.MaxLocksHeld)
			}
			// Identity stability: every original OID still resolves.
			for o := range f.all {
				if !f.d.Exists(o) {
					t.Fatalf("object %s vanished across logical reorg", o)
				}
			}
			f.verify(t, sig)
		})
	}
}

// TestLogicalCollectPartition evacuates a partition's bodies and drops
// its store partition; the logical identities stay alive and readable.
func TestLogicalCollectPartition(t *testing.T) {
	f := buildFixture(t, logicalConfig(), 2, 20)
	sig := f.signature(t)
	if _, err := CollectPartition(f.d, 1, 7, Options{Mode: ModeIRA}); err != nil {
		t.Fatal(err)
	}
	if f.d.Store().HasPartition(1) {
		t.Fatal("evacuated store partition still present")
	}
	oids, err := f.d.PartitionOIDs(1)
	if err != nil || len(oids) != 20 {
		t.Fatalf("logical partition 1: %d oids, err %v; want 20", len(oids), err)
	}
	for _, o := range oids {
		if !f.d.Exists(o) {
			t.Fatalf("identity %s dead after evacuation", o)
		}
	}
	f.verify(t, sig)
}

// TestMigrateStore moves a partition between backings online and drops
// the source store partition, with identities untouched.
func TestMigrateStore(t *testing.T) {
	f := buildFixture(t, logicalConfig(), 2, 20)
	sig := f.signature(t)
	st, err := MigrateStore(f.d, 1, 9, false, Options{Mode: ModeIRA})
	if err != nil {
		t.Fatal(err)
	}
	if st.ParentsUpdated != 0 {
		t.Fatalf("store move updated %d parents, want 0", st.ParentsUpdated)
	}
	if f.d.Store().HasPartition(1) {
		t.Fatal("moved store partition still present")
	}
	f.verify(t, sig)
	// Second hop: the source this time is the first move's target, which
	// the Sources bookkeeping must discover through the map.
	if _, err := MigrateStore(f.d, 1, 10, false, Options{Mode: ModeIRA}); err != nil {
		t.Fatal(err)
	}
	if f.d.Store().HasPartition(9) {
		t.Fatal("intermediate store partition survived the second hop")
	}
	f.verify(t, sig)
}

// TestMigrateStorePhysicalModeRejected: the move is defined only behind
// the indirection table.
func TestMigrateStorePhysicalModeRejected(t *testing.T) {
	f := buildFixture(t, testConfig(), 1, 5)
	if _, err := MigrateStore(f.d, 1, 9, false, Options{}); err == nil {
		t.Fatal("MigrateStore accepted a physical-OID database")
	}
}

// TestMigrateStoreCrashResume crashes between the evacuation and the
// source drop, recovers, and finishes through ResumeMigrateStore.
func TestMigrateStoreCrashResume(t *testing.T) {
	for _, crashAt := range []string{"batch-done", "store-move"} {
		t.Run(crashAt, func(t *testing.T) {
			f := buildFixture(t, logicalConfig(), 2, 20)
			sig := f.signature(t)
			ckpt, err := f.d.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			var lastState *State
			fired := false
			_, err = MigrateStore(f.d, 1, 9, false, Options{
				Mode:            ModeIRA,
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
			if !fired {
				t.Fatalf("failpoint %q never fired", crashAt)
			}
			if !errors.Is(err, ErrCrash) {
				t.Fatalf("MigrateStore = %v, want ErrCrash", err)
			}
			if lastState == nil || lastState.StoreMove == nil {
				t.Fatal("no checkpoint carrying the store move was emitted")
			}

			img := recovery.CaptureImage(f.d, ckpt)
			f.d.Close()
			d2, err := recovery.Recover(img, testConfig())
			if err != nil {
				t.Fatal(err)
			}
			defer d2.Close()
			if d2.OIDMap() == nil {
				t.Fatal("recovery dropped logical-OID mode")
			}
			if _, err := ResumeMigrateStore(d2, lastState, img.Records, Options{}); err != nil {
				t.Fatal(err)
			}
			if d2.Store().HasPartition(1) {
				t.Fatal("source store partition survived the resumed move")
			}
			f2 := &fixture{d: d2, roots: f.roots}
			f2.verify(t, sig)
		})
	}
}

// TestLogicalCrashResume exercises the generic §4.4 crash/resume path in
// logical mode, including the n==o stale-migration special case.
func TestLogicalCrashResume(t *testing.T) {
	for _, crashAt := range []string{"after-traversal", "parents-locked", "batch-done"} {
		t.Run(crashAt, func(t *testing.T) {
			f := buildFixture(t, logicalConfig(), 2, 25)
			sig := f.signature(t)
			ckpt, err := f.d.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			var lastState *State
			fired := false
			r := New(f.d, 1, Options{
				Mode:            ModeIRA,
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
			if err := r.Run(); !errors.Is(err, ErrCrash) {
				t.Fatalf("Run() = %v, want ErrCrash", err)
			}

			img := recovery.CaptureImage(f.d, ckpt)
			f.d.Close()
			d2, err := recovery.Recover(img, testConfig())
			if err != nil {
				t.Fatal(err)
			}
			defer d2.Close()
			var r2 *Reorganizer
			if lastState != nil {
				r2, err = Resume(d2, lastState, img.Records, Options{})
				if err != nil {
					t.Fatal(err)
				}
			} else {
				r2 = New(d2, 1, Options{Mode: ModeIRA})
			}
			if err := r2.Run(); err != nil {
				t.Fatal(err)
			}
			f2 := &fixture{d: d2, roots: f.roots}
			f2.verify(t, sig)
		})
	}
}

// TestLogicalGarbageCollection: unreferenced objects of the partition
// are found through the map and reclaimed.
func TestLogicalGarbageCollection(t *testing.T) {
	f := buildFixture(t, logicalConfig(), 2, 10)
	// Orphan: created, never referenced by anything reachable.
	tx, err := f.d.Begin()
	if err != nil {
		t.Fatal(err)
	}
	orphan, err := tx.Create(1, []byte("orphan"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	r := New(f.d, 1, Options{Mode: ModeIRA, CollectGarbage: true})
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if got := r.Stats().Garbage; got != 1 {
		t.Fatalf("collected %d garbage objects, want 1", got)
	}
	if f.d.Exists(orphan) {
		t.Fatal("orphan survived garbage collection")
	}
	f.verify(t, nil)
}

// TestLogicalRelocateGone: relocating a concurrently deleted object is
// skipped, not an error.
func TestLogicalRelocateGone(t *testing.T) {
	cfg := logicalConfig()
	d := db.Open(cfg)
	defer d.Close()
	if err := d.CreatePartition(1); err != nil {
		t.Fatal(err)
	}
	tx, _ := d.Begin()
	o, err := tx.Create(1, []byte("x"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2, _ := d.Begin()
	if err := tx2.Delete(o); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	tx3, _ := d.Begin()
	defer tx3.Abort()
	if err := tx3.Relocate(o, 1, true, nil); !errors.Is(err, storage.ErrNoObject) {
		t.Fatalf("Relocate of deleted identity = %v, want ErrNoObject", err)
	}
	_ = oid.Nil
}
