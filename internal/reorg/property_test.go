package reorg

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/check"
	"repro/internal/db"
	"repro/internal/oid"
	"repro/internal/testkit"
)

// TestRandomGraphsPreservedByEveryMode generates dozens of adversarial
// random object graphs — self-loops, cycles, duplicate edges, deep
// chains, heavy cross-partition fan-in, unreachable clusters — and
// verifies that every reorganization mode preserves the reachable graph
// exactly and leaves the database fully consistent, in each pairwise
// cell of the configuration matrix.
func TestRandomGraphsPreservedByEveryMode(t *testing.T) {
	for trial := 0; trial < 24; trial++ {
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			testkit.Run(t, testkit.Pairwise, func(t *testing.T, c testkit.Cell) {
				randomGraphPreserved(t, c, trial)
			})
		})
	}
}

func randomGraphPreserved(t *testing.T, c testkit.Cell, trial int) {
	modes := []Mode{ModeIRA, ModeIRATwoLock, ModePQR, ModeOffline}
	rng := rand.New(rand.NewSource(int64(1000 + trial)))
	mode := modes[trial%len(modes)]
	d := db.Open(c.Config(t, testConfig()))
	defer d.Close()
	parts := 2 + rng.Intn(3)
	for p := 0; p <= parts; p++ {
		if err := d.CreatePartition(oid.PartitionID(p)); err != nil {
			t.Fatal(err)
		}
	}
	tx, err := d.Begin()
	if err != nil {
		t.Fatal(err)
	}
	n := 10 + rng.Intn(60)
	objs := make([]oid.OID, 0, n)
	for i := 0; i < n; i++ {
		o, err := tx.Create(oid.PartitionID(1+rng.Intn(parts)), []byte(fmt.Sprintf("o%03d", i)), nil)
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, o)
	}
	// Random edges, including self-loops and duplicates.
	edges := n * (1 + rng.Intn(3))
	for e := 0; e < edges; e++ {
		from := objs[rng.Intn(n)]
		to := objs[rng.Intn(n)]
		if err := tx.InsertRef(from, to); err != nil {
			t.Fatal(err)
		}
	}
	// Some (not all) objects hang off the root: the rest may be
	// garbage, exercising the traversal's liveness boundary.
	var rooted []oid.OID
	for _, o := range objs {
		if rng.Intn(3) > 0 {
			rooted = append(rooted, o)
		}
	}
	if len(rooted) == 0 {
		rooted = objs[:1]
	}
	root, err := tx.Create(0, []byte("root"), rooted)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	sigBefore, err := check.Signature(d, []oid.OID{root})
	if err != nil {
		t.Fatal(err)
	}
	target := oid.PartitionID(1 + rng.Intn(parts))
	r := New(d, target, Options{Mode: mode, BatchSize: 1 + rng.Intn(4)})
	if err := r.Run(); err != nil {
		t.Fatalf("mode %v partition %d: %v", mode, target, err)
	}
	sigAfter, err := check.Signature(d, []oid.OID{root})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sigBefore, sigAfter) {
		t.Fatalf("mode %v changed the reachable graph", mode)
	}
	rep, err := check.Verify(d, []oid.OID{root})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("mode %v: %v", mode, err)
	}
}

// TestEvacuateRandomGraphThenCollect evacuates random graphs with garbage
// into fresh partitions and verifies the collector's accounting: live
// objects moved, everything else reclaimed.
func TestEvacuateRandomGraphThenCollect(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		d := db.Open(testConfig())
		parts := 2
		for p := 0; p <= parts; p++ {
			d.CreatePartition(oid.PartitionID(p))
		}
		tx, _ := d.Begin()
		n := 20 + rng.Intn(40)
		var objs []oid.OID
		for i := 0; i < n; i++ {
			o, err := tx.Create(1, []byte(fmt.Sprintf("t%d-o%03d", trial, i)), nil)
			if err != nil {
				t.Fatal(err)
			}
			objs = append(objs, o)
		}
		for e := 0; e < n*2; e++ {
			tx.InsertRef(objs[rng.Intn(n)], objs[rng.Intn(n)])
		}
		live := objs[:1+rng.Intn(n)]
		root, _ := tx.Create(0, []byte("root"), live)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		repBefore, err := check.Verify(d, []oid.OID{root})
		if err != nil {
			t.Fatal(err)
		}
		liveCount := repBefore.Reachable - 1 // minus the root itself

		stats, err := CollectPartition(d, 1, 50, Options{Mode: ModeIRA})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Migrated != liveCount {
			t.Fatalf("trial %d: migrated %d, live %d", trial, stats.Migrated, liveCount)
		}
		if stats.Migrated+stats.Garbage != n {
			t.Fatalf("trial %d: %d migrated + %d garbage != %d objects",
				trial, stats.Migrated, stats.Garbage, n)
		}
		rep, err := check.Verify(d, []oid.OID{root})
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.Err(); err != nil {
			t.Fatal(err)
		}
		if len(rep.Unreachable) != 0 {
			t.Fatalf("trial %d: %d unreachable objects survive collection", trial, len(rep.Unreachable))
		}
		d.Close()
	}
}
