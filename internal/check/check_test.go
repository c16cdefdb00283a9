package check

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/db"
	"repro/internal/oid"
	"repro/internal/testkit"
	"repro/internal/wal"
)

func openDB(t *testing.T, c testkit.Cell, parts int) *db.Database {
	t.Helper()
	cfg := db.DefaultConfig()
	cfg.FlushLatency = 0
	cfg.LockTimeout = 200 * time.Millisecond
	d := db.Open(c.Config(t, cfg))
	for i := 0; i < parts; i++ {
		if err := d.CreatePartition(oid.PartitionID(i)); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(d.Close)
	return d
}

// buildGraph creates root -> a -> b with b in another partition, plus an
// unreachable orphan. Returns (root, a, b, orphan).
func buildGraph(t *testing.T, d *db.Database) (oid.OID, oid.OID, oid.OID, oid.OID) {
	t.Helper()
	tx, err := d.Begin()
	if err != nil {
		t.Fatal(err)
	}
	b, _ := tx.Create(1, []byte("b"), nil)
	a, _ := tx.Create(0, []byte("a"), []oid.OID{b})
	root, _ := tx.Create(0, []byte("root"), []oid.OID{a})
	orphan, _ := tx.Create(1, []byte("orphan"), nil)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return root, a, b, orphan
}

func TestVerifyCleanDatabase(t *testing.T) {
	testkit.Run(t, testkit.Pairwise, func(t *testing.T, c testkit.Cell) {
		d := openDB(t, c, 2)
		root, _, _, orphan := buildGraph(t, d)
		rep, err := Verify(d, []oid.OID{root})
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.Err(); err != nil {
			t.Fatal(err)
		}
		if rep.Objects != 4 || rep.Refs != 2 {
			t.Fatalf("report = %+v", rep)
		}
		if rep.Reachable != 3 {
			t.Fatalf("Reachable = %d, want 3", rep.Reachable)
		}
		if len(rep.Unreachable) != 1 || rep.Unreachable[0] != orphan {
			t.Fatalf("Unreachable = %v", rep.Unreachable)
		}
	})
}

func TestVerifyDetectsDangling(t *testing.T) {
	testkit.Run(t, testkit.Pairwise, func(t *testing.T, c testkit.Cell) {
		d := openDB(t, c, 2)
		root, _, b, _ := buildGraph(t, d)
		// Free b behind the database's back: a's reference now dangles.
		if err := d.Store().Apply(&wal.Record{Type: wal.RecDelete, OID: b}, nil); err != nil {
			t.Fatal(err)
		}
		rep, err := Verify(d, []oid.OID{root})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Dangling) != 1 || rep.Dangling[0].Child != b {
			t.Fatalf("Dangling = %v", rep.Dangling)
		}
		if rep.Err() == nil {
			t.Fatal("Err() = nil with dangling refs")
		}
	})
}

func TestVerifyDetectsERTMissing(t *testing.T) {
	testkit.Run(t, testkit.Pairwise, func(t *testing.T, c testkit.Cell) {
		d := openDB(t, c, 2)
		root, a, b, _ := buildGraph(t, d)
		_ = a
		// Remove the legitimate ERT entry.
		d.ERT(1).RemoveRef(b, a)
		rep, _ := Verify(d, []oid.OID{root})
		if len(rep.ERTMissing) != 1 {
			t.Fatalf("ERTMissing = %v", rep.ERTMissing)
		}
		if rep.Err() == nil {
			t.Fatal("Err() = nil with missing ERT entry")
		}
	})
}

func TestVerifyDetectsERTStale(t *testing.T) {
	testkit.Run(t, testkit.Pairwise, func(t *testing.T, c testkit.Cell) {
		d := openDB(t, c, 2)
		root, a, b, _ := buildGraph(t, d)
		// Add a bogus ERT entry.
		d.ERT(1).AddRef(b, a) // second copy; only one real ref exists
		rep, _ := Verify(d, []oid.OID{root})
		if len(rep.ERTStale) != 1 {
			t.Fatalf("ERTStale = %v", rep.ERTStale)
		}
		if rep.Err() == nil {
			t.Fatal("Err() = nil with stale ERT entry")
		}
	})
}

func TestSignatureStableAcrossPlacement(t *testing.T) {
	testkit.Run(t, testkit.Pairwise, func(t *testing.T, c testkit.Cell) {
		d1 := openDB(t, c, 2)
		root1, _, _, _ := buildGraph(t, d1)
		sig1, err := Signature(d1, []oid.OID{root1})
		if err != nil {
			t.Fatal(err)
		}
		// Same logical graph built in a different order / different
		// partitions gives the same signature.
		d2 := openDB(t, c, 3)
		tx, _ := d2.Begin()
		b, _ := tx.Create(2, []byte("b"), nil)
		a, _ := tx.Create(2, []byte("a"), []oid.OID{b})
		root2, _ := tx.Create(1, []byte("root"), []oid.OID{a})
		tx.Commit()
		sig2, err := Signature(d2, []oid.OID{root2})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sig1, sig2) {
			t.Fatalf("signatures differ:\n%v\n%v", sig1, sig2)
		}
	})
}

func TestSignatureDetectsEdgeChange(t *testing.T) {
	testkit.Run(t, testkit.Pairwise, func(t *testing.T, c testkit.Cell) {
		d := openDB(t, c, 2)
		root, a, b, _ := buildGraph(t, d)
		sig1, _ := Signature(d, []oid.OID{root})
		tx, _ := d.Begin()
		if err := tx.DeleteRef(a, b); err != nil {
			t.Fatal(err)
		}
		tx.Commit()
		sig2, _ := Signature(d, []oid.OID{root})
		if reflect.DeepEqual(sig1, sig2) {
			t.Fatal("signature identical after edge deletion")
		}
	})
}

func TestSignatureRejectsDuplicatePayloads(t *testing.T) {
	testkit.Run(t, testkit.Pairwise, func(t *testing.T, c testkit.Cell) {
		d := openDB(t, c, 1)
		tx, _ := d.Begin()
		x1, _ := tx.Create(0, []byte("dup"), nil)
		x2, _ := tx.Create(0, []byte("dup"), nil)
		root, _ := tx.Create(0, []byte("root"), []oid.OID{x1, x2})
		tx.Commit()
		if _, err := Signature(d, []oid.OID{root}); err == nil {
			t.Fatal("duplicate payloads not rejected")
		}
	})
}
