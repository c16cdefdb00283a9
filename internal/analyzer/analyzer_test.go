package analyzer

import (
	"testing"

	"repro/internal/object"
	"repro/internal/oid"
	"repro/internal/trt"
	"repro/internal/wal"
)

var (
	inP1   = oid.New(1, 1, 0)
	inP1b  = oid.New(1, 1, 1)
	inP2   = oid.New(2, 1, 0)
	parent = oid.New(3, 1, 0)
)

func newWithTables() (*Analyzer, *trt.Table) {
	a := New()
	a.ERT(1) // ensure ERT exists for partition 1
	a.ERT(2)
	a.ERT(3)
	t := trt.New(1, true)
	a.AttachTRT(t)
	return a, t
}

func TestRefInsertCrossPartition(t *testing.T) {
	a, tr := newWithTables()
	a.Observe(&wal.Record{Type: wal.RecRefInsert, Txn: 5, OID: parent, Child: inP1})
	if got := a.ERT(1).Parents(inP1); len(got) != 1 || got[0] != parent {
		t.Fatalf("ERT parents = %v", got)
	}
	tuples := tr.TuplesFor(inP1)
	if len(tuples) != 1 || tuples[0].Act != trt.Insert || tuples[0].Parent != parent {
		t.Fatalf("TRT tuples = %v", tuples)
	}
}

func TestRefInsertIntraPartitionSkipsERT(t *testing.T) {
	a, tr := newWithTables()
	a.Observe(&wal.Record{Type: wal.RecRefInsert, Txn: 5, OID: inP1b, Child: inP1})
	if a.ERT(1).HasChild(inP1) {
		t.Fatal("intra-partition reference landed in ERT")
	}
	if tr.Len() != 1 {
		t.Fatalf("TRT Len = %d; intra-partition refs must still be tracked", tr.Len())
	}
}

func TestRefDelete(t *testing.T) {
	a, tr := newWithTables()
	a.Observe(&wal.Record{Type: wal.RecRefInsert, Txn: 5, OID: parent, Child: inP1})
	a.Observe(&wal.Record{Type: wal.RecRefDelete, Txn: 6, OID: parent, Child: inP1})
	if a.ERT(1).HasChild(inP1) {
		t.Fatal("ERT entry survived delete")
	}
	if tr.Len() != 2 {
		t.Fatalf("TRT Len = %d, want insert+delete tuples", tr.Len())
	}
}

func TestRefUpdateRetargetsAllOccurrences(t *testing.T) {
	a, tr := newWithTables()
	// Parent image holds two refs to inP1.
	before := object.Encode(object.Object{Refs: []oid.OID{inP1, inP1}})
	after := object.Encode(object.Object{Refs: []oid.OID{inP2, inP2}})
	a.ERT(1).AddRef(inP1, parent)
	a.ERT(1).AddRef(inP1, parent)
	a.Observe(&wal.Record{
		Type: wal.RecRefUpdate, Txn: 5, OID: parent,
		Child: inP1, Child2: inP2, Before: before, After: after,
	})
	if a.ERT(1).HasChild(inP1) {
		t.Fatal("old child still in ERT after retarget")
	}
	if got := a.ERT(2).Parents(inP2); len(got) != 1 || got[0] != parent {
		t.Fatalf("new child ERT parents = %v", got)
	}
	// TRT of partition 1 sees two deletes (and the partition-2 inserts do
	// not land there because no TRT is attached for partition 2).
	deletes := 0
	for _, tp := range tr.TuplesFor(inP1) {
		if tp.Act == trt.Delete {
			deletes++
		}
	}
	if deletes != 2 {
		t.Fatalf("TRT deletes = %d, want 2", deletes)
	}
}

// TestRefUpdateCompensationMovesOnlyRetargetedEdges undoes a retarget
// whose target the parent already referenced: the CLR's before-image
// holds the target twice, but only one edge moves back.
func TestRefUpdateCompensationMovesOnlyRetargetedEdges(t *testing.T) {
	a, _ := newWithTables()
	a.ERT(1).AddRef(inP1, parent)
	a.ERT(2).AddRef(inP2, parent)
	fwd := &wal.Record{
		Type: wal.RecRefUpdate, Txn: 5, OID: parent, Child: inP1, Child2: inP2,
		Before: object.Encode(object.Object{Refs: []oid.OID{inP1, inP2}}),
		After:  object.Encode(object.Object{Refs: []oid.OID{inP2, inP2}}),
	}
	a.Observe(fwd)
	a.Observe(fwd.Compensation())
	for part, child := range map[oid.PartitionID]oid.OID{1: inP1, 2: inP2} {
		n := 0
		a.ERT(part).Range(func(c, p oid.OID, count int) bool {
			if c == child && p == parent {
				n = count
			}
			return true
		})
		if n != 1 {
			t.Errorf("after retarget and undo, %s has %d refs from parent, want 1", child, n)
		}
	}
}

func TestCreateLogsInitialRefs(t *testing.T) {
	a, tr := newWithTables()
	img := object.Encode(object.Object{Refs: []oid.OID{inP1, inP2}, Payload: []byte("x")})
	a.Observe(&wal.Record{Type: wal.RecCreate, Txn: 5, OID: parent, After: img})
	if got := a.ERT(1).Parents(inP1); len(got) != 1 {
		t.Fatalf("ERT(1) parents = %v", got)
	}
	if got := a.ERT(2).Parents(inP2); len(got) != 1 {
		t.Fatalf("ERT(2) parents = %v", got)
	}
	if tr.Len() != 1 {
		t.Fatalf("TRT Len = %d (only the partition-1 ref should land)", tr.Len())
	}
}

func TestDeleteRemovesOutgoingRefs(t *testing.T) {
	a, _ := newWithTables()
	img := object.Encode(object.Object{Refs: []oid.OID{inP1}})
	a.Observe(&wal.Record{Type: wal.RecCreate, Txn: 5, OID: parent, After: img})
	a.Observe(&wal.Record{Type: wal.RecDelete, Txn: 6, OID: parent, Before: img})
	if a.ERT(1).HasChild(inP1) {
		t.Fatal("ERT entry survived parent deletion")
	}
}

func TestCommitTriggersTRTPurge(t *testing.T) {
	a, tr := newWithTables()
	a.Observe(&wal.Record{Type: wal.RecRefDelete, Txn: 5, OID: parent, Child: inP1})
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
	a.Observe(&wal.Record{Type: wal.RecCommit, Txn: 5})
	if tr.Len() != 0 {
		t.Fatalf("delete tuple survived commit purge: Len = %d", tr.Len())
	}
}

// TestCompletionRecordAllocFree pins that commit and abort records, which
// the analyzer handles under the WAL append mutex, allocate nothing: with
// no reorganization running, and while TRTs are attached but the
// completing transaction logged no tuple in them.
func TestCompletionRecordAllocFree(t *testing.T) {
	a := New()
	a.ERT(1)
	commit := &wal.Record{Type: wal.RecCommit, Txn: 5}
	abort := &wal.Record{Type: wal.RecAbort, Txn: 6}
	observe := func() {
		a.Observe(commit)
		a.Observe(abort)
	}
	if n := testing.AllocsPerRun(100, observe); n != 0 {
		t.Fatalf("%.1f allocs per commit+abort with no TRT attached", n)
	}
	a.AttachTRT(trt.New(1, true))
	a.AttachTRT(trt.New(2, true))
	if n := testing.AllocsPerRun(100, observe); n != 0 {
		t.Fatalf("%.1f allocs per commit+abort with two TRTs attached", n)
	}
	a.DetachTRT(1)
	a.DetachTRT(2)
	if n := testing.AllocsPerRun(100, observe); n != 0 {
		t.Fatalf("%.1f allocs per commit+abort after the TRTs were detached", n)
	}
}

func TestDetachStopsTRTMaintenance(t *testing.T) {
	a, tr := newWithTables()
	a.DetachTRT(1)
	a.Observe(&wal.Record{Type: wal.RecRefInsert, Txn: 5, OID: parent, Child: inP1})
	if tr.Len() != 0 {
		t.Fatal("detached TRT still maintained")
	}
	// ERT maintenance continues.
	if !a.ERT(1).HasChild(inP1) {
		t.Fatal("ERT maintenance stopped by TRT detach")
	}
}

func TestNilChildIgnored(t *testing.T) {
	a, tr := newWithTables()
	a.Observe(&wal.Record{Type: wal.RecRefInsert, Txn: 5, OID: parent, Child: oid.Nil})
	if tr.Len() != 0 || a.ERT(0) == nil {
		t.Fatal("nil child tracked")
	}
}

func TestTRTAccessor(t *testing.T) {
	a, tr := newWithTables()
	got, ok := a.TRT(1)
	if !ok || got != tr {
		t.Fatal("TRT accessor broken")
	}
	if _, ok := a.TRT(2); ok {
		t.Fatal("phantom TRT")
	}
}

func TestERTsSnapshot(t *testing.T) {
	a, _ := newWithTables()
	erts := a.ERTs()
	if len(erts) != 3 {
		t.Fatalf("ERTs = %d tables", len(erts))
	}
	a.DropERT(3)
	if len(a.ERTs()) != 2 {
		t.Fatal("DropERT did not remove table")
	}
}

func TestCreateInReorgPartitionTracked(t *testing.T) {
	a, tr := newWithTables()
	img := object.Encode(object.Object{Payload: []byte("new")})
	created := oid.New(1, 5, 0)
	a.Observe(&wal.Record{Type: wal.RecCreate, Txn: 5, OID: created, After: img})
	got := tr.TakeCreations()
	if len(got) != 1 || got[0] != created {
		t.Fatalf("creations = %v", got)
	}
	// Creations in other partitions are not tracked here; compensation
	// (CLR) creates — a rolled-back Delete — are not "new objects".
	a.Observe(&wal.Record{Type: wal.RecCreate, Txn: 5, OID: oid.New(2, 5, 0), After: img})
	a.Observe(&wal.Record{Type: wal.RecCreate, Txn: 5, OID: oid.New(1, 5, 1), After: img, CLR: true})
	if got := tr.TakeCreations(); len(got) != 0 {
		t.Fatalf("phantom creations = %v", got)
	}
}
