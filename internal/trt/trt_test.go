package trt

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/oid"
)

var (
	objO    = oid.New(1, 1, 0)
	objO2   = oid.New(1, 1, 1)
	parentR = oid.New(1, 2, 0)
	parentS = oid.New(2, 1, 0)
)

func TestLogAndTake(t *testing.T) {
	tr := New(1, true)
	tr.Log(objO, parentR, 10, Delete)
	tr.Log(objO, parentS, 11, Insert)
	if tr.Len() != 2 {
		t.Fatalf("Len = %d", tr.Len())
	}
	seen := map[oid.OID]Action{}
	for {
		tp, ok := tr.Take(objO)
		if !ok {
			break
		}
		seen[tp.Parent] = tp.Act
	}
	if len(seen) != 2 || seen[parentR] != Delete || seen[parentS] != Insert {
		t.Fatalf("drained tuples = %v", seen)
	}
	if tr.Len() != 0 {
		t.Fatalf("Len after drain = %d", tr.Len())
	}
	if _, ok := tr.Take(objO); ok {
		t.Fatal("Take on empty child returned a tuple")
	}
}

func TestChildren(t *testing.T) {
	tr := New(1, true)
	tr.Log(objO, parentR, 1, Delete)
	tr.Log(objO2, parentR, 1, Insert)
	kids := tr.Children()
	if len(kids) != 2 {
		t.Fatalf("Children = %v", kids)
	}
}

func TestTuplesForCopies(t *testing.T) {
	tr := New(1, true)
	tr.Log(objO, parentR, 1, Insert)
	got := tr.TuplesFor(objO)
	if len(got) != 1 || got[0].Parent != parentR {
		t.Fatalf("TuplesFor = %v", got)
	}
	got[0].Parent = parentS // must not corrupt the table
	if tr.TuplesFor(objO)[0].Parent != parentR {
		t.Fatal("TuplesFor returned aliased storage")
	}
}

func TestStrict2PLPurgeDeletesOnComplete(t *testing.T) {
	tr := New(1, true)
	tr.Log(objO, parentR, 5, Delete)
	tr.Log(objO, parentS, 6, Delete) // different txn, must survive
	tr.TxnComplete(5, true)
	tuples := tr.TuplesFor(objO)
	if len(tuples) != 1 || tuples[0].Txn != 6 {
		t.Fatalf("tuples after purge = %v", tuples)
	}
	if tr.Purged() != 1 {
		t.Fatalf("Purged = %d", tr.Purged())
	}
}

func TestStrict2PLPurgeOnAbortToo(t *testing.T) {
	tr := New(1, true)
	tr.Log(objO, parentR, 5, Delete)
	tr.TxnComplete(5, false)
	if tr.Len() != 0 {
		t.Fatal("delete tuple survived abort completion")
	}
}

func TestCommittedDeletePurgesMatchingInsert(t *testing.T) {
	tr := New(1, true)
	// Txn 7 inserted R→O earlier; txn 8 deletes the same edge and commits.
	tr.Log(objO, parentR, 7, Insert)
	tr.Log(objO, parentR, 8, Delete)
	tr.TxnComplete(8, true)
	if tr.Len() != 0 {
		t.Fatalf("Len = %d; insert tuple should be purged with committed delete", tr.Len())
	}
	if tr.Purged() != 2 {
		t.Fatalf("Purged = %d", tr.Purged())
	}
}

func TestAbortedDeleteKeepsInsert(t *testing.T) {
	tr := New(1, true)
	tr.Log(objO, parentR, 7, Insert)
	tr.Log(objO, parentR, 8, Delete)
	tr.TxnComplete(8, false) // aborted: the edge is back, insert must stay
	tuples := tr.TuplesFor(objO)
	if len(tuples) != 1 || tuples[0].Act != Insert || tuples[0].Txn != 7 {
		t.Fatalf("tuples = %v", tuples)
	}
}

func TestInsertPurgeMatchesOnlyOne(t *testing.T) {
	tr := New(1, true)
	// Two independent inserts of the same edge (parent holds the ref
	// twice); one committed delete purges exactly one of them.
	tr.Log(objO, parentR, 7, Insert)
	tr.Log(objO, parentR, 9, Insert)
	tr.Log(objO, parentR, 8, Delete)
	tr.TxnComplete(8, true)
	inserts := 0
	for _, tp := range tr.TuplesFor(objO) {
		if tp.Act == Insert {
			inserts++
		}
	}
	if inserts != 1 {
		t.Fatalf("%d insert tuples survive, want 1", inserts)
	}
}

func TestNoPurgeOutsideStrict2PL(t *testing.T) {
	tr := New(1, false)
	tr.Log(objO, parentR, 5, Delete)
	tr.Log(objO, parentR, 7, Insert)
	tr.TxnComplete(5, true)
	if tr.Len() != 2 {
		t.Fatalf("Len = %d; purge must be disabled outside strict 2PL", tr.Len())
	}
	if tr.Purged() != 0 {
		t.Fatalf("Purged = %d", tr.Purged())
	}
}

func TestTxnCompleteUnknownTxn(t *testing.T) {
	tr := New(1, true)
	tr.Log(objO, parentR, 5, Insert)
	tr.TxnComplete(99, true) // no tuples; must not disturb others
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestSnapshotRestore(t *testing.T) {
	tr := New(1, true)
	tr.Log(objO, parentR, 5, Delete)
	tr.Log(objO2, parentS, 6, Insert)
	snap := tr.Snapshot()
	tr.Log(objO, parentS, 7, Insert) // diverge

	r := New(1, true)
	r.Restore(snap)
	if r.Len() != 2 {
		t.Fatalf("restored Len = %d", r.Len())
	}
	tp, ok := r.Take(objO)
	if !ok || tp.Parent != parentR || tp.Act != Delete || tp.Txn != 5 {
		t.Fatalf("restored tuple = %+v, %v", tp, ok)
	}
	// Purge bookkeeping must work after restore.
	r.TxnComplete(6, true)
	if r.Len() != 1 {
		t.Fatalf("Len after restore+complete = %d", r.Len())
	}
}

func TestActionString(t *testing.T) {
	if Insert.String() != "insert" || Delete.String() != "delete" {
		t.Fatal("Action.String broken")
	}
}

func TestCreationTracking(t *testing.T) {
	tr := New(1, true)
	if got := tr.TakeCreations(); len(got) != 0 {
		t.Fatalf("fresh table has creations: %v", got)
	}
	a := oid.New(1, 2, 0)
	b := oid.New(1, 2, 1)
	tr.LogCreation(a)
	tr.LogCreation(b)
	got := tr.TakeCreations()
	if len(got) != 2 || got[0] != a || got[1] != b {
		t.Fatalf("TakeCreations = %v", got)
	}
	// Taking clears the list; later creations accumulate afresh.
	if got := tr.TakeCreations(); len(got) != 0 {
		t.Fatalf("second take = %v", got)
	}
	tr.LogCreation(a)
	if got := tr.TakeCreations(); len(got) != 1 {
		t.Fatalf("after re-log = %v", got)
	}
}

// refTable is the TRT as it was before delsByTxn existed: TxnComplete
// scans every child list of the table. It survives only as the oracle for
// TestTxnCompleteMatchesFullScan.
type refTable struct {
	strict2PL bool
	byChild   map[oid.OID][]Tuple
	byTxn     map[TxnID]int
	total     int
	purged    int
}

func newRef(strict2PL bool) *refTable {
	return &refTable{
		strict2PL: strict2PL,
		byChild:   make(map[oid.OID][]Tuple),
		byTxn:     make(map[TxnID]int),
	}
}

func (t *refTable) Log(child, parent oid.OID, txn TxnID, act Action) {
	t.byChild[child] = append(t.byChild[child], Tuple{child, parent, txn, act})
	t.byTxn[txn]++
	t.total++
}

func (t *refTable) Take(child oid.OID) (Tuple, bool) {
	tuples := t.byChild[child]
	if len(tuples) == 0 {
		return Tuple{}, false
	}
	tp := tuples[len(tuples)-1]
	if len(tuples) == 1 {
		delete(t.byChild, child)
	} else {
		t.byChild[child] = tuples[:len(tuples)-1]
	}
	t.dropAccounting(tp)
	return tp, true
}

func (t *refTable) dropAccounting(tp Tuple) {
	t.byTxn[tp.Txn]--
	if t.byTxn[tp.Txn] <= 0 {
		delete(t.byTxn, tp.Txn)
	}
	t.total--
}

func (t *refTable) TxnComplete(txn TxnID, committed bool) {
	if !t.strict2PL {
		return
	}
	if t.byTxn[txn] == 0 {
		return
	}
	// Collect the committed deletes first so the insert purge can match
	// them across all transactions.
	type edge struct{ child, parent oid.OID }
	var committedDeletes []edge
	for child, tuples := range t.byChild {
		kept := tuples[:0]
		for _, tp := range tuples {
			if tp.Txn == txn && tp.Act == Delete {
				if committed {
					committedDeletes = append(committedDeletes, edge{tp.Child, tp.Parent})
				}
				t.dropAccounting(tp)
				t.purged++
				continue
			}
			kept = append(kept, tp)
		}
		if len(kept) == 0 {
			delete(t.byChild, child)
		} else {
			t.byChild[child] = kept
		}
	}
	for _, e := range committedDeletes {
		tuples := t.byChild[e.child]
		kept := tuples[:0]
		removedOne := false
		for _, tp := range tuples {
			if !removedOne && tp.Act == Insert && tp.Parent == e.parent {
				t.dropAccounting(tp)
				t.purged++
				removedOne = true
				continue
			}
			kept = append(kept, tp)
		}
		if len(kept) == 0 {
			delete(t.byChild, e.child)
		} else {
			t.byChild[e.child] = kept
		}
	}
}

func (t *refTable) Snapshot() []Tuple {
	var out []Tuple
	for _, tuples := range t.byChild {
		out = append(out, tuples...)
	}
	return out
}

func (t *refTable) Restore(tuples []Tuple) {
	t.byChild = make(map[oid.OID][]Tuple)
	t.byTxn = make(map[TxnID]int)
	t.total = 0
	for _, tp := range tuples {
		t.Log(tp.Child, tp.Parent, tp.Txn, tp.Act)
	}
}

// TestTxnCompleteMatchesFullScan drives the table and the full-scan
// oracle with the same seeded random operations, under strict and relaxed
// 2PL, and requires identical per-child tuple lists, Len and Purged after
// every step. Small child and parent pools make edges collide, so one
// committed delete often has several inserts of its edge to choose from.
func TestTxnCompleteMatchesFullScan(t *testing.T) {
	for _, strict := range []bool{true, false} {
		for seed := int64(1); seed <= 40; seed++ {
			runEquivalence(t, strict, seed)
		}
	}
}

func runEquivalence(t *testing.T, strict bool, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var children, parents []oid.OID
	for i := 0; i < 6; i++ {
		children = append(children, oid.New(1, 1, oid.SlotNum(i)))
	}
	for i := 0; i < 4; i++ {
		parents = append(parents, oid.New(2, 1, oid.SlotNum(i)))
	}
	tr, ref := New(1, strict), newRef(strict)
	var open []TxnID
	next := TxnID(1)
	for step := 0; step < 400; step++ {
		var op string
		switch r := rng.Intn(100); {
		case r < 20 || len(open) == 0:
			op = "begin"
			open = append(open, next)
			next++
		case r < 55:
			act := Insert
			if rng.Intn(2) == 0 {
				act = Delete
			}
			op = "log " + act.String()
			c, p := children[rng.Intn(len(children))], parents[rng.Intn(len(parents))]
			txn := open[rng.Intn(len(open))]
			tr.Log(c, p, txn, act)
			ref.Log(c, p, txn, act)
		case r < 65:
			op = "take"
			c := children[rng.Intn(len(children))]
			got, gok := tr.Take(c)
			want, wok := ref.Take(c)
			if got != want || gok != wok {
				t.Fatalf("strict=%v seed %d step %d: Take = %+v,%v, oracle %+v,%v", strict, seed, step, got, gok, want, wok)
			}
		case r < 70:
			// TakeAny pops the last tuple of some child, so the oracle
			// mirrors it with Take on the child it picked.
			op = "take-any"
			got, gok := tr.TakeAny()
			var want Tuple
			wok := false
			if gok {
				want, wok = ref.Take(got.Child)
			}
			if got != want || gok != wok {
				t.Fatalf("strict=%v seed %d step %d: TakeAny = %+v,%v, oracle %+v,%v", strict, seed, step, got, gok, want, wok)
			}
		case r < 93:
			i := rng.Intn(len(open))
			txn := open[i]
			open = append(open[:i], open[i+1:]...)
			committed := rng.Intn(3) != 0
			op = fmt.Sprintf("complete %d committed=%v", txn, committed)
			tr.TxnComplete(txn, committed)
			ref.TxnComplete(txn, committed)
		case r < 96:
			op = "complete unknown"
			tr.TxnComplete(next+100, true)
			ref.TxnComplete(next+100, true)
		default:
			op = "snapshot-restore"
			tr.Restore(tr.Snapshot())
			ref.Restore(ref.Snapshot())
		}
		assertSameAsRef(t, fmt.Sprintf("strict=%v seed %d step %d (%s)", strict, seed, step, op), tr, ref, children)
	}
	for _, txn := range open {
		tr.TxnComplete(txn, true)
		ref.TxnComplete(txn, true)
	}
	assertSameAsRef(t, fmt.Sprintf("strict=%v seed %d final", strict, seed), tr, ref, children)
	assertIndexEmpty(t, tr)
}

func assertSameAsRef(t *testing.T, where string, tr *Table, ref *refTable, children []oid.OID) {
	t.Helper()
	for _, c := range children {
		got, want := tr.TuplesFor(c), ref.byChild[c]
		if !slices.Equal(got, want) {
			t.Fatalf("%s: child %v tuples = %+v, oracle %+v", where, c, got, want)
		}
	}
	if tr.Len() != ref.total || tr.Purged() != ref.purged {
		t.Fatalf("%s: Len/Purged = %d/%d, oracle %d/%d", where, tr.Len(), tr.Purged(), ref.total, ref.purged)
	}
}

// assertIndexEmpty checks that the per-transaction delete index holds
// nothing once every logged transaction has completed; otherwise a long
// pass grows it without bound.
func assertIndexEmpty(t *testing.T, tr *Table) {
	t.Helper()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.delsByTxn) != 0 {
		t.Fatalf("delete index not empty after every txn completed: %v", tr.delsByTxn)
	}
}

func TestDeleteIndexDrainedByTake(t *testing.T) {
	tr := New(1, true)
	tr.Log(objO, parentR, 5, Delete)
	tr.Log(objO2, parentS, 5, Delete)
	for _, c := range []oid.OID{objO, objO2} {
		if _, ok := tr.Take(c); !ok {
			t.Fatalf("Take(%v) found nothing", c)
		}
	}
	tr.TxnComplete(5, true)
	if tr.Purged() != 0 {
		t.Fatalf("Purged = %d; drained tuples must not be purged", tr.Purged())
	}
	assertIndexEmpty(t, tr)
}

func TestDeleteIndexAfterRestore(t *testing.T) {
	tr := New(1, true)
	tr.Log(objO, parentR, 5, Delete)
	snap := tr.Snapshot()
	tr.Log(objO2, parentS, 6, Delete) // not in the snapshot
	tr.Restore(snap)
	tr.Log(objO2, parentR, 7, Delete)
	for _, txn := range []TxnID{5, 6, 7} {
		tr.TxnComplete(txn, true)
	}
	if tr.Len() != 0 || tr.Purged() != 2 {
		t.Fatalf("Len/Purged = %d/%d, want 0/2", tr.Len(), tr.Purged())
	}
	assertIndexEmpty(t, tr)
}

func TestDeleteIndexAfterAbort(t *testing.T) {
	tr := New(1, true)
	tr.Log(objO, parentR, 7, Insert)
	tr.Log(objO, parentR, 8, Delete)
	tr.Log(objO2, parentR, 8, Delete)
	tr.TxnComplete(8, false)
	tr.TxnComplete(7, true)
	if tr.Len() != 1 {
		t.Fatalf("Len = %d; the aborted delete must leave the insert", tr.Len())
	}
	assertIndexEmpty(t, tr)
}

// BenchmarkTxnComplete times one reorganizer-sized transaction — an
// insert and a delete of one edge, then commit — against a TRT already
// holding 1k or 16k tuples (four per child) from transactions still
// running. The purge visits only the committing transaction's child, so
// ns/op should not grow with the table.
func BenchmarkTxnComplete(b *testing.B) {
	for _, size := range []int{1 << 10, 1 << 14} {
		b.Run(fmt.Sprintf("tuples=%d", size), func(b *testing.B) {
			tr := New(1, true)
			kids := size / 4
			kid := func(k int) oid.OID { return oid.New(1, oid.PageNum(k/1000), oid.SlotNum(k%1000)) }
			for i := 0; i < size; i++ {
				act := Insert
				if i%2 == 1 {
					act = Delete
				}
				tr.Log(kid(i%kids), parentS, TxnID(i), act)
			}
			txn := TxnID(size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := kid(i % kids)
				txn++
				tr.Log(c, parentR, txn, Insert)
				tr.Log(c, parentR, txn, Delete)
				tr.TxnComplete(txn, true)
			}
			b.StopTimer()
			if tr.Len() != size {
				b.Fatalf("Len = %d, want %d", tr.Len(), size)
			}
		})
	}
}
