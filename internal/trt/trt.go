// Package trt implements the Temporary Reference Table.
//
// The TRT of a partition is a transient structure that exists only while
// a reorganization is in progress (paper §3.3, §4.5). It records every
// insertion and deletion of a reference to an object of the partition:
// tuples (O, R, tid, action), where R is the parent whose reference to O
// changed. The reorganizer consults it in two places:
//
//   - Find_Objects_And_Approx_Parents re-seeds the fuzzy traversal from
//     referenced objects of the TRT that the traversal missed, so no live
//     object escapes discovery (Lemma 3.1).
//   - Find_Exact_Parents drains tuples whose referenced object is the one
//     being migrated, locking each tuple's parent, until none remain —
//     that is what pins down the exact parent set (Lemma 3.2).
//
// Space optimization (§4.5): under strict 2PL, a transaction's pointer-
// delete tuples can be purged when the transaction completes, and when a
// transaction that deleted R→O commits, any insert tuple for the same
// R→O can be purged too. When transactions release locks early (§4.1)
// these purges are unsafe and are disabled.
package trt

import (
	"slices"
	"sync"

	"repro/internal/oid"
)

// Action distinguishes tuple kinds.
type Action uint8

// Tuple actions.
const (
	// Insert records that a reference to Child was stored into Parent.
	Insert Action = iota
	// Delete records that a reference to Child was removed from Parent.
	Delete
)

func (a Action) String() string {
	if a == Insert {
		return "insert"
	}
	return "delete"
}

// TxnID mirrors the transaction id type.
type TxnID uint64

// Tuple is one TRT entry.
type Tuple struct {
	Child  oid.OID
	Parent oid.OID
	Txn    TxnID
	Act    Action
}

// Table is the TRT of one partition being reorganized. Two maps index
// it: byChild serves the reorganizer's lookups by referenced object, and
// delsByTxn serves the §4.5 purge's lookups by transaction.
type Table struct {
	part      oid.PartitionID
	strict2PL bool

	mu      sync.Mutex
	byChild map[oid.OID][]Tuple
	// delsByTxn lists, per transaction, the children of the delete tuples
	// it logged (kept only under strict 2PL, where the purge runs). An
	// entry is dropped when its transaction completes; children whose
	// tuples were drained by Take or TakeAny in the meantime simply have
	// nothing left to purge.
	delsByTxn map[TxnID][]oid.OID
	// created records objects created in the partition while the
	// reorganization runs, for the footnote-6 extension that migrates
	// late-created objects too.
	created []oid.OID
	total   int
	// purged counts tuples removed by the §4.5 optimization; exposed for
	// the ablation bench.
	purged int
}

// New creates an empty TRT for partition part. strict2PL enables the §4.5
// purge optimizations, which are only sound under strict 2PL.
func New(part oid.PartitionID, strict2PL bool) *Table {
	return &Table{
		part:      part,
		strict2PL: strict2PL,
		byChild:   make(map[oid.OID][]Tuple),
		delsByTxn: make(map[TxnID][]oid.OID),
	}
}

// Partition returns the partition this table belongs to.
func (t *Table) Partition() oid.PartitionID { return t.part }

// Log records a reference change. For deletes the caller must invoke this
// before the reference disappears from the parent (the WAL undo rule
// provides this ordering); for inserts, before the inserting transaction
// releases its lock on the parent.
func (t *Table) Log(child, parent oid.OID, txn TxnID, act Action) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.add(Tuple{child, parent, txn, act})
}

// add inserts tp into both indexes. Caller holds t.mu.
func (t *Table) add(tp Tuple) {
	t.byChild[tp.Child] = append(t.byChild[tp.Child], tp)
	t.total++
	if tp.Act != Delete || !t.strict2PL {
		return
	}
	// A transaction often logs several deletes on one child in a row
	// (a retargeted or deleted parent holding the reference twice); one
	// entry is enough, since the purge filters the child's whole list.
	kids := t.delsByTxn[tp.Txn]
	if n := len(kids); n == 0 || kids[n-1] != tp.Child {
		t.delsByTxn[tp.Txn] = append(kids, tp.Child)
	}
}

// LogCreation records that an object was created in the partition while
// the reorganization was running.
func (t *Table) LogCreation(o oid.OID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.created = append(t.created, o)
}

// TakeCreations returns and clears the list of objects created since the
// reorganization (or the previous call) — the work list for the
// late-creation migration pass.
func (t *Table) TakeCreations() []oid.OID {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.created
	t.created = nil
	return out
}

// Take removes and returns one tuple whose referenced object is child.
// This is the "∃ a tuple t in the TRT which has Oold as the referenced
// object → delete t" step of Find_Exact_Parents.
func (t *Table) Take(child oid.OID) (Tuple, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	tuples := t.byChild[child]
	if len(tuples) == 0 {
		return Tuple{}, false
	}
	return t.pop(child, tuples), true
}

// pop removes and returns the last of child's tuples, which must be
// non-empty. Caller holds t.mu.
func (t *Table) pop(child oid.OID, tuples []Tuple) Tuple {
	tp := tuples[len(tuples)-1]
	t.store(child, tuples[:len(tuples)-1])
	t.total--
	return tp
}

// store sets child's tuple list, dropping the key when it is empty.
// Caller holds t.mu.
func (t *Table) store(child oid.OID, tuples []Tuple) {
	if len(tuples) == 0 {
		delete(t.byChild, child)
	} else {
		t.byChild[child] = tuples
	}
}

// TakeAny removes and returns any one tuple. PQR uses it while quiescing:
// every tuple's parent is a potential new entry point into the partition
// that must be locked.
func (t *Table) TakeAny() (Tuple, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for child, tuples := range t.byChild {
		return t.pop(child, tuples), true
	}
	return Tuple{}, false
}

// TuplesFor returns a copy of the tuples referencing child.
func (t *Table) TuplesFor(child oid.OID) []Tuple {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Tuple(nil), t.byChild[child]...)
}

// Children returns the referenced objects of the TRT.
func (t *Table) Children() []oid.OID {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]oid.OID, 0, len(t.byChild))
	for c := range t.byChild {
		out = append(out, c)
	}
	return out
}

// Len returns the number of live tuples.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Purged returns the number of tuples removed by the space optimization.
func (t *Table) Purged() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.purged
}

// TxnComplete applies the §4.5 purges for a completed transaction. Under
// strict 2PL: all of txn's delete tuples are dropped; and if the
// transaction committed, insert tuples matching each of its committed
// deletes (same parent→child edge, any transaction) are dropped as well.
// Outside strict 2PL this is a no-op — a reference deleted by txn may
// have been seen and cached by a still-active transaction.
//
// The analyzer calls this under the WAL append mutex, so it visits only
// the children txn logged deletes for: its cost is the length of their
// tuple lists, not the size of the table.
func (t *Table) TxnComplete(txn TxnID, committed bool) {
	if !t.strict2PL {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	kids, ok := t.delsByTxn[txn]
	if !ok {
		return
	}
	delete(t.delsByTxn, txn)
	for _, child := range kids {
		t.purgeChild(child, txn, committed)
	}
}

// purgeChild drops txn's delete tuples on child and, if txn committed,
// one insert tuple of the same edge per dropped delete. Visiting a child
// twice is harmless: the second visit finds no delete of txn left.
// Caller holds t.mu.
func (t *Table) purgeChild(child oid.OID, txn TxnID, committed bool) {
	tuples := t.byChild[child]
	kept := tuples[:0]
	var buf [8]oid.OID
	deleted := buf[:0] // parents of txn's committed deletes, one per tuple
	for _, tp := range tuples {
		if tp.Txn == txn && tp.Act == Delete {
			if committed {
				deleted = append(deleted, tp.Parent)
			}
			t.total--
			t.purged++
			continue
		}
		kept = append(kept, tp)
	}
	if len(deleted) > 0 {
		// Each committed delete takes the first remaining insert of its
		// edge, whichever transaction logged it.
		rest := kept[:0]
		for _, tp := range kept {
			if tp.Act == Insert {
				if i := slices.Index(deleted, tp.Parent); i >= 0 {
					deleted = slices.Delete(deleted, i, i+1)
					t.total--
					t.purged++
					continue
				}
			}
			rest = append(rest, tp)
		}
		kept = rest
	}
	t.store(child, kept)
}

// Snapshot captures the TRT for reorganizer checkpoints (§4.4).
type Snapshot struct {
	Part   oid.PartitionID
	Tuples []Tuple
}

// Snapshot deep-copies the table.
func (t *Table) Snapshot() *Snapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &Snapshot{Part: t.part}
	for _, tuples := range t.byChild {
		s.Tuples = append(s.Tuples, tuples...)
	}
	return s
}

// Restore replaces the contents with the snapshot.
func (t *Table) Restore(s *Snapshot) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.byChild = make(map[oid.OID][]Tuple)
	t.delsByTxn = make(map[TxnID][]oid.OID)
	t.total = 0
	for _, tp := range s.Tuples {
		t.add(tp)
	}
}
