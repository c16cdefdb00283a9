// Package analyzer implements the log analyzer that maintains the ERT and
// TRT.
//
// The paper (§3.3) maintains both tables by processing system log records
// "as soon as they are handed over to the logging subsystem", in a
// component deliberately separate from user code. This analyzer registers
// as the WAL's append observer, so it sees every record synchronously and
// in LSN order. That placement gives the two orderings the TRT
// correctness argument needs for free:
//
//   - a pointer delete is WAL-logged (undo rule) before the page mutation,
//     so the TRT tuple exists before the reference disappears;
//   - a pointer insert is logged before the transaction's locks are
//     released, so the tuple exists before any other transaction can
//     observe the new reference.
//
// ERTs exist for every partition at all times; a TRT exists only while a
// reorganization of its partition is in progress.
package analyzer

import (
	"fmt"
	"sync"

	"repro/internal/ert"
	"repro/internal/object"
	"repro/internal/oid"
	"repro/internal/trt"
	"repro/internal/wal"
)

// Analyzer routes reference changes from the log to ERTs and TRTs.
type Analyzer struct {
	mu   sync.RWMutex
	erts map[oid.PartitionID]*ert.Table
	trts map[oid.PartitionID]*trt.Table
}

// New creates an analyzer with no tables.
func New() *Analyzer {
	return &Analyzer{
		erts: make(map[oid.PartitionID]*ert.Table),
		trts: make(map[oid.PartitionID]*trt.Table),
	}
}

// ERT returns the ERT for part, creating it if needed.
func (a *Analyzer) ERT(part oid.PartitionID) *ert.Table {
	a.mu.RLock()
	t, ok := a.erts[part]
	a.mu.RUnlock()
	if ok {
		return t
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if t, ok = a.erts[part]; !ok {
		t = ert.New(part)
		a.erts[part] = t
	}
	return t
}

// ERTs returns all ERTs keyed by partition.
func (a *Analyzer) ERTs() map[oid.PartitionID]*ert.Table {
	a.mu.RLock()
	defer a.mu.RUnlock()
	out := make(map[oid.PartitionID]*ert.Table, len(a.erts))
	for p, t := range a.erts {
		out[p] = t
	}
	return out
}

// DropERT removes the ERT of a dropped partition.
func (a *Analyzer) DropERT(part oid.PartitionID) {
	a.mu.Lock()
	defer a.mu.Unlock()
	delete(a.erts, part)
}

// AttachTRT starts routing reference changes affecting t's partition into
// t. Called when a reorganization begins. At most one TRT may exist per
// partition — two reorganizers on the same partition would silently steal
// each other's reference tuples, so a double attach is a caller bug.
func (a *Analyzer) AttachTRT(t *trt.Table) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if old, ok := a.trts[t.Partition()]; ok && old != t {
		panic(fmt.Sprintf("analyzer: TRT already attached for partition %d", t.Partition()))
	}
	a.trts[t.Partition()] = t
}

// DetachTRT stops TRT maintenance for part. Called when the
// reorganization completes; the TRT ceases to exist (§4.5).
func (a *Analyzer) DetachTRT(part oid.PartitionID) {
	a.mu.Lock()
	defer a.mu.Unlock()
	delete(a.trts, part)
}

// TRT returns the TRT attached for part, if any.
func (a *Analyzer) TRT(part oid.PartitionID) (*trt.Table, bool) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	t, ok := a.trts[part]
	return t, ok
}

// Observe processes one log record. It is registered as the WAL observer
// and therefore runs synchronously with Append, in LSN order.
//
// Parent identity is r.Identity(): the logical OID in logical-OID mode,
// else the physical address. Reference lists inside images are already
// in identity space (logical mode stores logical refs), so child and
// parent always compare in the same namespace. RecPhysAlloc, RecPhysFree
// and RecMapSet fall through untouched by design — a relocation changes
// an object's placement, not its identity or its edges, which is exactly
// why logical mode needs no ERT/TRT work per migration.
func (a *Analyzer) Observe(r *wal.Record) {
	switch r.Type {
	case wal.RecCreate:
		// A new object's initial references are insertions from the new
		// parent; and a creation inside a partition under reorganization
		// is noted so the late-creation pass (paper footnote 6 /
		// [LRSS99]) can migrate the object too.
		parent := r.Identity()
		if obj, err := object.Decode(r.After); err == nil {
			for _, c := range obj.Refs {
				a.noteInsert(c, parent, r.Txn)
			}
		}
		if !r.CLR {
			a.mu.RLock()
			t := a.trts[parent.Partition()]
			a.mu.RUnlock()
			if t != nil {
				t.LogCreation(parent)
			}
		}
	case wal.RecDelete:
		if obj, err := object.Decode(r.Before); err == nil {
			for _, c := range obj.Refs {
				a.noteDelete(c, r.Identity(), r.Txn)
			}
		}
	case wal.RecRefInsert:
		a.noteInsert(r.Child, r.Identity(), r.Txn)
	case wal.RecRefDelete:
		a.noteDelete(r.Child, r.Identity(), r.Txn)
	case wal.RecRefUpdate:
		// A retarget rewrites its references in place, so the edges it
		// moved are the positions holding Child before and Child2 after.
		// Counting Child's occurrences alone would be wrong for a CLR:
		// its before-image is the forward after-image, which may hold
		// Child (the forward target) at positions the retarget never
		// touched.
		n := 0
		before, berr := object.DecodeRefs(r.Before)
		after, aerr := object.DecodeRefs(r.After)
		if berr == nil && aerr == nil && len(before) == len(after) {
			for i, c := range before {
				if c == r.Child && after[i] == r.Child2 {
					n++
				}
			}
		}
		if n == 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			a.noteDelete(r.Child, r.Identity(), r.Txn)
			a.noteInsert(r.Child2, r.Identity(), r.Txn)
		}
	case wal.RecCommit:
		a.txnComplete(r.Txn, true)
	case wal.RecAbort:
		a.txnComplete(r.Txn, false)
	}
}

// noteInsert records that parent gained a reference to child.
func (a *Analyzer) noteInsert(child, parent oid.OID, txn wal.TxnID) {
	if child.IsNil() {
		return
	}
	a.mu.RLock()
	var e *ert.Table
	if child.Partition() != parent.Partition() {
		e = a.erts[child.Partition()]
	}
	t := a.trts[child.Partition()]
	a.mu.RUnlock()
	if e != nil {
		e.AddRef(child, parent)
	}
	if t != nil {
		t.Log(child, parent, trt.TxnID(txn), trt.Insert)
	}
}

// noteDelete records that parent lost a reference to child.
func (a *Analyzer) noteDelete(child, parent oid.OID, txn wal.TxnID) {
	if child.IsNil() {
		return
	}
	a.mu.RLock()
	var e *ert.Table
	if child.Partition() != parent.Partition() {
		e = a.erts[child.Partition()]
	}
	t := a.trts[child.Partition()]
	a.mu.RUnlock()
	if e != nil {
		e.RemoveRef(child, parent)
	}
	if t != nil {
		t.Log(child, parent, trt.TxnID(txn), trt.Delete)
	}
}

// txnComplete applies TRT purge rules on commit/abort (§4.5). It runs
// under the WAL append mutex for every commit and abort, so it must not
// allocate: it walks the attached TRTs in place, and with no
// reorganization running there are none.
func (a *Analyzer) txnComplete(txn wal.TxnID, committed bool) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	for _, t := range a.trts {
		t.TxnComplete(trt.TxnID(txn), committed)
	}
}
