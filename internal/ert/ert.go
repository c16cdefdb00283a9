// Package ert implements the External Reference Table.
//
// Each partition P has an ERT storing every reference R→O such that O
// belongs to P and R does not (paper §2): back pointers for references
// coming into the partition from outside. The objects O appearing in the
// table are its "referenced objects" and are the starting points of the
// fuzzy traversal — together with Lemma 3.1 they guarantee the traversal
// reaches every live object of the partition without ever leaving it.
//
// The table is keyed by an extendible hash on the child OID, as in the
// paper's Brahmā implementation. Reference counts are kept per (child,
// parent) pair because an object may legitimately hold several references
// to the same child.
package ert

import (
	"sort"
	"sync/atomic"

	"repro/internal/exthash"
	"repro/internal/oid"
)

// Table is the External Reference Table of one partition.
type Table struct {
	part oid.PartitionID

	// m maps child OID -> parent OID -> reference count. The inner map
	// is mutated only via exthash.Update, under the hash table's lock.
	m *exthash.Map[map[oid.OID]int]

	// nRefs is the total reference count (with multiplicity). Atomic so
	// AddRef/RemoveRef touch exactly one lock — the hash bucket's — per
	// call instead of also serializing on a table-wide side mutex.
	nRefs atomic.Int64
}

// New creates an empty ERT for partition part.
func New(part oid.PartitionID) *Table {
	return &Table{part: part, m: exthash.New[map[oid.OID]int]()}
}

// Partition returns the partition this table belongs to.
func (t *Table) Partition() oid.PartitionID { return t.part }

// AddRef records one external reference parent→child. The caller is
// responsible for ensuring child is in this partition and parent is not.
//
// Both mutators copy the inner map instead of updating it in place:
// Parents hands the map obtained from Get to its caller's iteration
// outside the hash table's lock, so every published map must stay
// immutable. Inner maps are small (the external parents of one child),
// so the copy is cheap.
func (t *Table) AddRef(child, parent oid.OID) {
	t.m.Update(uint64(child), func(cur map[oid.OID]int, ok bool) (map[oid.OID]int, bool) {
		next := make(map[oid.OID]int, len(cur)+1)
		for p, c := range cur {
			next[p] = c
		}
		next[parent]++
		return next, true
	})
	t.nRefs.Add(1)
}

// RemoveRef removes one external reference parent→child. Removing a
// reference that was never added is a no-op (the log analyzer may observe
// deletes for references that predate the table's construction scan).
func (t *Table) RemoveRef(child, parent oid.OID) {
	removed := false
	t.m.Update(uint64(child), func(cur map[oid.OID]int, ok bool) (map[oid.OID]int, bool) {
		if !ok {
			return nil, false
		}
		if _, has := cur[parent]; !has {
			return cur, len(cur) > 0
		}
		removed = true
		next := make(map[oid.OID]int, len(cur))
		for p, c := range cur {
			next[p] = c
		}
		if next[parent] <= 1 {
			delete(next, parent)
		} else {
			next[parent]--
		}
		return next, len(next) > 0
	})
	if removed {
		t.nRefs.Add(-1)
	}
}

// Parents returns the distinct external parents of child, sorted for
// determinism.
func (t *Table) Parents(child oid.OID) []oid.OID {
	cur, ok := t.m.Get(uint64(child))
	if !ok {
		return nil
	}
	out := make([]oid.OID, 0, len(cur))
	for p := range cur {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// HasChild reports whether child has any external references.
func (t *Table) HasChild(child oid.OID) bool {
	_, ok := t.m.Get(uint64(child))
	return ok
}

// ReferencedObjects returns the referenced objects of the ERT — the fuzzy
// traversal's roots — sorted for determinism.
func (t *Table) ReferencedObjects() []oid.OID {
	keys := t.m.Keys()
	out := make([]oid.OID, len(keys))
	for i, k := range keys {
		out[i] = oid.OID(k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Children returns the number of referenced objects.
func (t *Table) Children() int { return t.m.Len() }

// Refs returns the total number of external references (counting
// multiplicity).
func (t *Table) Refs() int { return int(t.nRefs.Load()) }

// Range calls fn for every (child, parent, count) triple until fn returns
// false. Parents for one child are visited together but in map order.
func (t *Table) Range(fn func(child, parent oid.OID, count int) bool) {
	type entry struct {
		child, parent oid.OID
		count         int
	}
	var all []entry
	t.m.Range(func(k uint64, parents map[oid.OID]int) bool {
		for p, c := range parents {
			all = append(all, entry{oid.OID(k), p, c})
		}
		return true
	})
	for _, e := range all {
		if !fn(e.child, e.parent, e.count) {
			return
		}
	}
}

// Clear empties the table.
func (t *Table) Clear() {
	t.m.Clear()
	t.nRefs.Store(0)
}

// Snapshot captures the table contents for checkpointing (§4.4 discusses
// checkpointing the ERT to bound recovery work).
type Snapshot struct {
	Part oid.PartitionID
	Refs map[oid.OID]map[oid.OID]int
}

// Snapshot deep-copies the table.
func (t *Table) Snapshot() *Snapshot {
	s := &Snapshot{Part: t.part, Refs: make(map[oid.OID]map[oid.OID]int)}
	t.m.Range(func(k uint64, parents map[oid.OID]int) bool {
		cp := make(map[oid.OID]int, len(parents))
		for p, c := range parents {
			cp[p] = c
		}
		s.Refs[oid.OID(k)] = cp
		return true
	})
	return s
}

// Restore replaces the table contents with the snapshot.
func (t *Table) Restore(s *Snapshot) {
	t.Clear()
	for child, parents := range s.Refs {
		for p, c := range parents {
			for i := 0; i < c; i++ {
				t.AddRef(child, p)
			}
		}
	}
}
