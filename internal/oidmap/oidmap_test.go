package oidmap

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/oid"
	"repro/internal/wal"
)

func TestNextIDUniqueAndPartitioned(t *testing.T) {
	m := New()
	seen := make(map[oid.OID]bool)
	for part := oid.PartitionID(1); part <= 3; part++ {
		for i := 0; i < 100; i++ {
			l := m.NextID(part)
			if l.IsNil() {
				t.Fatalf("nil logical OID")
			}
			if l.Partition() != part {
				t.Fatalf("NextID(%d) in partition %d", part, l.Partition())
			}
			if seen[l] {
				t.Fatalf("duplicate logical OID %s", l)
			}
			seen[l] = true
		}
	}
}

func TestSetAdvancesSequence(t *testing.T) {
	m := New()
	// Simulate recovery replaying a Set of a high identity, then minting.
	high := oidOf(7, seqStart+41)
	m.Set(high, oid.New(7, 1, 0))
	l := m.NextID(7)
	if seqOf(l) <= seqOf(high) {
		t.Fatalf("NextID %s not past restored identity %s", l, high)
	}
}

func TestResolveSetDelete(t *testing.T) {
	m := New()
	l := m.NextID(1)
	if _, ok := m.Resolve(l); ok {
		t.Fatalf("unbound identity resolves")
	}
	p := oid.New(1, 2, 3)
	m.Set(l, p)
	if got, ok := m.Resolve(l); !ok || got != p {
		t.Fatalf("Resolve = %v, %v; want %v", got, ok, p)
	}
	m.Delete(l)
	if _, ok := m.Resolve(l); ok {
		t.Fatalf("deleted identity resolves")
	}
	m.Delete(l) // idempotent
}

func TestPartitionEnumeration(t *testing.T) {
	m := New()
	var want []oid.OID
	for i := 0; i < 10; i++ {
		l := m.NextID(2)
		m.Set(l, oid.New(2, oid.PageNum(i+1), 0))
		want = append(want, l)
	}
	m.Set(m.NextID(5), oid.New(5, 1, 0))
	got := m.PartitionOIDs(2)
	if len(got) != len(want) {
		t.Fatalf("PartitionOIDs(2) = %d entries, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("PartitionOIDs order: got[%d]=%s want %s", i, got[i], want[i])
		}
	}
	parts := m.Partitions()
	if len(parts) != 2 || parts[0] != 2 || parts[1] != 5 {
		t.Fatalf("Partitions() = %v", parts)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	m := New()
	for i := 0; i < 50; i++ {
		l := m.NextID(oid.PartitionID(i%4 + 1))
		m.Set(l, oid.New(l.Partition(), oid.PageNum(i+1), oid.SlotNum(i)))
	}
	snap := m.Snapshot()

	var buf bytes.Buffer
	if _, err := snap.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if len(got.Entries) != len(snap.Entries) || len(got.Seq) != len(snap.Seq) {
		t.Fatalf("round trip size mismatch")
	}
	for l, p := range snap.Entries {
		if got.Entries[l] != p {
			t.Fatalf("entry %s: got %s want %s", l, got.Entries[l], p)
		}
	}
	for part, v := range snap.Seq {
		if got.Seq[part] != v {
			t.Fatalf("seq %d: got %d want %d", part, got.Seq[part], v)
		}
	}

	m2 := New()
	m2.Restore(got)
	if m2.Len() != m.Len() {
		t.Fatalf("restored Len %d want %d", m2.Len(), m.Len())
	}
	// Restored allocators must not re-mint live identities.
	l := m2.NextID(1)
	if _, ok := m2.Resolve(l); ok {
		t.Fatalf("fresh identity %s already bound after restore", l)
	}
}

func TestReadSnapshotRejectsGarbage(t *testing.T) {
	if _, err := ReadSnapshot(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Fatalf("garbage accepted")
	}
}

func TestApplyUndo(t *testing.T) {
	m := New()
	l := m.NextID(1)
	oldP := oid.New(1, 1, 1)
	newP := oid.New(1, 9, 9)

	create := &wal.Record{Type: wal.RecCreate, OID: oldP, Obj: l}
	Apply(m, create)
	if got, _ := m.Resolve(l); got != oldP {
		t.Fatalf("after create apply: %s", got)
	}
	mv := &wal.Record{Type: wal.RecMapSet, Obj: l, Child: oldP, Child2: newP}
	Apply(m, mv)
	if got, _ := m.Resolve(l); got != newP {
		t.Fatalf("after mapset apply: %s", got)
	}
	Apply(m, mv.Compensation())
	if got, _ := m.Resolve(l); got != oldP {
		t.Fatalf("after mapset undo: %s", got)
	}
	del := &wal.Record{Type: wal.RecDelete, OID: oldP, Obj: l, Before: nil}
	Apply(m, del)
	if _, ok := m.Resolve(l); ok {
		t.Fatalf("after delete apply: still bound")
	}
	Apply(m, del.Compensation())
	if got, _ := m.Resolve(l); got != oldP {
		t.Fatalf("after delete undo: %s", got)
	}
	// Physical-mode records (Obj 0) are no-ops.
	Apply(m, &wal.Record{Type: wal.RecDelete, OID: oldP})
	if got, _ := m.Resolve(l); got != oldP {
		t.Fatalf("physical record touched the map")
	}
}

func TestConcurrentResolve(t *testing.T) {
	m := New()
	var ids []oid.OID
	for i := 0; i < 256; i++ {
		l := m.NextID(1)
		m.Set(l, oid.New(1, oid.PageNum(i+1), 0))
		ids = append(ids, l)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				l := ids[(i*7+w)%len(ids)]
				if _, ok := m.Resolve(l); !ok {
					t.Errorf("lost binding %s", l)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				l := m.NextID(oid.PartitionID(w + 2))
				m.Set(l, oid.New(l.Partition(), 1, oid.SlotNum(i)))
			}
		}(w)
	}
	wg.Wait()
}
