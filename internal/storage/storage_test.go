package storage

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/oid"
	"repro/internal/wal"
)

// applyCreate, applyUpdate and applyFree are unlogged Apply calls of the
// record type whose page effect the test exercises.
func applyCreate(s *Store, o oid.OID, data []byte) error {
	return s.Apply(&wal.Record{Type: wal.RecCreate, OID: o, After: data}, nil)
}

func applyUpdate(s *Store, o oid.OID, data []byte) error {
	return s.Apply(&wal.Record{Type: wal.RecUpdate, OID: o, After: data}, nil)
}

func applyFree(s *Store, o oid.OID) error {
	return s.Apply(&wal.Record{Type: wal.RecDelete, OID: o}, nil)
}

func mustSnapshot(t *testing.T, s *Store) *Snapshot {
	t.Helper()
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func newStore(t *testing.T, parts int, opts ...Option) *Store {
	t.Helper()
	s := New(opts...)
	for i := 0; i < parts; i++ {
		if err := s.CreatePartition(oid.PartitionID(i)); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestAllocateReadFree(t *testing.T) {
	s := newStore(t, 1)
	o, err := s.Allocate(0, []byte("payload"), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.IsNil() {
		t.Fatal("Allocate returned Nil OID")
	}
	got, err := s.Read(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "payload" {
		t.Fatalf("Read = %q", got)
	}
	if !s.Exists(o) {
		t.Fatal("Exists = false for live object")
	}
	if err := applyFree(s, o); err != nil {
		t.Fatal(err)
	}
	if s.Exists(o) {
		t.Fatal("Exists = true after Free")
	}
	if _, err := s.Read(o, nil); !errors.Is(err, ErrNoObject) {
		t.Fatalf("Read after Free: %v", err)
	}
}

func TestNilNeverAllocated(t *testing.T) {
	s := newStore(t, 1)
	for i := 0; i < 1000; i++ {
		o, err := s.Allocate(0, []byte{byte(i)}, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		if o.IsNil() {
			t.Fatal("allocated the nil OID")
		}
		if o.Page() == 0 {
			t.Fatal("allocated page 0")
		}
	}
}

func TestPartitionIsolation(t *testing.T) {
	s := newStore(t, 2)
	a, _ := s.Allocate(0, []byte("in-zero"), false, nil)
	b, _ := s.Allocate(1, []byte("in-one"), false, nil)
	if a.Partition() != 0 || b.Partition() != 1 {
		t.Fatalf("partitions: %v %v", a.Partition(), b.Partition())
	}
	got, _ := s.Read(b, nil)
	if string(got) != "in-one" {
		t.Fatalf("cross-partition read got %q", got)
	}
}

func TestUnknownPartition(t *testing.T) {
	s := newStore(t, 1)
	if _, err := s.Allocate(9, []byte("x"), false, nil); !errors.Is(err, ErrNoPartition) {
		t.Fatalf("err = %v", err)
	}
	if err := s.CreatePartition(0); !errors.Is(err, ErrPartitionExists) {
		t.Fatalf("duplicate create: %v", err)
	}
}

func TestUpdate(t *testing.T) {
	s := newStore(t, 1)
	o, _ := s.Allocate(0, []byte("small"), false, nil)
	if err := applyUpdate(s, o, []byte("bigger-than-before")); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Read(o, nil)
	if string(got) != "bigger-than-before" {
		t.Fatalf("Read after Update = %q", got)
	}
}

func TestUpdateWontFit(t *testing.T) {
	s := newStore(t, 1, WithPageSize(128), WithFillFactor(1.0))
	o, _ := s.Allocate(0, []byte("x"), false, nil)
	err := applyUpdate(s, o, make([]byte, 4096))
	if !errors.Is(err, ErrWontFit) && !errors.Is(err, ErrObjectTooLarge) {
		if err == nil {
			t.Fatal("oversized update succeeded")
		}
	}
	got, _ := s.Read(o, nil)
	if string(got) != "x" {
		t.Fatalf("object changed by failed update: %q", got)
	}
}

func TestObjectTooLarge(t *testing.T) {
	s := newStore(t, 1, WithPageSize(256))
	if _, err := s.Allocate(0, make([]byte, 1024), false, nil); !errors.Is(err, ErrObjectTooLarge) {
		t.Fatalf("err = %v", err)
	}
}

func TestFirstFitRefillsHoles(t *testing.T) {
	s := newStore(t, 1, WithPageSize(512), WithFillFactor(1.0))
	data := make([]byte, 100)
	var oids []oid.OID
	for i := 0; i < 20; i++ {
		o, err := s.Allocate(0, data, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, o)
	}
	st, _ := s.PartitionStats(0)
	pagesBefore := st.Pages
	// Free half, then reallocate: page count should not grow.
	for i := 0; i < len(oids); i += 2 {
		applyFree(s, oids[i])
	}
	for i := 0; i < len(oids)/2; i++ {
		if _, err := s.Allocate(0, data, false, nil); err != nil {
			t.Fatal(err)
		}
	}
	st, _ = s.PartitionStats(0)
	if st.Pages > pagesBefore {
		t.Fatalf("first-fit grew pages %d -> %d despite holes", pagesBefore, st.Pages)
	}
}

func TestAllocateDensePacks(t *testing.T) {
	s := newStore(t, 1, WithPageSize(512), WithFillFactor(1.0))
	data := make([]byte, 100)
	// Create holes via regular alloc + free.
	var oids []oid.OID
	for i := 0; i < 8; i++ {
		o, _ := s.Allocate(0, data, false, nil)
		oids = append(oids, o)
	}
	for _, o := range oids[:4] {
		applyFree(s, o)
	}
	// Dense allocation ignores the holes and appends at the tail.
	o1, err := s.Allocate(0, data, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := s.Allocate(0, data, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if o1.Page() != o2.Page() && o2.Page() != o1.Page()+1 {
		t.Fatalf("dense allocations not contiguous: %v then %v", o1, o2)
	}
	last := oid.PageNum(0)
	s.ForEach(0, func(o oid.OID, _ []byte) bool {
		if o.Page() > last {
			last = o.Page()
		}
		return true
	})
	if o2.Page() != last {
		t.Fatalf("dense allocation %v not at tail page %d", o2, last)
	}
}

func TestForEach(t *testing.T) {
	s := newStore(t, 1)
	want := map[oid.OID]string{}
	for i := 0; i < 50; i++ {
		data := []byte{byte(i), byte(i >> 8)}
		o, _ := s.Allocate(0, data, false, nil)
		want[o] = string(data)
	}
	got := map[oid.OID]string{}
	err := s.ForEach(0, func(o oid.OID, data []byte) bool {
		got[o] = string(data)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("visited %d, want %d", len(got), len(want))
	}
	for o, w := range want {
		if got[o] != w {
			t.Fatalf("object %v = %q, want %q", o, got[o], w)
		}
	}
}

func TestForEachEarlyStop(t *testing.T) {
	s := newStore(t, 1)
	for i := 0; i < 10; i++ {
		s.Allocate(0, []byte{1}, false, nil)
	}
	n := 0
	s.ForEach(0, func(oid.OID, []byte) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("visited %d, want 3", n)
	}
}

func TestStatsTrackFragmentation(t *testing.T) {
	s := newStore(t, 1, WithPageSize(1024), WithFillFactor(1.0))
	var oids []oid.OID
	for i := 0; i < 16; i++ {
		o, _ := s.Allocate(0, make([]byte, 50), false, nil)
		oids = append(oids, o)
	}
	st, _ := s.PartitionStats(0)
	if st.DeadBytes != 0 {
		t.Fatalf("fresh store has DeadBytes = %d", st.DeadBytes)
	}
	if st.Objects != 16 || st.LiveBytes != 800 {
		t.Fatalf("stats = %+v", st)
	}
	for _, o := range oids[:8] {
		applyFree(s, o)
	}
	st, _ = s.PartitionStats(0)
	if st.DeadBytes != 400 {
		t.Fatalf("DeadBytes = %d, want 400", st.DeadBytes)
	}
	if st.Objects != 8 {
		t.Fatalf("Objects = %d, want 8", st.Objects)
	}
	if st.Fragmentation() <= 0 {
		t.Fatal("Fragmentation() = 0 after deletes")
	}
}

func TestView(t *testing.T) {
	s := newStore(t, 1)
	o, _ := s.Allocate(0, []byte("viewed"), false, nil)
	var got []byte
	if err := s.View(o, func(data []byte) { got = append(got, data...) }); err != nil {
		t.Fatal(err)
	}
	if string(got) != "viewed" {
		t.Fatalf("View = %q", got)
	}
	if err := s.View(oid.New(0, 99, 0), func([]byte) {}); !errors.Is(err, ErrNoObject) {
		t.Fatalf("View of bad OID: %v", err)
	}
}

func TestDropPartition(t *testing.T) {
	s := newStore(t, 2)
	o, _ := s.Allocate(1, []byte("doomed"), false, nil)
	if err := s.DropPartition(1); err != nil {
		t.Fatal(err)
	}
	if s.Exists(o) {
		t.Fatal("object survived DropPartition")
	}
	if s.HasPartition(1) {
		t.Fatal("partition survived drop")
	}
	if err := s.DropPartition(1); !errors.Is(err, ErrNoPartition) {
		t.Fatalf("double drop: %v", err)
	}
}

func TestSnapshotRestore(t *testing.T) {
	s := newStore(t, 2)
	var oids []oid.OID
	var datas [][]byte
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		data := make([]byte, 1+rng.Intn(64))
		rng.Read(data)
		o, err := s.Allocate(oid.PartitionID(i%2), data, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, o)
		datas = append(datas, data)
	}
	applyFree(s, oids[7])
	snap := mustSnapshot(t, s)
	// Mutate the original after snapshotting; restore must see old state.
	applyUpdate(s, oids[3], []byte("mutated"))
	applyFree(s, oids[5])

	r := RestoreSnapshot(snap)
	for i, o := range oids {
		if i == 7 {
			if r.Exists(o) {
				t.Fatal("freed object resurrected by restore")
			}
			continue
		}
		got, err := r.Read(o, nil)
		if err != nil {
			t.Fatalf("restored Read(%v): %v", o, err)
		}
		if !bytes.Equal(got, datas[i]) {
			t.Fatalf("restored object %d disagrees", i)
		}
	}
	// Restored store is independently usable.
	if _, err := r.Allocate(0, []byte("new-after-restore"), false, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAllocateReadFree(t *testing.T) {
	s := newStore(t, 4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			part := oid.PartitionID(g % 4)
			rng := rand.New(rand.NewSource(int64(g)))
			var mine []oid.OID
			for i := 0; i < 500; i++ {
				switch {
				case len(mine) == 0 || rng.Intn(3) == 0:
					data := make([]byte, 1+rng.Intn(80))
					data[0] = byte(g)
					o, err := s.Allocate(part, data, false, nil)
					if err != nil {
						t.Errorf("alloc: %v", err)
						return
					}
					mine = append(mine, o)
				case rng.Intn(2) == 0:
					o := mine[rng.Intn(len(mine))]
					got, err := s.Read(o, nil)
					if err != nil {
						t.Errorf("read: %v", err)
						return
					}
					if got[0] != byte(g) {
						t.Errorf("object owned by %d contains %d", g, got[0])
						return
					}
				default:
					i := rng.Intn(len(mine))
					if err := applyFree(s, mine[i]); err != nil {
						t.Errorf("free: %v", err)
						return
					}
					mine = append(mine[:i], mine[i+1:]...)
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestAllocateAt(t *testing.T) {
	s := newStore(t, 0)
	o := oid.New(3, 7, 4)
	if err := applyCreate(s, o, []byte("exact")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(o, nil)
	if err != nil || string(got) != "exact" {
		t.Fatalf("Read = %q, %v", got, err)
	}
	// Overwrite in place is allowed (idempotent redo).
	if err := applyCreate(s, o, []byte("redone")); err != nil {
		t.Fatal(err)
	}
	got, _ = s.Read(o, nil)
	if string(got) != "redone" {
		t.Fatalf("Read after redo = %q", got)
	}
	st, _ := s.PartitionStats(3)
	if st.Objects != 1 {
		t.Fatalf("Objects = %d, want 1", st.Objects)
	}
}

func TestAllocateAtPageZeroRejected(t *testing.T) {
	s := newStore(t, 1)
	if err := applyCreate(s, oid.New(0, 0, 1), []byte("x")); err == nil {
		t.Fatal("a Create apply on page 0 succeeded")
	}
}

func TestAllocateAtThenAllocateCoexist(t *testing.T) {
	s := newStore(t, 1)
	fixed := oid.New(0, 2, 9)
	if err := applyCreate(s, fixed, []byte("fixed")); err != nil {
		t.Fatal(err)
	}
	// Ordinary allocations must not collide with the fixed object.
	for i := 0; i < 200; i++ {
		o, err := s.Allocate(0, []byte("dyn"), false, nil)
		if err != nil {
			t.Fatal(err)
		}
		if o == fixed {
			t.Fatal("Allocate returned an address occupied via a Create apply")
		}
	}
	got, _ := s.Read(fixed, nil)
	if string(got) != "fixed" {
		t.Fatalf("fixed object corrupted: %q", got)
	}
}

func TestTrimPages(t *testing.T) {
	s := newStore(t, 1, WithPageSize(512), WithFillFactor(1.0))
	data := make([]byte, 100)
	var oids []oid.OID
	for i := 0; i < 20; i++ {
		o, _ := s.Allocate(0, data, false, nil)
		oids = append(oids, o)
	}
	st, _ := s.PartitionStats(0)
	if st.Pages < 4 {
		t.Fatalf("expected several pages, got %d", st.Pages)
	}
	// Empty all but the last page's objects.
	survivor := oids[len(oids)-1]
	for _, o := range oids[:len(oids)-1] {
		if o.Page() != survivor.Page() {
			applyFree(s, o)
		}
	}
	trimmed, err := s.TrimPages(0)
	if err != nil {
		t.Fatal(err)
	}
	if trimmed == 0 {
		t.Fatal("no pages trimmed")
	}
	st2, _ := s.PartitionStats(0)
	if st2.Pages >= st.Pages {
		t.Fatalf("Pages %d -> %d after trim", st.Pages, st2.Pages)
	}
	// Survivors still readable; trimmed addresses dead.
	if got, err := s.Read(survivor, nil); err != nil || len(got) != 100 {
		t.Fatalf("survivor unreadable: %v", err)
	}
	if s.Exists(oids[0]) {
		t.Fatal("freed+trimmed object still exists")
	}
	// Allocation works after trimming (new pages appended or holes reused).
	if _, err := s.Allocate(0, data, false, nil); err != nil {
		t.Fatal(err)
	}
	// A Create apply can resurrect a trimmed page slot.
	if err := applyCreate(s, oids[0], data); err != nil {
		t.Fatal(err)
	}
	if !s.Exists(oids[0]) {
		t.Fatal("Create apply into trimmed page failed silently")
	}
}

func TestSnapshotRestoreWithTrimmedPages(t *testing.T) {
	s := newStore(t, 1, WithPageSize(512), WithFillFactor(1.0))
	data := make([]byte, 100)
	var oids []oid.OID
	for i := 0; i < 12; i++ {
		o, _ := s.Allocate(0, data, false, nil)
		oids = append(oids, o)
	}
	for _, o := range oids[:8] {
		applyFree(s, o)
	}
	s.TrimPages(0)
	snap := mustSnapshot(t, s)
	r := RestoreSnapshot(snap)
	for _, o := range oids[8:] {
		if !r.Exists(o) {
			t.Fatalf("object %v lost across trimmed snapshot", o)
		}
	}
	for _, o := range oids[:8] {
		if r.Exists(o) {
			t.Fatalf("freed object %v resurrected", o)
		}
	}
}

func TestSnapshotSerializationRoundTrip(t *testing.T) {
	s := newStore(t, 2, WithPageSize(512))
	var oids []oid.OID
	for i := 0; i < 60; i++ {
		o, _ := s.Allocate(oid.PartitionID(i%2), []byte{byte(i), byte(i + 1)}, false, nil)
		oids = append(oids, o)
	}
	applyFree(s, oids[5])
	s.TrimPages(0) // exercise nil-page serialization when a page empties
	snap := mustSnapshot(t, s)

	var buf bytes.Buffer
	if _, err := snap.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	r := RestoreSnapshot(got)
	for i, o := range oids {
		if i == 5 {
			if r.Exists(o) {
				t.Fatal("freed object resurrected through serialization")
			}
			continue
		}
		data, err := r.Read(o, nil)
		if err != nil {
			t.Fatalf("read %v: %v", o, err)
		}
		if data[0] != byte(i) {
			t.Fatalf("object %d corrupted", i)
		}
	}
	// The restored store allocates consistently (cursor/denseFloor kept).
	if _, err := r.Allocate(0, []byte("post"), false, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReadSnapshotRejectsGarbage(t *testing.T) {
	if _, err := ReadSnapshot(bytes.NewReader([]byte("not a snapshot"))); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("err = %v", err)
	}
	// Truncated stream.
	s := newStore(t, 1)
	s.Allocate(0, []byte("x"), false, nil)
	var buf bytes.Buffer
	mustSnapshot(t, s).WriteTo(&buf)
	if _, err := ReadSnapshot(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("truncated: %v", err)
	}
}

// TestApplyLogsOnlyAfterValidation checks Apply's append discipline: a
// mutation the store refuses calls no append callback, an append failure
// leaves the page unchanged, and a record type without a page effect
// only appends.
func TestApplyLogsOnlyAfterValidation(t *testing.T) {
	s := newStore(t, 1, WithPageSize(256))
	o, err := s.Allocate(0, []byte("small"), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	appends := 0
	logFn := func() (wal.LSN, error) { appends++; return wal.LSN(appends), nil }
	refused := []struct {
		r    *wal.Record
		want error
	}{
		{&wal.Record{Type: wal.RecUpdate, OID: oid.New(0, 1, 9), After: []byte("x")}, ErrNoObject},
		{&wal.Record{Type: wal.RecDelete, OID: oid.New(0, 1, 9)}, ErrNoObject},
		{&wal.Record{Type: wal.RecRefInsert, OID: o, After: make([]byte, 300)}, ErrWontFit},
		{&wal.Record{Type: wal.RecCreate, OID: oid.New(0, 0, 1), After: []byte("x")}, ErrNoObject},
		{&wal.Record{Type: wal.RecUpdate, OID: oid.New(5, 1, 0), After: []byte("x")}, ErrNoPartition},
	}
	for _, tc := range refused {
		if err := s.Apply(tc.r, logFn); !errors.Is(err, tc.want) {
			t.Fatalf("Apply(%v at %s) = %v, want %v", tc.r.Type, tc.r.OID, err, tc.want)
		}
	}
	if appends != 0 {
		t.Fatalf("refused mutations appended %d records", appends)
	}
	failing := func() (wal.LSN, error) { return 0, errors.New("log full") }
	if err := s.Apply(&wal.Record{Type: wal.RecUpdate, OID: o, After: []byte("other")}, failing); err == nil {
		t.Fatal("append failure not returned")
	}
	if got, _ := s.Read(o, nil); string(got) != "small" {
		t.Fatalf("object after failed append = %q", got)
	}
	if err := s.Apply(&wal.Record{Type: wal.RecMapSet, Child: o, Child2: o}, logFn); err != nil || appends != 1 {
		t.Fatalf("MapSet apply: %v, %d appends", err, appends)
	}
	if got, _ := s.Read(o, nil); string(got) != "small" {
		t.Fatalf("MapSet changed the page: %q", got)
	}
	if err := s.Apply(&wal.Record{Type: wal.RecUpdate, OID: o, After: []byte("bigger")}, logFn); err != nil || appends != 2 {
		t.Fatalf("update apply: %v, %d appends", err, appends)
	}
	if got, _ := s.Read(o, nil); string(got) != "bigger" {
		t.Fatalf("object after update = %q", got)
	}
}
