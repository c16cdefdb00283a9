package page

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestInsertGet(t *testing.T) {
	p := New(DefaultSize)
	s, err := p.Insert([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Get(s)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Fatalf("Get = %q, want hello", got)
	}
	if p.LiveSlots() != 1 {
		t.Fatalf("LiveSlots = %d, want 1", p.LiveSlots())
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertMany(t *testing.T) {
	p := New(DefaultSize)
	var slots []uint16
	for i := 0; i < 100; i++ {
		s, err := p.Insert([]byte{byte(i), byte(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		slots = append(slots, s)
	}
	for i, s := range slots {
		got, err := p.Get(s)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(i) || got[1] != byte(i+1) {
			t.Fatalf("slot %d corrupted: %v", s, got)
		}
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDelete(t *testing.T) {
	p := New(DefaultSize)
	s, _ := p.Insert([]byte("doomed"))
	if err := p.Delete(s); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(s); err != ErrBadSlot {
		t.Fatalf("Get after Delete: err = %v, want ErrBadSlot", err)
	}
	if err := p.Delete(s); err != ErrBadSlot {
		t.Fatalf("double Delete: err = %v, want ErrBadSlot", err)
	}
	if p.DeadBytes() != 6 {
		t.Fatalf("DeadBytes = %d, want 6", p.DeadBytes())
	}
}

func TestSlotReuseKeepsOtherSlotsStable(t *testing.T) {
	p := New(DefaultSize)
	a, _ := p.Insert([]byte("aaa"))
	b, _ := p.Insert([]byte("bbb"))
	c, _ := p.Insert([]byte("ccc"))
	if err := p.Delete(b); err != nil {
		t.Fatal(err)
	}
	d, err := p.Insert([]byte("ddd"))
	if err != nil {
		t.Fatal(err)
	}
	if d != b {
		t.Fatalf("freed slot %d not reused, got %d", b, d)
	}
	for _, tc := range []struct {
		s    uint16
		want string
	}{{a, "aaa"}, {c, "ccc"}, {d, "ddd"}} {
		got, err := p.Get(tc.s)
		if err != nil || string(got) != tc.want {
			t.Fatalf("slot %d = %q (%v), want %q", tc.s, got, err, tc.want)
		}
	}
}

func TestPageFull(t *testing.T) {
	p := New(MinSize)
	filler := make([]byte, MinSize) // larger than any page free space
	if _, err := p.Insert(filler); err != ErrPageFull {
		t.Fatalf("err = %v, want ErrPageFull", err)
	}
	// Fill with small cells until full, then verify everything survives.
	var n int
	for {
		if _, err := p.Insert([]byte{1, 2, 3, 4}); err != nil {
			break
		}
		n++
	}
	if n == 0 {
		t.Fatal("could not insert anything in a MinSize page")
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCompactReclaimsDeadBytes(t *testing.T) {
	p := New(256)
	var slots []uint16
	for i := 0; i < 8; i++ {
		s, err := p.Insert(bytes.Repeat([]byte{byte(i)}, 16))
		if err != nil {
			t.Fatal(err)
		}
		slots = append(slots, s)
	}
	// Delete every other cell to create interior gaps.
	for i := 0; i < len(slots); i += 2 {
		if err := p.Delete(slots[i]); err != nil {
			t.Fatal(err)
		}
	}
	dead := p.DeadBytes()
	if dead == 0 {
		t.Fatal("expected dead bytes after deletes")
	}
	p.Compact()
	if p.DeadBytes() != 0 {
		t.Fatalf("DeadBytes after Compact = %d", p.DeadBytes())
	}
	for i := 1; i < len(slots); i += 2 {
		got, err := p.Get(slots[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, bytes.Repeat([]byte{byte(i)}, 16)) {
			t.Fatalf("slot %d corrupted after Compact", slots[i])
		}
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertTriggersCompaction(t *testing.T) {
	p := New(128)
	// Fill the page with 4 cells, delete two interior ones, then insert a
	// cell that only fits if the dead space is compacted away.
	cellSize := (128 - headerSize - 4*slotSize) / 4
	var slots []uint16
	for i := 0; i < 4; i++ {
		s, err := p.Insert(bytes.Repeat([]byte{byte(i)}, cellSize))
		if err != nil {
			t.Fatal(err)
		}
		slots = append(slots, s)
	}
	p.Delete(slots[1])
	p.Delete(slots[2])
	big := bytes.Repeat([]byte{9}, cellSize+cellSize/2)
	s, err := p.Insert(big)
	if err != nil {
		t.Fatalf("insert needing compaction failed: %v", err)
	}
	got, _ := p.Get(s)
	if !bytes.Equal(got, big) {
		t.Fatal("cell corrupted by compacting insert")
	}
	for _, i := range []int{0, 3} {
		got, err := p.Get(slots[i])
		if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{byte(i)}, cellSize)) {
			t.Fatalf("surviving slot %d corrupted", slots[i])
		}
	}
}

func TestUpdateInPlace(t *testing.T) {
	p := New(DefaultSize)
	s, _ := p.Insert([]byte("abcdef"))
	if err := p.Update(s, []byte("xyz")); err != nil {
		t.Fatal(err)
	}
	got, _ := p.Get(s)
	if string(got) != "xyz" {
		t.Fatalf("Get after shrink = %q", got)
	}
	if p.DeadBytes() != 3 {
		t.Fatalf("DeadBytes after shrink = %d, want 3", p.DeadBytes())
	}
}

func TestUpdateGrow(t *testing.T) {
	p := New(DefaultSize)
	s, _ := p.Insert([]byte("ab"))
	other, _ := p.Insert([]byte("other"))
	long := bytes.Repeat([]byte{7}, 100)
	if err := p.Update(s, long); err != nil {
		t.Fatal(err)
	}
	got, _ := p.Get(s)
	if !bytes.Equal(got, long) {
		t.Fatal("grown cell corrupted")
	}
	o, _ := p.Get(other)
	if string(o) != "other" {
		t.Fatal("unrelated cell corrupted by grow")
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateGrowTooBig(t *testing.T) {
	p := New(MinSize)
	s, _ := p.Insert([]byte("ab"))
	if err := p.Update(s, make([]byte, MinSize)); err != ErrPageFull {
		t.Fatalf("err = %v, want ErrPageFull", err)
	}
	got, err := p.Get(s)
	if err != nil || string(got) != "ab" {
		t.Fatalf("old cell not intact after failed grow: %q, %v", got, err)
	}
}

func TestZeroLengthCell(t *testing.T) {
	p := New(DefaultSize)
	s, err := p.Insert(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Get(s)
	if err != nil {
		t.Fatalf("Get zero-length: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("len = %d, want 0", len(got))
	}
	if !p.Has(s) {
		t.Fatal("Has = false for zero-length cell")
	}
}

func TestSlotsIteration(t *testing.T) {
	p := New(DefaultSize)
	want := map[uint16]string{}
	for i := 0; i < 10; i++ {
		s, _ := p.Insert([]byte{byte('a' + i)})
		want[s] = string([]byte{byte('a' + i)})
	}
	var del uint16 = 4
	p.Delete(del)
	delete(want, del)
	got := map[uint16]string{}
	p.Slots(func(s uint16, data []byte) bool {
		got[s] = string(data)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("iterated %d slots, want %d", len(got), len(want))
	}
	for s, v := range want {
		if got[s] != v {
			t.Fatalf("slot %d = %q, want %q", s, got[s], v)
		}
	}
}

func TestBadSlotAccess(t *testing.T) {
	p := New(DefaultSize)
	if _, err := p.Get(0); err != ErrBadSlot {
		t.Fatalf("Get(0) on empty page: %v", err)
	}
	if err := p.Update(3, []byte("x")); err != ErrBadSlot {
		t.Fatalf("Update bad slot: %v", err)
	}
	if err := p.Delete(9); err != ErrBadSlot {
		t.Fatalf("Delete bad slot: %v", err)
	}
}

// TestRandomOpsAgainstModel drives a page with random inserts, deletes and
// updates, mirroring them into a map model, and checks full agreement plus
// structural validity after every operation.
func TestRandomOpsAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		size := 128 + rng.Intn(4096)
		p := New(size)
		model := map[uint16][]byte{}
		for op := 0; op < 500; op++ {
			switch r := rng.Intn(10); {
			case r < 5: // insert
				data := make([]byte, rng.Intn(64))
				rng.Read(data)
				s, err := p.Insert(data)
				if err == nil {
					model[s] = append([]byte(nil), data...)
				} else if err != ErrPageFull {
					t.Fatalf("insert: %v", err)
				}
			case r < 8: // delete a random live slot
				for s := range model {
					if err := p.Delete(s); err != nil {
						t.Fatalf("delete live slot %d: %v", s, err)
					}
					delete(model, s)
					break
				}
			default: // update a random live slot
				for s := range model {
					data := make([]byte, rng.Intn(96))
					rng.Read(data)
					err := p.Update(s, data)
					if err == nil {
						model[s] = append([]byte(nil), data...)
					} else if err != ErrPageFull {
						t.Fatalf("update: %v", err)
					}
					break
				}
			}
			if err := p.Validate(); err != nil {
				t.Fatalf("trial %d op %d: %v", trial, op, err)
			}
		}
		// Final agreement check.
		if p.LiveSlots() != len(model) {
			t.Fatalf("LiveSlots = %d, model has %d", p.LiveSlots(), len(model))
		}
		for s, want := range model {
			got, err := p.Get(s)
			if err != nil {
				t.Fatalf("Get(%d): %v", s, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("slot %d disagrees with model", s)
			}
		}
	}
}

func TestWrapRoundTrip(t *testing.T) {
	p := New(512)
	s, _ := p.Insert([]byte("persisted"))
	q := Wrap(append([]byte(nil), p.Bytes()...))
	got, err := q.Get(s)
	if err != nil || string(got) != "persisted" {
		t.Fatalf("wrapped page: %q, %v", got, err)
	}
}

func TestNewPanicsOnBadSize(t *testing.T) {
	for _, size := range []int{0, MinSize - 1, MaxSize + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", size)
				}
			}()
			New(size)
		}()
	}
}

func TestInsertAt(t *testing.T) {
	p := New(512)
	if err := p.InsertAt(5, []byte("at-five")); err != nil {
		t.Fatal(err)
	}
	got, err := p.Get(5)
	if err != nil || string(got) != "at-five" {
		t.Fatalf("Get(5) = %q, %v", got, err)
	}
	if p.NumSlots() != 6 {
		t.Fatalf("NumSlots = %d, want 6", p.NumSlots())
	}
	if p.LiveSlots() != 1 {
		t.Fatalf("LiveSlots = %d, want 1", p.LiveSlots())
	}
	// Slots 0-4 are free and reusable by ordinary Insert.
	s, err := p.Insert([]byte("reuse"))
	if err != nil {
		t.Fatal(err)
	}
	if s >= 5 {
		t.Fatalf("Insert did not reuse a free slot: got %d", s)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertAtOccupied(t *testing.T) {
	p := New(512)
	s, _ := p.Insert([]byte("here"))
	if err := p.InsertAt(s, []byte("clobber")); err == nil {
		t.Fatal("InsertAt over live cell succeeded")
	}
}

func TestInsertAtAfterDelete(t *testing.T) {
	p := New(512)
	s, _ := p.Insert([]byte("first"))
	p.Delete(s)
	if err := p.InsertAt(s, []byte("second")); err != nil {
		t.Fatal(err)
	}
	got, _ := p.Get(s)
	if string(got) != "second" {
		t.Fatalf("Get = %q", got)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertAtFullPage(t *testing.T) {
	p := New(MinSize)
	if err := p.InsertAt(3, make([]byte, MinSize)); err != ErrPageFull {
		t.Fatalf("err = %v, want ErrPageFull", err)
	}
}

// compactOracle is the selection-sort Compact that the sorted one
// replaced, kept as the reference it must match.
func compactOracle(p *Page) {
	type cell struct {
		slot   int
		off    uint16
		length uint16
	}
	var cells []cell
	for i := 0; i < p.NumSlots(); i++ {
		off, length := p.slot(i)
		if off != 0 {
			cells = append(cells, cell{i, off, length})
		}
	}
	// Move cells from the highest offset down so copies never overlap
	// destructively.
	for i := 0; i < len(cells); i++ {
		hi := i
		for j := i + 1; j < len(cells); j++ {
			if cells[j].off > cells[hi].off {
				hi = j
			}
		}
		cells[i], cells[hi] = cells[hi], cells[i]
	}
	write := len(p.buf)
	for _, c := range cells {
		write -= int(c.length)
		copy(p.buf[write:], p.buf[c.off:int(c.off)+int(c.length)])
		p.setSlot(c.slot, uint16(write), c.length)
	}
	p.setCellStart(uint16(write - 1))
	p.setDeadBytes(0)
}

// offsetTie reports whether two live cells start at the same offset,
// which only zero-length cells can do.
func offsetTie(p *Page) bool {
	seen := map[uint16]bool{}
	for i := 0; i < p.NumSlots(); i++ {
		if off, _ := p.slot(i); off != 0 {
			if seen[off] {
				return true
			}
			seen[off] = true
		}
	}
	return false
}

// TestCompactMatchesOracle runs random slot, insert, insert-at, delete
// and update histories and, after every step, compacts a copy of the
// page with Compact and another with the oracle. The pages must be
// byte-identical. Where zero-length cells tie on offset, the oracle's
// swap order decides which of the tied cells moves first, so there the
// pages must instead agree on every cell, the cell start and the slot
// directory's shape.
func TestCompactMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	identical, ties := 0, 0
	for trial := 0; trial < 40; trial++ {
		size := MinSize + rng.Intn(4096)
		p := New(size)
		maxCell := 1 + rng.Intn(size/4)
		live := func() []uint16 {
			var out []uint16
			p.Slots(func(s uint16, _ []byte) bool { out = append(out, s); return true })
			return out
		}
		for op := 0; op < 300; op++ {
			data := make([]byte, rng.Intn(maxCell))
			rng.Read(data)
			switch r := rng.Intn(10); {
			case r < 4:
				p.Insert(data)
			case r < 5:
				p.InsertAt(uint16(rng.Intn(p.NumSlots()+3)), data)
			case r < 8:
				if ls := live(); len(ls) > 0 {
					p.Delete(ls[rng.Intn(len(ls))])
				}
			default:
				if ls := live(); len(ls) > 0 {
					p.Update(ls[rng.Intn(len(ls))], data)
				}
			}
			got := Wrap(bytes.Clone(p.Bytes()))
			want := Wrap(bytes.Clone(p.Bytes()))
			tie := offsetTie(got)
			got.Compact()
			compactOracle(want)
			if err := got.Validate(); err != nil {
				t.Fatalf("trial %d op %d: %v", trial, op, err)
			}
			if !tie {
				identical++
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Fatalf("trial %d op %d: Compact differs from the oracle", trial, op)
				}
				continue
			}
			ties++
			if got.NumSlots() != want.NumSlots() || got.cellStart() != want.cellStart() || got.DeadBytes() != 0 {
				t.Fatalf("trial %d op %d (offset tie): header differs from the oracle", trial, op)
			}
			for s := 0; s < got.NumSlots(); s++ {
				g, gerr := got.Get(uint16(s))
				w, werr := want.Get(uint16(s))
				if (gerr == nil) != (werr == nil) || !bytes.Equal(g, w) {
					t.Fatalf("trial %d op %d (offset tie): slot %d differs from the oracle", trial, op, s)
				}
			}
		}
	}
	if identical == 0 || ties == 0 {
		t.Fatalf("histories compared %d tie-free and %d tied pages; both kinds are needed", identical, ties)
	}
}

func TestCompactAllocatesNothing(t *testing.T) {
	p := New(DefaultSize)
	var slots []uint16
	for {
		s, err := p.Insert(make([]byte, 40))
		if err != nil {
			break
		}
		slots = append(slots, s)
	}
	for i, s := range slots {
		if i%3 == 0 {
			p.Delete(s)
		}
	}
	if allocs := testing.AllocsPerRun(50, p.Compact); allocs != 0 {
		t.Fatalf("Compact allocates %v times, want 0", allocs)
	}
}
