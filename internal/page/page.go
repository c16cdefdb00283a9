// Package page implements slotted pages, the unit of physical storage.
//
// A page is a fixed-size byte buffer holding variable-length cells
// addressed by slot number. Slot numbers are stable across in-page
// compaction, so an OID (partition, page, slot) stays valid until the
// object is explicitly deleted or migrated. Deleting cells leaves dead
// bytes behind; Insert transparently compacts the page when the dead
// bytes are needed. The fragmentation this creates across a whole
// partition — dead bytes that in-page compaction cannot reclaim because
// live cells are pinned to their pages — is the paper's §1 motivation for
// on-line reorganization.
package page

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// Layout constants. All offsets within a page fit in uint16, so the page
// size is capped at 64 KiB.
const (
	headerSize = 8
	slotSize   = 4

	// MinSize is the smallest usable page size.
	MinSize = 64
	// MaxSize is the largest supported page size (offsets are uint16,
	// and a zero-length cell appended to an empty page gets offset ==
	// size, so size must stay representable).
	MaxSize = 1<<16 - 1
	// DefaultSize is the page size used by the storage layer unless
	// configured otherwise.
	DefaultSize = 8192
)

// Header field offsets.
const (
	offNumSlots  = 0 // uint16: number of slot entries (including free ones)
	offCellStart = 2 // uint16: lowest used cell offset; cells live in [cellStart, size)
	offDeadBytes = 4 // uint16: bytes occupied by deleted cells
	offFreeSlots = 6 // uint16: number of free (reusable) slot entries
)

// Errors returned by page operations.
var (
	// ErrPageFull reports that the page cannot hold the requested cell
	// even after compaction.
	ErrPageFull = errors.New("page: not enough free space")
	// ErrBadSlot reports an access to a slot that does not exist or has
	// been deleted.
	ErrBadSlot = errors.New("page: no such slot")
)

// Page is a slotted page over a fixed-size buffer. It is not safe for
// concurrent use; callers serialize access with latches (internal/latch).
type Page struct {
	buf []byte
}

// New allocates an empty page of the given size.
func New(size int) *Page {
	if size < MinSize || size > MaxSize {
		panic(fmt.Sprintf("page: size %d out of range [%d,%d]", size, MinSize, MaxSize))
	}
	p := &Page{buf: make([]byte, size)}
	p.setCellStart(uint16(size - 1))
	return p
}

// Wrap interprets an existing buffer as a page. It is used by tests and by
// checkpoint/restore paths; the buffer must have been produced by Page.
func Wrap(buf []byte) *Page {
	if len(buf) < MinSize || len(buf) > MaxSize {
		panic(fmt.Sprintf("page: buffer size %d out of range", len(buf)))
	}
	return &Page{buf: buf}
}

// Size returns the page size in bytes.
func (p *Page) Size() int { return len(p.buf) }

// Bytes exposes the raw buffer, for checkpointing. Callers must not
// mutate it.
func (p *Page) Bytes() []byte { return p.buf }

func (p *Page) u16(off int) uint16      { return binary.LittleEndian.Uint16(p.buf[off:]) }
func (p *Page) put16(off int, v uint16) { binary.LittleEndian.PutUint16(p.buf[off:], v) }

// NumSlots returns the number of slot entries, including free ones.
func (p *Page) NumSlots() int { return int(p.u16(offNumSlots)) }

func (p *Page) setNumSlots(n uint16)  { p.put16(offNumSlots, n) }
func (p *Page) cellStart() uint16     { return p.u16(offCellStart) }
func (p *Page) setCellStart(v uint16) { p.put16(offCellStart, v) }
func (p *Page) deadBytes() uint16     { return p.u16(offDeadBytes) }
func (p *Page) setDeadBytes(v uint16) { p.put16(offDeadBytes, v) }
func (p *Page) freeSlots() uint16     { return p.u16(offFreeSlots) }
func (p *Page) setFreeSlots(v uint16) { p.put16(offFreeSlots, v) }

// slotOff returns the byte offset of slot entry i.
func slotOff(i int) int { return headerSize + i*slotSize }

// slot returns (cellOffset, cellLength) for slot i. cellOffset 0 marks a
// free slot: cells can never start at offset 0 because the header is there.
func (p *Page) slot(i int) (uint16, uint16) {
	o := slotOff(i)
	return p.u16(o), p.u16(o + 2)
}

func (p *Page) setSlot(i int, off, length uint16) {
	o := slotOff(i)
	p.put16(o, off)
	p.put16(o+2, length)
}

// LiveSlots returns the number of slots currently holding cells.
func (p *Page) LiveSlots() int { return p.NumSlots() - int(p.freeSlots()) }

// slotArrayEnd is the first byte after the slot directory.
func (p *Page) slotArrayEnd() int { return headerSize + p.NumSlots()*slotSize }

// rawFree returns the bytes between the slot directory and the cell area,
// accounting for one more slot entry if needed. It can be negative when a
// prospective directory extension would overlap cells.
func (p *Page) rawFree(needNewSlot bool) int {
	end := p.slotArrayEnd()
	if needNewSlot {
		end += slotSize
	}
	return int(p.cellStart()) + 1 - end
}

// contiguousFree is rawFree clamped at zero, for reporting.
func (p *Page) contiguousFree(needNewSlot bool) int {
	free := p.rawFree(needNewSlot)
	if free < 0 {
		return 0
	}
	return free
}

// FreeSpace returns the bytes a single maximal insert could use after
// compaction, assuming a new slot entry is needed.
func (p *Page) FreeSpace() int {
	return p.contiguousFree(p.freeSlots() == 0) + int(p.deadBytes())
}

// DeadBytes returns the bytes held by deleted cells, i.e. reclaimable by
// in-page compaction. This feeds the storage layer's fragmentation
// statistics.
func (p *Page) DeadBytes() int { return int(p.deadBytes()) }

// Has reports whether slot s holds a live cell.
func (p *Page) Has(s uint16) bool {
	if int(s) >= p.NumSlots() {
		return false
	}
	off, _ := p.slot(int(s))
	return off != 0
}

// Get returns the cell stored in slot s. The returned slice aliases the
// page buffer and is valid only until the next mutating call; callers that
// need to keep the data must copy it.
func (p *Page) Get(s uint16) ([]byte, error) {
	if int(s) >= p.NumSlots() {
		return nil, ErrBadSlot
	}
	off, length := p.slot(int(s))
	if off == 0 {
		return nil, ErrBadSlot
	}
	return p.buf[off : int(off)+int(length)], nil
}

// Insert stores data in a free slot and returns the slot number. It
// compacts the page first if the contiguous gap is too small but dead
// bytes would make room. Zero-length cells are allowed.
func (p *Page) Insert(data []byte) (uint16, error) {
	needNewSlot := p.freeSlots() == 0
	if len(data) > p.rawFree(needNewSlot) {
		p.Compact()
		if len(data) > p.rawFree(needNewSlot) {
			return 0, ErrPageFull
		}
	}
	// Claim a slot.
	var s int
	if p.freeSlots() > 0 {
		s = -1
		for i := 0; i < p.NumSlots(); i++ {
			if off, _ := p.slot(i); off == 0 {
				s = i
				break
			}
		}
		if s < 0 {
			panic("page: freeSlots counter disagrees with directory")
		}
		p.setFreeSlots(p.freeSlots() - 1)
	} else {
		s = p.NumSlots()
		if s >= MaxSize/slotSize {
			return 0, ErrPageFull
		}
		p.setNumSlots(uint16(s + 1))
	}
	// Carve the cell from the back of the free region.
	start := int(p.cellStart()) + 1 - len(data)
	copy(p.buf[start:], data)
	p.setCellStart(uint16(start - 1))
	p.setSlot(s, uint16(start), uint16(len(data)))
	return uint16(s), nil
}

// InsertAt stores data in the specific slot s, which must not hold a live
// cell. The slot directory is extended with free entries as needed.
// Recovery uses this to reinstall objects at their original physical
// address, which is what keeps physical references valid across restarts.
func (p *Page) InsertAt(s uint16, data []byte) error {
	if int(s) < p.NumSlots() && p.Has(s) {
		return fmt.Errorf("page: slot %d occupied", s)
	}
	// How many new directory entries would we add?
	newSlots := 0
	if int(s) >= p.NumSlots() {
		newSlots = int(s) - p.NumSlots() + 1
	}
	need := len(data) + newSlots*slotSize
	if need > p.rawFree(false) {
		p.Compact()
		if need > p.rawFree(false) {
			return ErrPageFull
		}
	}
	for p.NumSlots() <= int(s) {
		i := p.NumSlots()
		p.setNumSlots(uint16(i + 1))
		p.setSlot(i, 0, 0)
		p.setFreeSlots(p.freeSlots() + 1)
	}
	start := int(p.cellStart()) + 1 - len(data)
	copy(p.buf[start:], data)
	p.setCellStart(uint16(start - 1))
	p.setSlot(int(s), uint16(start), uint16(len(data)))
	p.setFreeSlots(p.freeSlots() - 1)
	return nil
}

// Delete frees slot s. The slot entry is retained (marked free) so other
// slot numbers remain stable; the cell bytes become dead bytes.
func (p *Page) Delete(s uint16) error {
	if int(s) >= p.NumSlots() {
		return ErrBadSlot
	}
	off, length := p.slot(int(s))
	if off == 0 {
		return ErrBadSlot
	}
	p.setSlot(int(s), 0, 0)
	p.setDeadBytes(p.deadBytes() + length)
	p.setFreeSlots(p.freeSlots() + 1)
	return nil
}

// Fits reports whether the live cell in slot s can be rewritten with n
// bytes, i.e. whether Update would not return ErrPageFull.
func (p *Page) Fits(s uint16, n int) bool {
	_, length := p.slot(int(s))
	return n <= int(length)+p.contiguousFree(false)+int(p.deadBytes())
}

// Update replaces the cell in slot s with data. If the new cell fits in
// the old one it is updated in place; otherwise it is reallocated within
// the page (compacting if necessary). Returns ErrPageFull if the page
// cannot hold the new cell, in which case the old cell is left intact.
func (p *Page) Update(s uint16, data []byte) error {
	if int(s) >= p.NumSlots() {
		return ErrBadSlot
	}
	off, length := p.slot(int(s))
	if off == 0 {
		return ErrBadSlot
	}
	if len(data) <= int(length) {
		copy(p.buf[off:], data)
		if len(data) < int(length) {
			p.setDeadBytes(p.deadBytes() + length - uint16(len(data)))
			p.setSlot(int(s), off, uint16(len(data)))
			// The tail bytes of the old cell become dead; they are
			// reclaimed on the next compaction.
		}
		return nil
	}
	// Grow: free then reinsert, preserving the slot number.
	if !p.Fits(s, len(data)) {
		return ErrPageFull
	}
	p.setSlot(int(s), 0, 0)
	p.setDeadBytes(p.deadBytes() + length)
	if len(data) > p.contiguousFree(false) {
		p.Compact()
	}
	start := int(p.cellStart()) + 1 - len(data)
	copy(p.buf[start:], data)
	p.setCellStart(uint16(start - 1))
	p.setSlot(int(s), uint16(start), uint16(len(data)))
	return nil
}

// Compact rewrites all live cells tightly against the end of the page,
// eliminating dead bytes. Slot numbers are unchanged. Cells move from the
// highest offset down (ties, which only zero-length cells make, by slot
// number), so no copy overwrites a cell still to be moved. The order is
// sorted in a stack array that holds every slot a page can have, so
// compaction allocates nothing.
func (p *Page) Compact() {
	var order [MaxSize / slotSize]uint16
	live := order[:0]
	for i := 0; i < p.NumSlots(); i++ {
		if off, _ := p.slot(i); off != 0 {
			live = append(live, uint16(i))
		}
	}
	slices.SortFunc(live, func(a, b uint16) int {
		offA, _ := p.slot(int(a))
		offB, _ := p.slot(int(b))
		return cmp.Or(cmp.Compare(offB, offA), cmp.Compare(a, b))
	})
	write := len(p.buf)
	for _, s := range live {
		off, length := p.slot(int(s))
		write -= int(length)
		copy(p.buf[write:], p.buf[off:int(off)+int(length)])
		p.setSlot(int(s), uint16(write), length)
	}
	p.setCellStart(uint16(write - 1))
	p.setDeadBytes(0)
}

// Slots calls fn for every live slot with its cell bytes. The slice passed
// to fn aliases the page buffer. Iteration stops early if fn returns false.
func (p *Page) Slots(fn func(s uint16, data []byte) bool) {
	for i := 0; i < p.NumSlots(); i++ {
		off, length := p.slot(i)
		if off == 0 {
			continue
		}
		if !fn(uint16(i), p.buf[off:int(off)+int(length)]) {
			return
		}
	}
}

// Validate checks internal invariants and returns an error describing the
// first violation. It is used by tests and the consistency checker.
func (p *Page) Validate() error {
	if p.slotArrayEnd() > int(p.cellStart())+1 {
		return fmt.Errorf("page: slot directory (ends %d) overlaps cells (start %d)",
			p.slotArrayEnd(), p.cellStart()+1)
	}
	free := 0
	used := 0
	for i := 0; i < p.NumSlots(); i++ {
		off, length := p.slot(i)
		if off == 0 {
			free++
			continue
		}
		if int(off) < p.slotArrayEnd() || int(off)+int(length) > len(p.buf) {
			return fmt.Errorf("page: slot %d cell [%d,%d) out of bounds", i, off, int(off)+int(length))
		}
		used += int(length)
	}
	if free != int(p.freeSlots()) {
		return fmt.Errorf("page: freeSlots=%d but directory has %d free entries", p.freeSlots(), free)
	}
	cellArea := len(p.buf) - int(p.cellStart()) - 1
	if used+int(p.deadBytes()) > cellArea {
		return fmt.Errorf("page: used %d + dead %d exceeds cell area %d", used, p.deadBytes(), cellArea)
	}
	return nil
}
