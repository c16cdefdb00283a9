package storage

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/interleave"
	"repro/internal/oid"
	"repro/internal/page"
	"repro/internal/segment"
	"repro/internal/wal"
)

// DefaultPoolFrames is the buffer-pool frame budget when none is given.
const DefaultPoolFrames = 256

// fpPoolEvict fires between choosing an eviction victim and flushing it
// — the mid-eviction window the torture harness crashes in.
var fpPoolEvict = fault.Point(fault.PoolEvict)

// WAL is what the buffer pool needs from the write-ahead log: the
// current tail (to stamp dirty pages conservatively) and a durability
// wait (the WAL-ahead rule — no dirty page reaches a segment before the
// log is durable past that page's LSN).
type WAL interface {
	TailLSN() wal.LSN
	FlushWait(wal.LSN) error
}

// frame is one resident page's buffer-pool bookkeeping. Frames are
// created, pinned, and mutated only under pool.mu; page content is
// mutated only by callers that hold both the partition lock (write) and
// a pin, which is why eviction (which only takes unpinned frames) never
// races a content mutation.
//
// A frame that a fault created holds a pool-owned buffer (slot set): the
// pool takes it back when the frame leaves unpinned, and the next fault
// reads into it. A frame install or revivePageAt created over page.New
// has no slot, and its page goes to the GC.
type frame struct {
	part *partition
	pn   int
	pg   *page.Page
	slot []byte // pool-owned slot buffer under pg; nil for installed pages
	pin  int
	ref  bool // CLOCK reference bit
	dead bool // unlinked from the clock (lazy removal)

	dirty   bool
	recLSN  wal.LSN // LSN that first dirtied the frame since its last flush
	pageLSN wal.LSN // highest LSN applied to the page (flush waits for it)
}

// pool is the buffer pool shared by all partitions of one disk-backed
// Store. Lock order: partition.mu before pool.mu, never the reverse.
// Page reads never run under pool.mu (fetch drops it around ReadPage);
// the segment writes and syncs of an eviction flush, and the WAL waits
// before them, still do.
type pool struct {
	seg    *segment.Dir
	budget int

	mu       sync.Mutex
	wal      WAL
	clock    []*frame
	hand     int
	resident int
	flushSeq int // eviction flushes since the last flush-behind sync
	// free holds the buffers of frames that left the pool, at most
	// budget of them, for the next faults to read into.
	free []pageBuf

	hits, misses, evictions, flushes, overBudget atomic.Uint64
	pinned                                       atomic.Int64
}

// pageBuf is a fault's page memory: the slot buffer a segment read fills
// and the page view over its payload (nil until the first read sets it;
// every read into the same slot returns the same view).
type pageBuf struct {
	slot []byte
	pg   *page.Page
}

// syncEvery bounds flush-behind: every syncEvery-th eviction flush also
// fsyncs the segment file, so unsynced eviction writes never pile up
// without bound (and the segment/sync fault point sees traffic outside
// checkpoints).
const syncEvery = 16

// PoolStats is a snapshot of the buffer-pool counters.
type PoolStats struct {
	DiskBacked bool   `json:"disk_backed"`
	Budget     int    `json:"budget"`
	Resident   int    `json:"resident"`
	Pinned     int64  `json:"pinned"`
	Hits       uint64 `json:"hits"`
	Misses     uint64 `json:"misses"`
	Evictions  uint64 `json:"evictions"`
	Flushes    uint64 `json:"flushes"`
	OverBudget uint64 `json:"over_budget"`
}

// FaultRate returns misses as a fraction of all page accesses.
func (ps PoolStats) FaultRate() float64 {
	total := ps.Hits + ps.Misses
	if total == 0 {
		return 0
	}
	return float64(ps.Misses) / float64(total)
}

// fetch returns the page at (p, pn) pinned, faulting it in from the
// segment file if needed. Returns (nil, nil) when no such page exists.
// The caller must hold p.mu (either mode) and must release the pin.
//
// A fault reads optimistically, holding no pool lock during the I/O:
// the miss is counted and a free buffer taken under pl.mu, the lock is
// dropped for ReadPage, and on re-locking a frame some other reader
// linked meanwhile wins — this read's buffer goes back to the free list,
// as it does on every failure. DESIGN.md §5.9 argues why the slot it
// read is current.
func (pl *pool) fetch(p *partition, pn int) (*page.Page, error) {
	if pn < 1 || pn >= len(p.pages) || !p.present[pn] {
		return nil, nil
	}
	pl.mu.Lock()
	if p.dropped {
		pl.mu.Unlock()
		return nil, fmt.Errorf("%w: %d", ErrNoPartition, p.id)
	}
	if f := p.frames[pn]; f != nil {
		pl.hits.Add(1)
		pl.pinLocked(f)
		pl.mu.Unlock()
		return f.pg, nil
	}
	pl.misses.Add(1)
	b := pl.getBuf()
	pl.mu.Unlock()

	data, _, err := pl.seg.ReadPage(p.id, pn, b.slot)

	pl.mu.Lock()
	defer pl.mu.Unlock()
	if err != nil {
		pl.putBuf(b)
		// Present in the page table but unreadable: an I/O fault (or,
		// after a crash, a torn slot only recovery may repair).
		return nil, fmt.Errorf("storage: partition %d page %d: %w", p.id, pn, err)
	}
	if b.pg == nil {
		b.pg = page.Wrap(data)
	}
	if p.dropped {
		pl.putBuf(b)
		return nil, fmt.Errorf("%w: %d", ErrNoPartition, p.id)
	}
	if f := p.frames[pn]; f != nil {
		pl.putBuf(b)
		pl.pinLocked(f) // a concurrent fault of the same page linked first
		return f.pg, nil
	}
	if err := pl.makeRoom(); err != nil {
		pl.putBuf(b)
		return nil, err
	}
	f := &frame{part: p, pn: pn, pg: b.pg, slot: b.slot, ref: true, pin: 1}
	p.frames[pn] = f
	pl.link(f)
	pl.pinned.Add(1)
	return f.pg, nil
}

// getBuf takes a buffer off the free list, or allocates one when the
// list is empty. Caller holds pl.mu.
func (pl *pool) getBuf() pageBuf {
	n := len(pl.free)
	if n == 0 {
		return pageBuf{slot: make([]byte, pl.seg.SlotSize())}
	}
	b := pl.free[n-1]
	pl.free[n-1] = pageBuf{}
	pl.free = pl.free[:n-1]
	return b
}

// poisonByte fills freed buffers in race builds. Read as an object's
// reference count or a page's slot count it is out of range, so decoding
// kept bytes fails loudly.
const poisonByte = 0xDB

// putBuf returns a buffer no frame uses any more. The free list keeps at
// most budget buffers; the rest go to the GC. Builds with the race
// detector poison the buffer first, so a caller that kept page bytes
// past releasePage reads garbage instead of a plausible stale page.
// Caller holds pl.mu.
func (pl *pool) putBuf(b pageBuf) {
	if poisonFreed {
		for i := range b.slot {
			b.slot[i] = poisonByte
		}
	}
	if len(pl.free) < pl.budget {
		pl.free = append(pl.free, b)
	}
}

// retire takes back the buffer of a frame leaving the pool, unless the
// frame has none (an installed page) or is still pinned (a reader of a
// dropped partition holds it until release). Caller holds pl.mu.
func (pl *pool) retire(f *frame) {
	if f.slot != nil && f.pin == 0 {
		pl.putBuf(pageBuf{slot: f.slot, pg: f.pg})
	}
}

// pinLocked pins a resident frame and marks it referenced. Caller holds
// pl.mu.
func (pl *pool) pinLocked(f *frame) {
	f.ref = true
	f.pin++
	pl.pinned.Add(1)
}

// release drops one pin. Caller must hold p.mu.
func (pl *pool) release(p *partition, pn int) {
	pl.mu.Lock()
	if f := p.frames[pn]; f != nil && f.pin > 0 {
		f.pin--
		pl.pinned.Add(-1)
	}
	pl.mu.Unlock()
}

// markDirty records that the caller mutated the page under its pin,
// stamping it with the exact LSN of the log record just applied (zero
// for unlogged mutations). Caller must hold p.mu in write mode.
func (pl *pool) markDirty(p *partition, pn int, lsn wal.LSN) {
	pl.mu.Lock()
	if f := p.frames[pn]; f != nil {
		if lsn > f.pageLSN {
			f.pageLSN = lsn
		}
		if !f.dirty {
			f.dirty = true
			f.recLSN = lsn
		}
	}
	pl.mu.Unlock()
	interleave.Note(interleave.Apply, p.id, pn, uint64(lsn))
}

// install registers a brand-new page (already filled by the caller) as
// a resident dirty frame at the partition tail, pinned when pin is set.
// Caller holds p.mu (W).
func (pl *pool) install(p *partition, pg *page.Page, lsn wal.LSN, pin bool) (int, error) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if err := pl.makeRoom(); err != nil {
		return 0, err
	}
	pn := len(p.pages)
	f := &frame{part: p, pn: pn, pg: pg, ref: true, dirty: true, recLSN: lsn, pageLSN: lsn}
	if pin {
		f.pin = 1
		pl.pinned.Add(1)
	}
	p.pages = append(p.pages, nil)
	p.present = append(p.present, true)
	p.frames = append(p.frames, f)
	pl.link(f)
	return pn, nil
}

// dropPage marks (p, pn) absent: the frame (if any) is discarded and an
// absence marker is written through — WAL-ahead — so a restart does not
// resurrect the trimmed page. Caller holds p.mu (W) with no pin on pn.
func (pl *pool) dropPage(p *partition, pn int) error {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	var tail wal.LSN
	if pl.wal != nil {
		tail = pl.wal.TailLSN()
		if err := pl.wal.FlushWait(tail); err != nil {
			return err
		}
	}
	if err := pl.seg.WriteAbsent(p.id, pn, uint64(tail)); err != nil {
		return err
	}
	if f := p.frames[pn]; f != nil {
		pl.unlink(f)
		p.frames[pn] = nil
		pl.retire(f)
	}
	p.present[pn] = false
	return nil
}

// dropPartition discards p's frames and deletes its segment file.
// Caller holds the store map lock; p is unreachable afterwards. Marking
// p dropped under pl.mu stops a fetch whose unlocked read straddles the
// drop from linking a frame for the unreachable partition, and a later
// fetch from reaching a frame whose buffer went back to the free list.
// A pinned frame stays in the page table until its holder releases it.
func (pl *pool) dropPartition(p *partition) error {
	pl.mu.Lock()
	p.dropped = true
	for pn, f := range p.frames {
		if f != nil {
			pl.unlink(f)
			if f.pin == 0 {
				p.frames[pn] = nil
				pl.retire(f)
			}
		}
	}
	pl.mu.Unlock()
	return pl.seg.DropPartition(p.id)
}

// link adds a frame to the clock ring.
func (pl *pool) link(f *frame) {
	pl.clock = append(pl.clock, f)
	pl.resident++
}

// unlink removes a frame from the clock ring (lazily: the slot is
// marked dead and skipped/compacted by the sweep).
func (pl *pool) unlink(f *frame) {
	f.dead = true
	pl.resident--
}

// makeRoom evicts unpinned frames until the pool is under budget. If
// every frame is pinned the pool grows past its budget instead of
// failing — the pin discipline (one page per operation) makes that
// window small. Caller holds pl.mu.
func (pl *pool) makeRoom() error {
	for pl.resident >= pl.budget {
		f := pl.victim()
		if f == nil {
			pl.overBudget.Add(1)
			return nil
		}
		interleave.Note(interleave.Evict, f.part.id, f.pn, uint64(f.pageLSN))
		if f.dirty {
			if err := fpPoolEvict.Maybe(); err != nil {
				return err
			}
			if err := pl.flushLocked(f); err != nil {
				return err
			}
			pl.flushSeq++
			if pl.flushSeq%syncEvery == 0 {
				if err := pl.seg.Sync(f.part.id); err != nil {
					return err
				}
			}
		}
		pl.evictions.Add(1)
		f.part.frames[f.pn] = nil
		pl.unlink(f)
		pl.retire(f)
	}
	return nil
}

// victim runs the CLOCK sweep: skip pinned frames, give referenced
// frames a second chance, take the first unpinned unreferenced frame.
// Returns nil if everything is pinned.
func (pl *pool) victim() *frame {
	// Compact dead slots opportunistically when they dominate.
	if len(pl.clock) > 2*pl.resident+8 {
		live := pl.clock[:0]
		for _, f := range pl.clock {
			if !f.dead {
				live = append(live, f)
			}
		}
		for i := len(live); i < len(pl.clock); i++ {
			pl.clock[i] = nil
		}
		pl.clock = live
		pl.hand = 0
	}
	for sweep := 0; sweep < 2*len(pl.clock); sweep++ {
		if pl.hand >= len(pl.clock) {
			pl.hand = 0
		}
		f := pl.clock[pl.hand]
		pl.hand++
		if f.dead || f.pin > 0 {
			continue
		}
		if f.ref {
			f.ref = false
			continue
		}
		return f
	}
	return nil
}

// flushLocked writes one dirty frame through to its segment file,
// enforcing WAL-ahead: the log must be durable past the page's LSN
// before the page may overwrite its on-disk predecessor. Caller holds
// pl.mu.
func (pl *pool) flushLocked(f *frame) error {
	if pl.wal != nil && f.pageLSN > 0 {
		if err := pl.wal.FlushWait(f.pageLSN); err != nil {
			return err
		}
	}
	interleave.Note(interleave.Flush, f.part.id, f.pn, uint64(f.pageLSN))
	if err := pl.seg.WritePage(f.part.id, f.pn, f.pg.Bytes(), uint64(f.pageLSN)); err != nil {
		return err
	}
	pl.flushes.Add(1)
	f.dirty = false
	f.recLSN = 0
	return nil
}

// flushPartition flushes every dirty frame of p (pinned or not —
// content is stable because the caller holds p.mu and mutators need it
// in write mode). Caller holds p.mu (either mode).
func (pl *pool) flushPartition(p *partition) error {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	for _, f := range p.frames {
		if f != nil && f.dirty {
			if err := pl.flushLocked(f); err != nil {
				return err
			}
		}
	}
	return nil
}

// evictPartition flushes and drops every unpinned frame of p. Caller
// holds p.mu (W).
func (pl *pool) evictPartition(p *partition) error {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	for pn, f := range p.frames {
		if f == nil || f.pin > 0 {
			continue
		}
		if f.dirty {
			if err := pl.flushLocked(f); err != nil {
				return err
			}
		}
		pl.evictions.Add(1)
		p.frames[pn] = nil
		pl.unlink(f)
		pl.retire(f)
	}
	return nil
}

// --- Store-level surface -------------------------------------------------

// NewDiskBacked opens (creating if needed) a disk-backed store over a
// segment directory with the given buffer-pool frame budget. An
// existing directory is scanned to rebuild the page tables; a torn page
// found during the scan is an error — run recovery instead.
func NewDiskBacked(dir string, frames int, opts ...Option) (*Store, error) {
	s := New(opts...)
	seg, err := segment.Open(dir, s.pageSize)
	if err != nil {
		return nil, err
	}
	if frames <= 0 {
		frames = DefaultPoolFrames
	}
	s.pool = &pool{seg: seg, budget: frames}
	if err := s.loadLayout(); err != nil {
		seg.Close()
		return nil, err
	}
	return s, nil
}

// loadLayout rebuilds the in-memory page tables from the segment files.
func (s *Store) loadLayout() error {
	ids, err := s.pool.seg.Partitions()
	if err != nil {
		return err
	}
	slot := make([]byte, s.pool.seg.SlotSize())
	for _, id := range ids {
		n, err := s.pool.seg.NumPages(id)
		if err != nil {
			return err
		}
		p := &partition{
			id:      id,
			cursor:  1,
			pages:   make([]*page.Page, n+1),
			present: make([]bool, n+1),
			frames:  make([]*frame, n+1),
		}
		for pn := 1; pn <= n; pn++ {
			data, _, rerr := s.pool.seg.ReadPage(id, pn, slot)
			switch {
			case rerr == nil:
				p.present[pn] = true
				p.nLive += page.Wrap(data).LiveSlots()
			case errors.Is(rerr, segment.ErrAbsent):
				// trimmed or never written
			default:
				return fmt.Errorf("storage: partition %d page %d: %w (run recovery)", id, pn, rerr)
			}
		}
		s.parts[id] = p
	}
	return nil
}

// MaterializeDiskBacked writes every page of src (a memory-resident
// store, typically the output of restart recovery) into the segment
// directory — which is reset first — and returns a disk-backed store
// over it. Pages are stamped with LSN zero: the recovered image is the
// new baseline, and the first post-recovery checkpoint re-establishes
// the flush-everything invariant the redo gating relies on.
func MaterializeDiskBacked(src *Store, dir string, frames int) (*Store, error) {
	if src.pool != nil {
		return nil, errors.New("storage: materialize source must be memory-resident")
	}
	seg, err := segment.Open(dir, src.pageSize)
	if err != nil {
		return nil, err
	}
	if err := seg.Reset(); err != nil {
		seg.Close()
		return nil, err
	}
	if frames <= 0 {
		frames = DefaultPoolFrames
	}
	dst := New(WithPageSize(src.pageSize), WithFillFactor(src.fillFactor))
	dst.pool = &pool{seg: seg, budget: frames}
	src.mu.RLock()
	defer src.mu.RUnlock()
	for id, p := range src.parts {
		p.mu.RLock()
		np := &partition{
			id:         id,
			mem:        p.mem,
			nLive:      p.nLive,
			cursor:     p.cursor,
			denseFloor: p.denseFloor,
			pages:      make([]*page.Page, len(p.pages)),
		}
		if np.cursor < 1 {
			np.cursor = 1
		}
		var werr error
		if p.mem {
			// Mem-policy partition: stays memory-resident in the disk
			// store — deep-copy the pages, write nothing to segments.
			for pn := 1; pn < len(p.pages); pn++ {
				if p.pages[pn] != nil {
					np.pages[pn] = page.Wrap(append([]byte(nil), p.pages[pn].Bytes()...))
				}
			}
		} else {
			np.present = make([]bool, len(p.pages))
			np.frames = make([]*frame, len(p.pages))
			for pn := 1; pn < len(p.pages); pn++ {
				if p.pages[pn] == nil {
					if werr = seg.WriteAbsent(id, pn, 0); werr != nil {
						break
					}
					continue
				}
				if werr = seg.WritePage(id, pn, p.pages[pn].Bytes(), 0); werr != nil {
					break
				}
				np.present[pn] = true
			}
		}
		p.mu.RUnlock()
		if werr != nil {
			seg.Close()
			return nil, werr
		}
		dst.parts[id] = np
	}
	if err := seg.SyncAll(); err != nil {
		seg.Close()
		return nil, err
	}
	return dst, nil
}

// DiskBacked reports whether the store runs over segment files.
func (s *Store) DiskBacked() bool { return s.pool != nil }

// Segments exposes the segment directory of a disk-backed store (nil
// otherwise); the torture harness freezes it at a crash instant.
func (s *Store) Segments() *segment.Dir {
	if s.pool == nil {
		return nil
	}
	return s.pool.seg
}

// AttachWAL wires the log into the buffer pool so flushes can honor the
// WAL-ahead rule. Must be called before logged mutations run; a
// disk-backed store without a WAL never waits (LSN zero).
func (s *Store) AttachWAL(w WAL) {
	if s.pool == nil {
		return
	}
	s.pool.mu.Lock()
	s.pool.wal = w
	s.pool.mu.Unlock()
}

// FlushAll writes every dirty page through to its segment file and
// fsyncs. Checkpoints call it (under the checkpoint gate) so that the
// on-disk segment image at a checkpoint equals the snapshot — the
// invariant that lets recovery overlay segment pages over the snapshot
// by comparing page LSNs.
func (s *Store) FlushAll() error {
	if s.pool == nil {
		return nil
	}
	for _, id := range s.Partitions() {
		p, err := s.part(id)
		if err != nil {
			continue // dropped concurrently
		}
		p.mu.RLock()
		err = s.pool.flushPartition(p)
		p.mu.RUnlock()
		if err != nil {
			return err
		}
	}
	return s.pool.seg.SyncAll()
}

// EvictAll flushes and drops every resident frame, leaving a cold pool.
// Benchmarks use it to measure cold-scan fault rates.
func (s *Store) EvictAll() error {
	if s.pool == nil {
		return nil
	}
	for _, id := range s.Partitions() {
		p, err := s.part(id)
		if err != nil {
			continue
		}
		p.mu.Lock()
		err = s.pool.evictPartition(p)
		p.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// PoolStats snapshots the buffer-pool counters (zero value for a
// memory-resident store).
func (s *Store) PoolStats() PoolStats {
	if s.pool == nil {
		return PoolStats{}
	}
	pl := s.pool
	pl.mu.Lock()
	resident := pl.resident
	pl.mu.Unlock()
	return PoolStats{
		DiskBacked: true,
		Budget:     pl.budget,
		Resident:   resident,
		Pinned:     pl.pinned.Load(),
		Hits:       pl.hits.Load(),
		Misses:     pl.misses.Load(),
		Evictions:  pl.evictions.Load(),
		Flushes:    pl.flushes.Load(),
		OverBudget: pl.overBudget.Load(),
	}
}

// Close releases the segment files of a disk-backed store. It does not
// flush — durability across a clean shutdown comes from the WAL plus
// checkpoint, exactly as for a crash.
func (s *Store) Close() error {
	if s.pool == nil {
		return nil
	}
	return s.pool.seg.Close()
}

// --- internal page access helpers ---------------------------------------
//
// Every storage method reaches page content through fetchPage/releasePage
// so the memory-resident and disk-backed modes share one code path. The
// split is per partition (onDisk), not per store: a disk-backed store may
// host mem partitions whose pages never touch the pool or segment files.

// onDisk reports whether p's pages live behind the buffer pool. False in
// a pool-less store and for mem-policy partitions of a disk-backed one.
func (s *Store) onDisk(p *partition) bool { return s.pool != nil && !p.mem }

// fetchPage returns the page at (p, pn), or (nil, nil) if there is no
// such page. In disk mode the page comes back pinned; the caller must
// call releasePage when done. Caller holds p.mu.
func (s *Store) fetchPage(p *partition, pn int) (*page.Page, error) {
	if !s.onDisk(p) {
		if pn < 1 || pn >= len(p.pages) {
			return nil, nil
		}
		return p.pages[pn], nil
	}
	return s.pool.fetch(p, pn)
}

// releasePage drops the pin fetchPage took. Caller holds p.mu.
func (s *Store) releasePage(p *partition, pn int) {
	if s.onDisk(p) {
		s.pool.release(p, pn)
	}
}

// notePageDirty records a content mutation at (p, pn) with the LSN of
// the log record that produced it (zero when unlogged). Caller holds
// p.mu in write mode and the page pinned.
func (s *Store) notePageDirty(p *partition, pn int, lsn wal.LSN) {
	if s.onDisk(p) {
		s.pool.markDirty(p, pn, lsn)
	}
}

// installNewPage appends pg (already filled) as the partition's new
// tail page and returns its page number. Caller holds p.mu (W).
func (s *Store) installNewPage(p *partition, pg *page.Page, lsn wal.LSN) (int, error) {
	if !s.onDisk(p) {
		pn := len(p.pages)
		p.pages = append(p.pages, pg)
		return pn, nil
	}
	return s.pool.install(p, pg, lsn, false)
}

// installNewPagePinned is installNewPage returning the new tail page
// pinned, for callers that must log the page's first insert before an
// eviction may flush it. The caller releases the pin with releasePage.
func (s *Store) installNewPagePinned(p *partition, pg *page.Page) (int, error) {
	if !s.onDisk(p) {
		pn := len(p.pages)
		p.pages = append(p.pages, pg)
		return pn, nil
	}
	return s.pool.install(p, pg, 0, true)
}

// dropPageAt removes the (empty) page at pn. Caller holds p.mu (W) with
// no pin on pn.
func (s *Store) dropPageAt(p *partition, pn int) error {
	if !s.onDisk(p) {
		p.pages[pn] = nil
		return nil
	}
	return s.pool.dropPage(p, pn)
}

// newPartition builds an empty partition with the store's default
// backing (disk behind the pool when there is one).
func (s *Store) newPartition(id oid.PartitionID) *partition {
	return s.newPartitionBacked(id, false)
}

// newPartitionBacked builds an empty partition with an explicit backing
// policy. Caller inserts it into s.parts under s.mu.
func (s *Store) newPartitionBacked(id oid.PartitionID, mem bool) *partition {
	p := &partition{id: id, pages: []*page.Page{nil}, cursor: 1, mem: mem}
	if s.pool != nil && !mem {
		p.present = []bool{false}
		p.frames = []*frame{nil}
	}
	return p
}
