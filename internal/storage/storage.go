// Package storage implements the partitioned physical object store.
//
// The database is divided into partitions (paper §2), each a growable set
// of slotted pages. An object's OID is its physical address — partition,
// page, slot — so the store resolves a reference with two array lookups
// and no indirection table. Space within a partition is managed with a
// first-fit free-space search (which fills holes, the normal allocation
// path) and a dense append path used by relocation plans that want to pack
// objects tightly (compaction, copying collection).
//
// The store runs in one of two modes. Memory-resident (New): every page
// lives in the page table. Disk-backed (NewDiskBacked): the page table
// acts as a buffer pool over per-partition segment files — pages are
// faulted in on access, pinned while in use, and written back by a CLOCK
// eviction policy under a frame budget, with the WAL-ahead rule enforced
// on every flush (see pool.go). Both modes share one code path: every
// method reaches page content through fetchPage/releasePage.
//
// Objects change through two mutators. Allocate places a new object
// where the store chooses (the address is unknown until placement).
// Apply performs a WAL record's page effect at the address the record
// names: create, free or rewrite, the one definition of what each record
// type does to a page. Both take an optional append callback, run inside
// the partition critical section before the page changes, so a logged
// mutation's append and apply are atomic with respect to other
// mutations of the page and to buffer-pool flushes. Without the
// callback they apply unlogged, which restart recovery uses.
//
// The store provides physical consistency only: each partition has a
// read-write mutex serializing structural changes against reads (cell
// moves during in-page compaction would otherwise tear concurrent
// readers). Transactional consistency — locks, WAL — is layered on top by
// internal/db.
package storage

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/oid"
	"repro/internal/page"
	"repro/internal/wal"
)

// Errors returned by the store.
var (
	// ErrNoObject reports a dereference of an OID that addresses no live
	// object — with physical references this is exactly the "dangling
	// pointer" failure the reorganization algorithms must never cause.
	ErrNoObject = errors.New("storage: no object at address")
	// ErrNoPartition reports an operation on an unknown partition.
	ErrNoPartition = errors.New("storage: no such partition")
	// ErrPartitionExists reports creation of a duplicate partition.
	ErrPartitionExists = errors.New("storage: partition already exists")
	// ErrObjectTooLarge reports an object that cannot fit in any page.
	ErrObjectTooLarge = errors.New("storage: object larger than page capacity")
	// ErrWontFit reports an in-place update that outgrew its page. The
	// caller must treat the object as needing migration.
	ErrWontFit = errors.New("storage: updated object does not fit in its page")
)

// DefaultFillFactor is the fraction of a fresh page the first-fit
// allocator will fill before opening another page, leaving headroom for
// objects to grow in place (reference inserts grow the referencing
// object).
const DefaultFillFactor = 0.85

// Store is a partitioned slotted-page object store.
type Store struct {
	pageSize   int
	fillFactor float64

	// pool is the buffer pool of a disk-backed store; nil in
	// memory-resident mode.
	pool *pool

	mu    sync.RWMutex
	parts map[oid.PartitionID]*partition

	// resvPages lists the pages each transaction holds space
	// reservations on (see partition.resv), for ReleaseReservations;
	// resvTxns counts its entries so a transaction that reserved nothing
	// ends without taking resvMu. resvMu is a leaf, taken under a
	// partition's mu.
	resvMu    sync.Mutex
	resvPages map[wal.TxnID][]pageRef
	resvTxns  atomic.Int64
}

// pageRef names a page of a partition.
type pageRef struct {
	part oid.PartitionID
	pn   int
}

// reservation is space on a page kept free for one transaction.
type reservation struct {
	txn   wal.TxnID
	bytes int
}

// partition holds the pages of one partition. pages[0] is always nil so
// that no object is ever at page 0 — that keeps oid.Nil (0:0:0)
// unaddressable.
//
// In disk-backed mode the pages slice only defines the page-table
// length (entries stay nil); existence lives in present and residency
// in frames, both written only under the buffer pool's mutex so that
// eviction — which cannot take this partition's mu — never races the
// slice.
type partition struct {
	id oid.PartitionID

	// mem is the backing policy: a mem partition keeps its pages in the
	// pages slice even inside a disk-backed store (no segment file, no
	// buffer-pool frames — durability comes from checkpoints plus the WAL
	// alone, exactly like memory mode). In a pool-less store the flag is
	// recorded but moot: everything is memory-resident anyway. The flag
	// survives snapshots so recovery's replay store can materialize each
	// partition with its original backing.
	mem bool

	// mu serializes structural changes against reads.
	mu     sync.RWMutex
	pages  []*page.Page
	nLive  int // live objects
	cursor int // first-fit rotating start page
	// denseFloor is the first page dense allocation may use. SealDense
	// advances it past all existing pages so that migrated copies never
	// reoccupy addresses that stale references might still carry.
	denseFloor int

	// resv holds, per page, the bytes that transactions' logged shrinks
	// and frees released there and that stay reserved for them until
	// they end, so the same transaction's regrow or rollback still fits
	// (ARIES space reservation). Allocations and other transactions'
	// growth leave them free. Guarded by mu (W).
	resv map[int][]reservation

	// Disk-backed mode only; same length as pages.
	present []bool   // page logically exists (may be on disk only)
	frames  []*frame // resident pages' buffer-pool frames
	dropped bool     // DropPartition ran; guarded by pool.mu
}

// Option configures a Store.
type Option func(*Store)

// WithPageSize sets the page size (default page.DefaultSize).
func WithPageSize(n int) Option { return func(s *Store) { s.pageSize = n } }

// WithFillFactor sets the first-fit fill factor in (0,1].
func WithFillFactor(f float64) Option {
	return func(s *Store) {
		if f > 0 && f <= 1 {
			s.fillFactor = f
		}
	}
}

// New creates an empty memory-resident store.
func New(opts ...Option) *Store {
	s := &Store{
		pageSize:   page.DefaultSize,
		fillFactor: DefaultFillFactor,
		parts:      make(map[oid.PartitionID]*partition),
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// PageSize returns the configured page size.
func (s *Store) PageSize() int { return s.pageSize }

// CreatePartition adds an empty partition with the given id.
func (s *Store) CreatePartition(id oid.PartitionID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.parts[id]; ok {
		return fmt.Errorf("%w: %d", ErrPartitionExists, id)
	}
	s.parts[id] = s.newPartition(id)
	return nil
}

// CreatePartitionBacked adds an empty partition with an explicit backing
// policy: mem keeps the partition memory-resident even in a disk-backed
// store (its durability then rests on checkpoints plus the WAL, exactly
// as in memory mode). In a pool-less store the policy is recorded but
// has no runtime effect — recovery's replay store uses that to carry
// each partition's original backing through to materialization.
func (s *Store) CreatePartitionBacked(id oid.PartitionID, mem bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.parts[id]; ok {
		return fmt.Errorf("%w: %d", ErrPartitionExists, id)
	}
	s.parts[id] = s.newPartitionBacked(id, mem)
	return nil
}

// MemResident reports whether partition id runs memory-resident —
// because of its backing policy, or because the whole store does.
func (s *Store) MemResident(id oid.PartitionID) (bool, error) {
	p, err := s.part(id)
	if err != nil {
		return false, err
	}
	return s.pool == nil || p.mem, nil
}

// DropPartition removes a partition and all objects in it. Used by the
// copying collector after evacuating live objects. In disk-backed mode
// the partition's segment file is deleted with it.
func (s *Store) DropPartition(id oid.PartitionID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.parts[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoPartition, id)
	}
	delete(s.parts, id)
	if s.onDisk(p) {
		if err := s.pool.dropPartition(p); err != nil {
			return err
		}
	}
	return nil
}

// HasPartition reports whether partition id exists.
func (s *Store) HasPartition(id oid.PartitionID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.parts[id]
	return ok
}

// Partitions returns the existing partition ids in ascending order.
func (s *Store) Partitions() []oid.PartitionID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ids := make([]oid.PartitionID, 0, len(s.parts))
	for id := range s.parts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func (s *Store) part(id oid.PartitionID) (*partition, error) {
	s.mu.RLock()
	p, ok := s.parts[id]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoPartition, id)
	}
	return p, nil
}

// maxCell is the largest cell a fresh page of this store can hold.
func (s *Store) maxCell() int {
	return s.pageSize - 16 // header + one slot entry, conservatively
}

// tryInsert attempts an insert into the (pinned) page pn, marking the
// page dirty either way: a failed insert may still have compacted it.
// Caller holds p.mu (W). Returns the slot and true on success.
func (s *Store) tryInsert(p *partition, pn int, pg *page.Page, data []byte) (uint16, bool) {
	slot, err := pg.Insert(data)
	s.notePageDirty(p, pn, 0)
	if err != nil {
		return 0, false
	}
	p.nLive++
	return slot, true
}

// Allocate stores data in partition part and returns its address. By
// default it runs first-fit over existing pages (so freed holes are
// refilled, which is what fragments a partition over time), opening a
// new page when nothing fits within the fill factor. With dense set it
// appends at the tail of the partition instead, packing cells tightly
// without hole-filling; relocation plans use that to lay objects out
// contiguously.
//
// logFn, if non-nil, is called with the chosen address while the target
// page is still pinned and the partition write-locked, and the page is
// stamped with the LSN it returns before the pin drops. The transaction
// layer's create path needs this: a create record can only be written
// once the address is known, and logging after the allocation returned
// would leave a window where a buffer-pool eviction flushes a page
// holding an object no log record describes — a crash there resurrects
// an orphan invisible to redo, undo, and the reference analyzer. If
// logFn fails the insert is rolled back in place and its error
// returned. A nil logFn allocates unlogged.
func (s *Store) Allocate(part oid.PartitionID, data []byte, dense bool, logFn func(o oid.OID) (wal.LSN, error)) (oid.OID, error) {
	if len(data) > s.maxCell() {
		return oid.Nil, fmt.Errorf("%w: %d bytes", ErrObjectTooLarge, len(data))
	}
	p, err := s.part(part)
	if err != nil {
		return oid.Nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()

	// finish runs the caller's log hook (if any) while the page is
	// still pinned, then stamps the page with the record's LSN, so any
	// content the pool may flush is always covered by the log. If the
	// append fails the insert is rolled back under the same pin — the
	// page never leaves the pool holding an unlogged object. Drops the
	// pin either way.
	finish := func(pn int, pg *page.Page, slot uint16) (oid.OID, error) {
		defer s.releasePage(p, pn)
		o := oid.New(part, oid.PageNum(pn), oid.SlotNum(slot))
		if logFn == nil {
			return o, nil
		}
		lsn, lerr := logFn(o)
		if lerr != nil {
			if derr := pg.Delete(slot); derr == nil {
				p.nLive--
			}
			s.notePageDirty(p, pn, 0)
			return oid.Nil, lerr
		}
		s.notePageDirty(p, pn, lsn)
		return o, nil
	}

	if dense {
		// Try only the last page (and only past the dense floor), then
		// open a new one.
		if last := len(p.pages) - 1; last >= 1 && last >= p.denseFloor {
			pg, ferr := s.fetchPage(p, last)
			if ferr != nil {
				return oid.Nil, ferr
			}
			if pg != nil {
				if pg.FreeSpace()-p.reserved(last, 0) >= len(data) {
					if slot, ok := s.tryInsert(p, last, pg, data); ok {
						return finish(last, pg, slot)
					}
				}
				s.releasePage(p, last)
			}
		}
	} else {
		// First-fit from a rotating cursor, honoring the fill factor so
		// fresh pages keep growth headroom.
		n := len(p.pages) - 1
		reserve := int(float64(s.pageSize) * (1 - s.fillFactor))
		for i := 0; i < n; i++ {
			pn := 1 + (p.cursor-1+i)%n
			pg, ferr := s.fetchPage(p, pn)
			if ferr != nil {
				return oid.Nil, ferr
			}
			if pg == nil {
				continue
			}
			if pg.FreeSpace() < len(data)+reserve+p.reserved(pn, 0) {
				s.releasePage(p, pn)
				continue
			}
			if slot, ok := s.tryInsert(p, pn, pg, data); ok {
				p.cursor = pn
				return finish(pn, pg, slot)
			}
			s.releasePage(p, pn)
		}
	}
	// Open a new page. It is installed pinned so the first insert can
	// be logged before an eviction may flush it.
	if uint64(len(p.pages)) > oid.MaxPage {
		return oid.Nil, fmt.Errorf("storage: partition %d page table full", part)
	}
	pg := page.New(s.pageSize)
	slot, err := pg.Insert(data)
	if err != nil {
		return oid.Nil, err
	}
	pn, err := s.installNewPagePinned(p, pg)
	if err != nil {
		return oid.Nil, err
	}
	p.nLive++
	return finish(pn, pg, slot)
}

// SealDense advances the partition's dense-allocation floor past every
// existing page: subsequent dense Allocate calls place objects only on
// fresh pages. Reorganization seals its target partitions so a migrated
// object can never be assigned the address of a just-deleted one — an
// address a not-yet-updated (or garbage) reference may still carry.
func (s *Store) SealDense(part oid.PartitionID) error {
	p, err := s.part(part)
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.denseFloor = len(p.pages)
	return nil
}

// Apply performs the page effect of log record r at its address r.OID,
// calling logFn (which appends r and returns its LSN) inside the
// partition critical section, after validation and immediately before
// the page is changed, and stamping the page with that LSN. Per page,
// records are thus applied in exactly the order their LSNs were
// assigned. Appending first and applying later under separate locks
// would let two transactions' applies to one page invert: a buffer-pool
// flush in that window writes a page whose LSN stamp covers a record
// whose effect is missing, and recovery's redo gate would then skip that
// record forever. A validation failure returns before logFn runs, so a
// rejected mutation writes no record.
//
// The effects, by record type:
//   - Create and PhysAlloc place r.After exactly at r.OID, creating the
//     partition and any intermediate pages if they do not exist and
//     overwriting a live object already there;
//   - Delete and PhysFree free the slot; its bytes become dead space
//     that only reorganization (or a lucky same-page insert) reclaims;
//   - Update, RefInsert, RefDelete and RefUpdate rewrite the object in
//     place with r.After (ErrWontFit if it no longer fits its page, the
//     object unchanged);
//   - every other type touches no page and only calls logFn.
//
// A nil logFn applies unlogged with the page stamped 0: restart recovery
// redoes and undoes records that way on its memory-resident image.
func (s *Store) Apply(r *wal.Record, logFn func() (wal.LSN, error)) error {
	switch r.Type {
	case wal.RecCreate, wal.RecPhysAlloc:
		return s.allocateAt(r.OID, r.After, r.Txn, logFn)
	case wal.RecDelete, wal.RecPhysFree:
		return s.rewriteSlot(r.OID, nil, true, r.Txn, logFn)
	case wal.RecUpdate, wal.RecRefInsert, wal.RecRefDelete, wal.RecRefUpdate:
		return s.rewriteSlot(r.OID, r.After, false, r.Txn, logFn)
	}
	_, err := logged(logFn)
	return err
}

// logged runs logFn, or reports LSN 0 for an unlogged apply.
func logged(logFn func() (wal.LSN, error)) (wal.LSN, error) {
	if logFn == nil {
		return 0, nil
	}
	return logFn()
}

// rewriteSlot updates the live object at o to data in place, or frees
// it when free is set (see Apply). A logged rewrite by txn that shrinks
// or frees the object reserves the released bytes for txn; one that
// grows it may use txn's own reservation on the page but not others'.
func (s *Store) rewriteSlot(o oid.OID, data []byte, free bool, txn wal.TxnID, logFn func() (wal.LSN, error)) error {
	p, err := s.part(o.Partition())
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	pn := int(o.Page())
	pg, err := s.fetchPage(p, pn)
	if err != nil {
		return err
	}
	if pg == nil {
		return fmt.Errorf("%w: %s", ErrNoObject, o)
	}
	defer s.releasePage(p, pn)
	slot := uint16(o.Slot())
	if !pg.Has(slot) {
		return fmt.Errorf("%w: %s", ErrNoObject, o)
	}
	// An update that cannot fit is refused before it is logged: a
	// logged record without its effect would fail its own redo at
	// restart, and the analyzer would already have counted its edges.
	cell, _ := pg.Get(slot)
	grow := len(data) - len(cell)
	if free {
		grow = -len(cell)
	}
	// Recovery applies unlogged and neither makes nor honors reservations.
	reserve := logFn != nil && txn != 0
	if grow > 0 {
		others := 0
		if reserve {
			others = p.reserved(pn, txn)
		}
		if !pg.Fits(slot, len(data)+others) {
			return ErrWontFit
		}
	}
	lsn, err := logged(logFn)
	if err != nil {
		return err
	}
	if !free {
		err = pg.Update(slot, data)
	} else if err = pg.Delete(slot); err == nil {
		p.nLive--
	}
	if err == nil && reserve && grow != 0 {
		s.noteResize(p, pn, txn, grow)
	}
	s.notePageDirty(p, pn, lsn)
	return err
}

// reserved returns the bytes reserved on page pn for transactions other
// than txn; txn 0 counts every reservation. Caller holds p.mu.
func (p *partition) reserved(pn int, txn wal.TxnID) int {
	n := 0
	for _, r := range p.resv[pn] {
		if r.txn != txn {
			n += r.bytes
		}
	}
	return n
}

// noteResize records that txn's logged mutation changed its cells on
// page pn by grow bytes: a shrink or free reserves the released bytes
// for txn, and a growth uses up txn's reservation there first. Caller
// holds p.mu (W).
func (s *Store) noteResize(p *partition, pn int, txn wal.TxnID, grow int) {
	rs := p.resv[pn]
	i := slices.IndexFunc(rs, func(r reservation) bool { return r.txn == txn })
	if grow > 0 {
		if i >= 0 {
			rs[i].bytes -= min(grow, rs[i].bytes)
		}
		return
	}
	if i >= 0 {
		rs[i].bytes -= grow
		return
	}
	if p.resv == nil {
		p.resv = make(map[int][]reservation)
	}
	p.resv[pn] = append(rs, reservation{txn, -grow})
	s.resvMu.Lock()
	if s.resvPages == nil {
		s.resvPages = make(map[wal.TxnID][]pageRef)
	}
	if len(s.resvPages[txn]) == 0 {
		s.resvTxns.Add(1)
	}
	s.resvPages[txn] = append(s.resvPages[txn], pageRef{p.id, pn})
	s.resvMu.Unlock()
}

// ReleaseReservations drops the space reservations txn's shrinks and
// frees made; the transaction layer calls it when txn ends, committed
// or rolled back.
func (s *Store) ReleaseReservations(txn wal.TxnID) {
	if s.resvTxns.Load() == 0 {
		return
	}
	s.resvMu.Lock()
	refs, ok := s.resvPages[txn]
	if ok {
		delete(s.resvPages, txn)
		s.resvTxns.Add(-1)
	}
	s.resvMu.Unlock()
	for _, ref := range refs {
		p, err := s.part(ref.part)
		if err != nil {
			continue // dropped with its reservations
		}
		p.mu.Lock()
		rs := slices.DeleteFunc(p.resv[ref.pn], func(r reservation) bool { return r.txn == txn })
		if len(rs) == 0 {
			delete(p.resv, ref.pn)
		} else {
			p.resv[ref.pn] = rs
		}
		p.mu.Unlock()
	}
}

// allocateAt installs data at the exact address o (see Apply), extending
// the page table and reviving trimmed pages as needed. A logged create by
// txn (the rollback of its free) uses up txn's reservation on the page.
func (s *Store) allocateAt(o oid.OID, data []byte, txn wal.TxnID, logFn func() (wal.LSN, error)) error {
	if len(data) > s.maxCell() {
		return fmt.Errorf("%w: %d bytes", ErrObjectTooLarge, len(data))
	}
	if o.Page() == 0 {
		return fmt.Errorf("%w: %s (page 0 is reserved)", ErrNoObject, o)
	}
	s.mu.Lock()
	p, ok := s.parts[o.Partition()]
	if !ok {
		p = s.newPartition(o.Partition())
		s.parts[o.Partition()] = p
	}
	s.mu.Unlock()
	p.mu.Lock()
	defer p.mu.Unlock()
	lsn, err := logged(logFn)
	if err != nil {
		return err
	}
	for uint64(len(p.pages)) <= uint64(o.Page()) {
		if _, err := s.installNewPage(p, page.New(s.pageSize), lsn); err != nil {
			return err
		}
	}
	pn := int(o.Page())
	pg, err := s.fetchPage(p, pn)
	if err != nil {
		return err
	}
	if pg == nil {
		// The slot exists in the table but holds no page (trimmed, or a
		// disk-mode absence): revive it in place.
		pg, err = s.revivePageAt(p, pn, lsn)
		if err != nil {
			return err
		}
	}
	defer s.releasePage(p, pn)
	slot := uint16(o.Slot())
	if pg.Has(slot) {
		err = pg.Update(slot, data)
	} else if err = pg.InsertAt(slot, data); err == nil {
		p.nLive++
		if logFn != nil && txn != 0 {
			s.noteResize(p, pn, txn, len(data))
		}
	}
	s.notePageDirty(p, pn, lsn)
	return err
}

// revivePageAt places a fresh page at an existing (but empty) table
// slot. In disk mode the page comes back pinned. Caller holds p.mu (W).
func (s *Store) revivePageAt(p *partition, pn int, lsn wal.LSN) (*page.Page, error) {
	pg := page.New(s.pageSize)
	if !s.onDisk(p) {
		p.pages[pn] = pg
		return pg, nil
	}
	pl := s.pool
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if err := pl.makeRoom(); err != nil {
		return nil, err
	}
	f := &frame{part: p, pn: pn, pg: pg, ref: true, pin: 1, dirty: true, recLSN: lsn, pageLSN: lsn}
	p.frames[pn] = f
	p.present[pn] = true
	pl.link(f)
	pl.pinned.Add(1)
	return pg, nil
}

// TrimPages releases pages that hold no live cells, returning how many
// were reclaimed. After a compaction migrated every object to fresh tail
// pages, this is what actually gives the fragmented space back. In
// disk-backed mode each trimmed page is replaced by a durable absence
// marker (written WAL-ahead) so a restart does not resurrect it.
func (s *Store) TrimPages(part oid.PartitionID) (int, error) {
	p, err := s.part(part)
	if err != nil {
		return 0, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	trimmed := 0
	for pn := 1; pn < len(p.pages); pn++ {
		pg, ferr := s.fetchPage(p, pn)
		if ferr != nil {
			return trimmed, ferr
		}
		if pg == nil {
			continue
		}
		if pg.LiveSlots() != 0 {
			s.releasePage(p, pn)
			continue
		}
		s.releasePage(p, pn)
		if err := s.dropPageAt(p, pn); err != nil {
			return trimmed, err
		}
		trimmed++
	}
	if p.cursor >= len(p.pages) || p.cursor < 1 {
		p.cursor = 1
	}
	return trimmed, nil
}

// Read copies the object at o into buf (growing it as needed) and returns
// the filled slice.
func (s *Store) Read(o oid.OID, buf []byte) ([]byte, error) {
	p, err := s.part(o.Partition())
	if err != nil {
		return nil, err
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	pn := int(o.Page())
	pg, err := s.fetchPage(p, pn)
	if err != nil {
		return nil, err
	}
	if pg == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoObject, o)
	}
	defer s.releasePage(p, pn)
	cell, err := pg.Get(uint16(o.Slot()))
	if err != nil {
		return nil, fmt.Errorf("%w: %s", ErrNoObject, o)
	}
	return append(buf[:0], cell...), nil
}

// View calls fn with the object's bytes while holding the partition read
// lock. The slice must not escape fn.
func (s *Store) View(o oid.OID, fn func(data []byte)) error {
	p, err := s.part(o.Partition())
	if err != nil {
		return err
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	pn := int(o.Page())
	pg, err := s.fetchPage(p, pn)
	if err != nil {
		return err
	}
	if pg == nil {
		return fmt.Errorf("%w: %s", ErrNoObject, o)
	}
	defer s.releasePage(p, pn)
	cell, err := pg.Get(uint16(o.Slot()))
	if err != nil {
		return fmt.Errorf("%w: %s", ErrNoObject, o)
	}
	fn(cell)
	return nil
}

// Exists reports whether o addresses a live object.
func (s *Store) Exists(o oid.OID) bool {
	p, err := s.part(o.Partition())
	if err != nil {
		return false
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	pn := int(o.Page())
	pg, err := s.fetchPage(p, pn)
	if err != nil || pg == nil {
		return false
	}
	defer s.releasePage(p, pn)
	return pg.Has(uint16(o.Slot()))
}

// ForEach calls fn for every live object in partition part, in physical
// order. The data slice aliases page memory and must not escape fn.
// Iteration holds the partition read lock, so fn must not call mutating
// store methods. Iteration stops early if fn returns false.
func (s *Store) ForEach(part oid.PartitionID, fn func(o oid.OID, data []byte) bool) error {
	p, err := s.part(part)
	if err != nil {
		return err
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	for pn := 1; pn < len(p.pages); pn++ {
		pg, ferr := s.fetchPage(p, pn)
		if ferr != nil {
			return ferr
		}
		if pg == nil {
			continue
		}
		stop := false
		pg.Slots(func(slot uint16, data []byte) bool {
			if !fn(oid.New(part, oid.PageNum(pn), oid.SlotNum(slot)), data) {
				stop = true
				return false
			}
			return true
		})
		s.releasePage(p, pn)
		if stop {
			return nil
		}
	}
	return nil
}

// Stats describes space usage of a partition.
type Stats struct {
	Pages      int // allocated pages
	LiveBytes  int // bytes in live cells
	DeadBytes  int // bytes in deleted cells (fragmentation)
	FreeBytes  int // unused bytes (contiguous + dead)
	Objects    int // live objects
	TotalBytes int // pages × page size
}

// Fragmentation returns dead bytes as a fraction of total bytes.
func (st Stats) Fragmentation() float64 {
	if st.TotalBytes == 0 {
		return 0
	}
	return float64(st.DeadBytes) / float64(st.TotalBytes)
}

// PartitionStats computes space statistics for a partition.
func (s *Store) PartitionStats(part oid.PartitionID) (Stats, error) {
	p, err := s.part(part)
	if err != nil {
		return Stats{}, err
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	st := Stats{Objects: p.nLive}
	for pn := 1; pn < len(p.pages); pn++ {
		pg, ferr := s.fetchPage(p, pn)
		if ferr != nil {
			return Stats{}, ferr
		}
		if pg == nil {
			continue
		}
		st.Pages++
		st.TotalBytes += pg.Size()
		st.DeadBytes += pg.DeadBytes()
		st.FreeBytes += pg.FreeSpace()
		pg.Slots(func(_ uint16, data []byte) bool {
			st.LiveBytes += len(data)
			return true
		})
		s.releasePage(p, pn)
	}
	return st, nil
}

// Snapshot is a deep copy of the whole store, used to model the durable
// database image at a fuzzy checkpoint: restart recovery restores the
// snapshot and replays the log forward from it.
type Snapshot struct {
	pageSize   int
	fillFactor float64
	parts      map[oid.PartitionID]*partSnap
}

type partSnap struct {
	pages      [][]byte
	nLive      int
	cursor     int
	denseFloor int
	mem        bool // backing policy, preserved across restore/materialize
}

// Snapshot deep-copies the store. In disk-backed mode non-resident
// pages are faulted in one at a time, which can fail on segment I/O.
func (s *Store) Snapshot() (*Snapshot, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	snap := &Snapshot{
		pageSize:   s.pageSize,
		fillFactor: s.fillFactor,
		parts:      make(map[oid.PartitionID]*partSnap, len(s.parts)),
	}
	for id, p := range s.parts {
		p.mu.RLock()
		ps := &partSnap{nLive: p.nLive, cursor: p.cursor, denseFloor: p.denseFloor, mem: p.mem, pages: make([][]byte, len(p.pages))}
		for i := 1; i < len(p.pages); i++ {
			pg, err := s.fetchPage(p, i)
			if err != nil {
				p.mu.RUnlock()
				return nil, err
			}
			if pg == nil {
				continue
			}
			ps.pages[i] = append([]byte(nil), pg.Bytes()...)
			s.releasePage(p, i)
		}
		p.mu.RUnlock()
		snap.parts[id] = ps
	}
	return snap, nil
}

// RestoreSnapshot builds a fresh memory-resident store from a snapshot.
func RestoreSnapshot(snap *Snapshot) *Store {
	s := New(WithPageSize(snap.pageSize), WithFillFactor(snap.fillFactor))
	for id, ps := range snap.parts {
		p := &partition{id: id, nLive: ps.nLive, cursor: ps.cursor, denseFloor: ps.denseFloor, mem: ps.mem, pages: make([]*page.Page, len(ps.pages))}
		if p.cursor < 1 {
			p.cursor = 1
		}
		for i := 1; i < len(ps.pages); i++ {
			if ps.pages[i] != nil {
				p.pages[i] = page.Wrap(append([]byte(nil), ps.pages[i]...))
			}
		}
		s.parts[id] = p
	}
	return s
}

// InstallPageImage places raw page bytes at (part, pn) on a
// memory-resident store, creating the partition and extending its page
// table as needed. Restart recovery uses it to overlay segment pages
// over the checkpoint snapshot; it must not be used on a disk-backed
// store.
func (s *Store) InstallPageImage(part oid.PartitionID, pn int, data []byte) {
	if s.pool != nil {
		panic("storage: InstallPageImage on a disk-backed store")
	}
	p := s.imagePartition(part, pn)
	p.pages[pn] = page.Wrap(append([]byte(nil), data...))
}

// RemovePageImage clears the page at (part, pn) on a memory-resident
// store (recovery overlay of a durable absence marker).
func (s *Store) RemovePageImage(part oid.PartitionID, pn int) {
	if s.pool != nil {
		panic("storage: RemovePageImage on a disk-backed store")
	}
	p := s.imagePartition(part, pn)
	p.pages[pn] = nil
}

func (s *Store) imagePartition(part oid.PartitionID, pn int) *partition {
	s.mu.Lock()
	p, ok := s.parts[part]
	if !ok {
		p = s.newPartition(part)
		s.parts[part] = p
	}
	s.mu.Unlock()
	for len(p.pages) <= pn {
		p.pages = append(p.pages, nil)
	}
	return p
}

// RecountLive recomputes every partition's live-object count from its
// pages. Recovery calls it after overlaying segment pages, which can
// change liveness behind the counters.
func (s *Store) RecountLive() {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, p := range s.parts {
		p.mu.Lock()
		n := 0
		for pn := 1; pn < len(p.pages); pn++ {
			if p.pages[pn] != nil {
				n += p.pages[pn].LiveSlots()
			}
		}
		p.nLive = n
		if p.cursor >= len(p.pages) || p.cursor < 1 {
			p.cursor = 1
		}
		p.mu.Unlock()
	}
}
