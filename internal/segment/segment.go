// Package segment implements per-partition page files: the durable
// medium under the storage layer's buffer pool. Each partition owns one
// file of fixed-size page slots addressed by page number, so a page
// write is a single pwrite and a page read a single pread.
//
// Every slot carries a 32-byte header whose CRC covers the flags, the
// pageLSN, and the full payload. A write torn by a crash therefore
// cannot be mistaken for a valid page — in particular a tear inside the
// header (new LSN over old payload) fails the checksum instead of
// producing a page that claims to be newer than its contents. Recovery
// treats a torn slot as "use the checkpoint image and let redo repair
// it from the log".
//
// A slot can also be explicitly absent (flags bit cleared): the storage
// layer records trimmed pages this way so a disk-backed partition
// reports the same page counts as a memory-resident one.
//
// The package hosts three fault points — segment/read, segment/write,
// segment/sync — used by the torture harness. A crash-kind firing at
// segment/write emulates the torn write itself: a seeded prefix of the
// slot reaches the file, then the directory freezes (all further writes
// fail), modeling the process dying mid-pwrite. Error-kind firings (and
// real I/O errors) are treated as transient device hiccups: the
// operation retries a few times with doubling backoff, and only when
// the budget is spent does the directory latch the device-failed
// quiesce — writes and syncs freeze the directory (durability promises
// may be void), reads just report the failure.
package segment

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/oid"
)

// Errors returned by segment I/O.
var (
	// ErrTorn reports a slot whose checksum does not match: a write was
	// interrupted mid-flight. The page content is unusable; recovery
	// must rebuild it from a checkpoint plus the log.
	ErrTorn = errors.New("segment: torn page (checksum mismatch)")
	// ErrAbsent reports a slot that holds no page: never written, or
	// explicitly marked absent by a trim.
	ErrAbsent = errors.New("segment: page absent")
	// ErrFrozen reports a write against a frozen (crashed) directory.
	ErrFrozen = errors.New("segment: directory frozen after crash")
	// ErrDeviceFailed reports an I/O failure that survived the transient
	// retry budget: the device is treated as gone and the directory is
	// frozen so no later write can appear durable when it is not.
	ErrDeviceFailed = errors.New("segment: device failed (transient retries exhausted)")
)

// Transient I/O failures (an EIO-style hiccup, an injected error-kind
// fault) are retried with a short doubling backoff before the directory
// gives up; permanent conditions — a crash firing, a frozen directory,
// a torn or absent slot — fail immediately, since retrying cannot change
// what is on the medium.
const (
	ioRetries     = 3
	ioBackoffBase = 200 * time.Microsecond
)

// permanentIOErr classifies an I/O error: true means retrying is
// pointless.
func permanentIOErr(err error) bool {
	return fault.IsCrash(err) ||
		errors.Is(err, ErrFrozen) ||
		errors.Is(err, ErrTorn) ||
		errors.Is(err, ErrAbsent)
}

// retryIO runs op until it succeeds, fails permanently, or exhausts the
// retry budget. Callers hold d.mu (writers exclusively, readers shared);
// the backoff is short enough (≤1.4ms total) that stalling the directory
// is preferable to letting another writer race a flaky device.
func (d *Dir) retryIO(op func() error) error {
	backoff := ioBackoffBase
	for attempt := 0; ; attempt++ {
		err := op()
		if err == nil || permanentIOErr(err) || attempt == ioRetries {
			return err
		}
		d.ioRetries.Add(1)
		time.Sleep(backoff)
		backoff *= 2
	}
}

const (
	slotMagic  = 0x47534547 // "GESG"
	hdrSize    = 32
	flagLive   = 1 // slot holds a live page (cleared by WriteAbsent)
	crcFrom    = 8 // CRC covers the header past the crc field + payload
	maxPageLen = 1 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var (
	fpRead  = fault.Point(fault.SegmentRead)
	fpWrite = fault.Point(fault.SegmentWrite)
	fpSync  = fault.Point(fault.SegmentSync)
)

// Dir is a directory of per-partition segment files.
type Dir struct {
	path     string
	pageSize int
	slotSize int

	// frozen is atomic, not mu-guarded: Freeze is called from crash
	// hooks that may fire on a goroutine already holding mu (a fault
	// point inside writeSlot), so it must never need the lock.
	frozen atomic.Bool

	// ioRetries counts transient I/O failures absorbed by the retry
	// loop (observability: a rising count flags a degrading device
	// before it fails for good).
	ioRetries atomic.Uint64

	// mu guards files and scratch. Page reads hold it shared, so faults
	// on different pages proceed in parallel; writes, syncs and anything
	// that opens, closes or removes a file hold it exclusively.
	mu    sync.RWMutex
	files map[oid.PartitionID]*os.File
	// scratch is the one slot image every write encodes into, so a page
	// write allocates nothing. Only a holder of mu in write mode touches it.
	scratch []byte
}

// Open opens (creating if needed) a segment directory for pages of the
// given size.
func Open(path string, pageSize int) (*Dir, error) {
	if pageSize <= 0 || pageSize > maxPageLen {
		return nil, fmt.Errorf("segment: bad page size %d", pageSize)
	}
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, fmt.Errorf("segment: %w", err)
	}
	return &Dir{
		path:     path,
		pageSize: pageSize,
		slotSize: hdrSize + pageSize,
		files:    make(map[oid.PartitionID]*os.File),
		scratch:  make([]byte, hdrSize+pageSize),
	}, nil
}

// Path returns the directory path.
func (d *Dir) Path() string { return d.path }

// IORetries returns how many transient I/O failures the retry loop has
// absorbed since Open.
func (d *Dir) IORetries() uint64 { return d.ioRetries.Load() }

// PageSize returns the configured page size.
func (d *Dir) PageSize() int { return d.pageSize }

// SlotSize returns the size of one on-disk slot (header plus page): the
// length of the buffer ReadPage reads into.
func (d *Dir) SlotSize() int { return d.slotSize }

func partFileName(part oid.PartitionID) string {
	return fmt.Sprintf("part-%d.seg", part)
}

// file returns the open handle for part, opening (and optionally
// creating) the file. Caller holds d.mu exclusively.
func (d *Dir) file(part oid.PartitionID, create bool) (*os.File, error) {
	if f, ok := d.files[part]; ok {
		return f, nil
	}
	flags := os.O_RDWR
	if create {
		flags |= os.O_CREATE
	}
	f, err := os.OpenFile(filepath.Join(d.path, partFileName(part)), flags, 0o644)
	if err != nil {
		return nil, err
	}
	d.files[part] = f
	return f, nil
}

func (d *Dir) slotOffset(pn int) int64 {
	return int64(pn-1) * int64(d.slotSize)
}

// encodeSlot builds the on-disk slot image in d.scratch — header +
// payload, with the CRC covering everything past the crc field itself —
// and returns it. Caller holds d.mu exclusively.
func (d *Dir) encodeSlot(flags uint32, lsn uint64, data []byte) []byte {
	buf := d.scratch
	binary.LittleEndian.PutUint32(buf[0:4], slotMagic)
	binary.LittleEndian.PutUint32(buf[8:12], flags)
	binary.LittleEndian.PutUint64(buf[12:20], lsn)
	binary.LittleEndian.PutUint32(buf[20:24], uint32(len(data)))
	clear(buf[24:hdrSize])
	clear(buf[hdrSize+copy(buf[hdrSize:], data):])
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(buf[crcFrom:], castagnoli))
	return buf
}

// writeSlot encodes the slot image and writes it at slot pn of part.
func (d *Dir) writeSlot(part oid.PartitionID, pn int, flags uint32, lsn uint64, data []byte) error {
	if pn < 1 {
		return fmt.Errorf("segment: bad page number %d", pn)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.frozen.Load() {
		return ErrFrozen
	}
	f, err := d.file(part, true)
	if err != nil {
		return fmt.Errorf("segment: %w", err)
	}
	buf := d.encodeSlot(flags, lsn, data)
	err = d.retryIO(func() error {
		if d.frozen.Load() {
			return ErrFrozen
		}
		if ferr := fpWrite.Maybe(); ferr != nil {
			if fault.IsCrash(ferr) {
				// Torn write: a seeded prefix of the slot reaches the
				// medium before the process dies; the directory freezes so
				// nothing after this instant can become durable. A zero
				// prefix models "the pwrite never made it" (old slot image
				// survives intact) — also a legal crash state.
				n := int(fault.RandOf(ferr) * float64(len(buf)))
				if n > 0 {
					_, _ = f.WriteAt(buf[:n], d.slotOffset(pn))
				}
				d.frozen.Store(true)
			}
			return fmt.Errorf("segment: write part %d page %d: %w", part, pn, ferr)
		}
		if _, err := f.WriteAt(buf, d.slotOffset(pn)); err != nil {
			return fmt.Errorf("segment: write part %d page %d: %w", part, pn, err)
		}
		return nil
	})
	if err != nil && !permanentIOErr(err) {
		// The transient budget is spent: latch the device-failed quiesce
		// so nothing written after this instant can be presumed durable.
		d.frozen.Store(true)
		return fmt.Errorf("%w: %w", ErrDeviceFailed, err)
	}
	return err
}

// WritePage durably-intends page pn of part: the slot is written with
// the given pageLSN. The caller must already have forced the WAL past
// lsn (the WAL-ahead rule); the segment layer just records it.
func (d *Dir) WritePage(part oid.PartitionID, pn int, data []byte, lsn uint64) error {
	if len(data) != d.pageSize {
		return fmt.Errorf("segment: page size %d, want %d", len(data), d.pageSize)
	}
	return d.writeSlot(part, pn, flagLive, lsn, data)
}

// WriteAbsent marks slot pn of part explicitly absent (a trimmed page),
// stamped with the LSN that made it absent.
func (d *Dir) WriteAbsent(part oid.PartitionID, pn int, lsn uint64) error {
	return d.writeSlot(part, pn, 0, lsn, nil)
}

// ReadPage reads slot pn of part into slot, a caller-owned buffer of
// SlotSize bytes. On success it returns the page as a view of slot past
// the header (len = cap = page size) and the slot's pageLSN; the view
// shares slot's memory, so it is valid until the caller reuses slot.
// An explicitly absent or never-written slot returns ErrAbsent (with
// the recorded LSN, zero when never written); a checksum failure returns
// ErrTorn; any other read failure is an I/O error, retried within the
// transient budget. Whatever the outcome, nothing slot held before the
// call shows through the result. Concurrent reads run in parallel: they
// hold the directory lock shared.
func (d *Dir) ReadPage(part oid.PartitionID, pn int, slot []byte) ([]byte, uint64, error) {
	if pn < 1 {
		return nil, 0, fmt.Errorf("segment: bad page number %d", pn)
	}
	if len(slot) != d.slotSize {
		return nil, 0, fmt.Errorf("segment: read buffer %d bytes, want %d", len(slot), d.slotSize)
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	var (
		page []byte
		lsn  uint64
	)
	err := d.retryIO(func() error {
		var rerr error
		page, lsn, rerr = d.readPageLocked(part, pn, slot)
		return rerr
	})
	return page, lsn, err
}

// sharedFile returns part's open handle for a reader holding d.mu
// shared. A handle missing from the map is opened under the exclusive
// lock: the shared lock is dropped and re-taken around the open, and the
// map is consulted again in case a Close or DropPartition ran between.
func (d *Dir) sharedFile(part oid.PartitionID) (*os.File, error) {
	for {
		if f, ok := d.files[part]; ok {
			return f, nil
		}
		d.mu.RUnlock()
		d.mu.Lock()
		_, err := d.file(part, false)
		d.mu.Unlock()
		d.mu.RLock()
		if err != nil {
			return nil, err
		}
	}
}

// readPageLocked is one read attempt into buf. Caller holds d.mu shared.
func (d *Dir) readPageLocked(part oid.PartitionID, pn int, buf []byte) ([]byte, uint64, error) {
	if ferr := fpRead.Maybe(); ferr != nil {
		return nil, 0, fmt.Errorf("segment: read part %d page %d: %w", part, pn, ferr)
	}
	f, err := d.sharedFile(part)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, ErrAbsent
		}
		return nil, 0, fmt.Errorf("segment: %w", err)
	}
	n, err := f.ReadAt(buf, d.slotOffset(pn))
	switch {
	case err != nil && err != io.EOF:
		// A real I/O failure, whatever n is: transient until the retry
		// budget says otherwise.
		return nil, 0, fmt.Errorf("segment: read part %d page %d: %w", part, pn, err)
	case n == 0:
		return nil, 0, ErrAbsent // beyond the file: never written
	case n < d.slotSize:
		// Whatever buf held past n is stale: decide before looking at it.
		return nil, 0, fmt.Errorf("%w: part %d page %d (short slot)", ErrTorn, part, pn)
	}
	if binary.LittleEndian.Uint32(buf[0:4]) != slotMagic {
		if allZero(buf) {
			return nil, 0, ErrAbsent // sparse hole: never written
		}
		return nil, 0, fmt.Errorf("%w: part %d page %d (bad magic)", ErrTorn, part, pn)
	}
	if binary.LittleEndian.Uint32(buf[4:8]) != crc32.Checksum(buf[crcFrom:], castagnoli) {
		return nil, 0, fmt.Errorf("%w: part %d page %d", ErrTorn, part, pn)
	}
	flags := binary.LittleEndian.Uint32(buf[8:12])
	lsn := binary.LittleEndian.Uint64(buf[12:20])
	if flags&flagLive == 0 {
		return nil, lsn, ErrAbsent
	}
	if got := int(binary.LittleEndian.Uint32(buf[20:24])); got != d.pageSize {
		return nil, 0, fmt.Errorf("%w: part %d page %d (length %d)", ErrTorn, part, pn, got)
	}
	return buf[hdrSize:d.slotSize:d.slotSize], lsn, nil
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// NumPages returns the number of slots part's file covers (its highest
// written page number). A missing file has zero pages.
func (d *Dir) NumPages(part oid.PartitionID) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, err := d.file(part, false)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("segment: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("segment: %w", err)
	}
	// A partial tail slot (torn append) still counts as a page so that
	// recovery visits — and rejects — it.
	return int((fi.Size() + int64(d.slotSize) - 1) / int64(d.slotSize)), nil
}

// Partitions lists the partition ids that have segment files, in
// ascending order.
func (d *Dir) Partitions() ([]oid.PartitionID, error) {
	ents, err := os.ReadDir(d.path)
	if err != nil {
		return nil, fmt.Errorf("segment: %w", err)
	}
	var ids []oid.PartitionID
	for _, e := range ents {
		var id uint64
		if _, err := fmt.Sscanf(e.Name(), "part-%d.seg", &id); err == nil {
			ids = append(ids, oid.PartitionID(id))
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// Sync forces part's file to the medium.
func (d *Dir) Sync(part oid.PartitionID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.syncLocked(part)
}

func (d *Dir) syncLocked(part oid.PartitionID) error {
	if d.frozen.Load() {
		return ErrFrozen
	}
	f, ok := d.files[part]
	if !ok {
		return nil // nothing written through this handle
	}
	err := d.retryIO(func() error {
		if d.frozen.Load() {
			return ErrFrozen
		}
		if ferr := fpSync.Maybe(); ferr != nil {
			if fault.IsCrash(ferr) {
				d.frozen.Store(true)
			}
			return fmt.Errorf("segment: sync part %d: %w", part, ferr)
		}
		if err := f.Sync(); err != nil {
			return fmt.Errorf("segment: sync part %d: %w", part, err)
		}
		return nil
	})
	if err != nil && !permanentIOErr(err) {
		// A sync that keeps failing means durability promises already
		// made may be void — same latch as a failed write.
		d.frozen.Store(true)
		return fmt.Errorf("%w: %w", ErrDeviceFailed, err)
	}
	return err
}

// SyncAll forces every open segment file to the medium.
func (d *Dir) SyncAll() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	ids := make([]oid.PartitionID, 0, len(d.files))
	for id := range d.files {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if err := d.syncLocked(id); err != nil {
			return err
		}
	}
	return nil
}

// DropPartition deletes part's segment file.
func (d *Dir) DropPartition(part oid.PartitionID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.frozen.Load() {
		return ErrFrozen
	}
	if f, ok := d.files[part]; ok {
		f.Close()
		delete(d.files, part)
	}
	if err := os.Remove(filepath.Join(d.path, partFileName(part))); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("segment: %w", err)
	}
	return nil
}

// Reset deletes every segment file, leaving an empty directory. Restart
// recovery uses it before rematerializing the recovered store.
func (d *Dir) Reset() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.frozen.Load() {
		return ErrFrozen
	}
	for id, f := range d.files {
		f.Close()
		delete(d.files, id)
	}
	ents, err := os.ReadDir(d.path)
	if err != nil {
		return fmt.Errorf("segment: %w", err)
	}
	for _, e := range ents {
		var id uint64
		if _, err := fmt.Sscanf(e.Name(), "part-%d.seg", &id); err == nil {
			if err := os.Remove(filepath.Join(d.path, e.Name())); err != nil {
				return fmt.Errorf("segment: %w", err)
			}
		}
	}
	return nil
}

// Freeze marks the directory crashed: every subsequent write or sync
// fails with ErrFrozen. The torture harness freezes segments at the
// crash instant so the recovered image is exactly what had reached the
// files by then. Reads keep working — recovery reads the frozen image.
func (d *Dir) Freeze() {
	d.frozen.Store(true)
}

// Frozen reports whether Freeze was called (or a crash firing froze the
// directory).
func (d *Dir) Frozen() bool {
	return d.frozen.Load()
}

// Close closes all open files. The directory contents remain.
func (d *Dir) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	var first error
	for id, f := range d.files {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
		delete(d.files, id)
	}
	return first
}
