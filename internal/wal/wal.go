// Package wal implements the write-ahead log.
//
// Transactions follow the WAL protocol the paper assumes (§2): the undo
// image of an update is logged before the update is performed, and the
// redo image is logged before the lock on the object is released. Commit
// forces the log; a group-commit flusher with configurable simulated
// device latency models the log disk. That latency is what gives the
// paper's MPL experiments their shape — "logs have to be flushed to disk
// at commit time; therefore, there is some CPU I/O parallelism to be
// exploited" (§5.3.1), which is why throughput peaks above MPL 1.
//
// Every appended record is also handed, in LSN order, to an optional
// observer. The log analyzer (internal/analyzer) registers itself there
// to maintain the ERT and TRT, mirroring the paper's design where "a
// separate process called log analyzer" processes log records "as soon as
// they are handed over to the logging subsystem" (§3.3).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/interleave"
	"repro/internal/obs"
	"repro/internal/oid"
)

// LSN is a log sequence number; 0 means "none".
type LSN uint64

// TxnID mirrors lock.TxnID without importing it (the WAL layer is below
// the lock manager).
type TxnID uint64

// RecType enumerates log record types.
type RecType uint8

// Log record types.
const (
	// RecBegin marks the start of a transaction.
	RecBegin RecType = iota + 1
	// RecCommit marks a committed transaction; the commit is durable
	// once this record is flushed.
	RecCommit
	// RecAbort marks a fully rolled-back transaction.
	RecAbort
	// RecUpdate is a payload update carrying full before/after images of
	// the object.
	RecUpdate
	// RecCreate records object creation; After holds the image.
	RecCreate
	// RecDelete records object deletion; Before holds the image.
	RecDelete
	// RecRefInsert records insertion of a reference Child into object
	// OID, with full before/after images of OID.
	RecRefInsert
	// RecRefDelete records deletion of the reference Child from object
	// OID, with full before/after images.
	RecRefDelete
	// RecRefUpdate records an in-place retarget of a reference in OID
	// from Child to Child2 (used when a parent is repointed to a
	// migrated object's new address).
	RecRefUpdate
	// RecCheckpoint marks an action-consistent checkpoint; Active lists
	// transactions alive at checkpoint time.
	RecCheckpoint
	// RecPhysAlloc records allocation of a physical slot for a
	// logically-addressed object (logical-OID mode): OID is the new
	// physical address, Obj the logical identity, After the image. The
	// reference analyzer ignores it — the object's identity and edges are
	// unchanged; only its placement is new.
	RecPhysAlloc
	// RecPhysFree records release of a logically-addressed object's old
	// physical slot: OID is the physical address, Obj the logical
	// identity, Before the image. Analyzer-invisible like RecPhysAlloc.
	RecPhysFree
	// RecMapSet records a logical→physical map update: Obj moves from
	// physical address Child to Child2. It touches no page, so redo
	// replays it unconditionally (the map is rebuilt from checkpoint +
	// log, never from pages).
	RecMapSet
	// RecPartCreate records partition creation (Txn 0, redo-only): OID's
	// partition field names the partition; Child != 0 marks it
	// memory-resident inside a disk-backed store.
	RecPartCreate
	// RecPartDrop records dropping an empty partition (Txn 0, redo-only).
	RecPartDrop
)

var recTypeNames = map[RecType]string{
	RecBegin: "Begin", RecCommit: "Commit", RecAbort: "Abort",
	RecUpdate: "Update", RecCreate: "Create", RecDelete: "Delete",
	RecRefInsert: "RefInsert", RecRefDelete: "RefDelete", RecRefUpdate: "RefUpdate",
	RecCheckpoint: "Checkpoint",
	RecPhysAlloc:  "PhysAlloc", RecPhysFree: "PhysFree", RecMapSet: "MapSet",
	RecPartCreate: "PartCreate", RecPartDrop: "PartDrop",
}

func (t RecType) String() string {
	if s, ok := recTypeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("RecType(%d)", uint8(t))
}

// Record is a log record. Images are full object images: redo and undo
// simply install After or Before, which keeps recovery idempotent.
//
// Compensation records (rollback) are typed: undoing a RecRefInsert
// writes a RecRefDelete with CLR set, and so on. A CLR is redo-only —
// recovery never undoes it — and its UndoNxt points at the next record of
// the transaction still to be undone, so repeated crashes during rollback
// never undo the same update twice.
type Record struct {
	LSN     LSN
	Prev    LSN // previous record of the same transaction
	Type    RecType
	Txn     TxnID
	CLR     bool    // compensation record (redo-only)
	OID     oid.OID // object affected (always the physical address)
	Child   oid.OID // referenced object for Ref* records
	Child2  oid.OID // new referenced object for RecRefUpdate
	Before  []byte  // undo image
	After   []byte  // redo image
	UndoNxt LSN     // CLR: next LSN of this txn to undo
	Active  []TxnID // checkpoint: active transactions
	// Obj is the object's logical identity in logical-OID mode (0
	// otherwise). OID stays the physical address in every record, so
	// page-level redo/undo is identical in both modes; identity-level
	// consumers (the reference analyzer, the TRT) use Identity().
	Obj oid.OID
}

// Identity returns the object identity the record is about: the logical
// OID when one is recorded, else the physical address.
func (r *Record) Identity() oid.OID {
	if !r.Obj.IsNil() {
		return r.Obj
	}
	return r.OID
}

// Compensation returns the CLR that undoes r, or nil if r cannot be
// compensated: a CLR (redo-only), or a type with no undo (Begin, Commit,
// Abort, Checkpoint and the redo-only partition records). The CLR
// carries r's OID and Obj and UndoNxt = r.Prev; its own redo is the
// undo. Live rollback logs and applies it; restart undo applies the same
// image unlogged, so both directions share one definition.
//
// Each type maps to its inverse: a create's CLR is a delete, a delete's
// a create, a placement's a release and back; updates swap the images,
// reference changes invert (undoing a reference delete reintroduces the
// reference as a RefInsert, which the analyzer records in the TRT — the
// paper's rule that an abort-reinserted reference counts as an
// insertion, §4.5), and a retarget or map swing swaps Child and Child2.
func (r *Record) Compensation() *Record {
	if r.CLR {
		return nil
	}
	c := &Record{CLR: true, OID: r.OID, Obj: r.Obj, UndoNxt: r.Prev}
	switch r.Type {
	case RecUpdate:
		c.Type, c.After = RecUpdate, r.Before
	case RecCreate:
		c.Type, c.Before = RecDelete, r.After
	case RecDelete:
		c.Type, c.After = RecCreate, r.Before
	case RecPhysAlloc:
		c.Type, c.Before = RecPhysFree, r.After
	case RecPhysFree:
		c.Type, c.After = RecPhysAlloc, r.Before
	case RecMapSet:
		c.Type, c.Child, c.Child2 = RecMapSet, r.Child2, r.Child
	case RecRefInsert:
		c.Type, c.Child, c.Before, c.After = RecRefDelete, r.Child, r.After, r.Before
	case RecRefDelete:
		c.Type, c.Child, c.Before, c.After = RecRefInsert, r.Child, r.After, r.Before
	case RecRefUpdate:
		c.Type, c.Child, c.Child2, c.Before, c.After = RecRefUpdate, r.Child2, r.Child, r.After, r.Before
	default:
		return nil
	}
	return c
}

// IsRefChange reports whether the record inserts or deletes an object
// reference — the records the log analyzer cares about.
func (r *Record) IsRefChange() bool {
	switch r.Type {
	case RecRefInsert, RecRefDelete, RecRefUpdate:
		return true
	}
	return false
}

// Observer receives every appended record, in LSN order, synchronously
// with the append. Implementations must be fast and must not call back
// into the log.
type Observer func(r *Record)

// Log is a write-ahead log. Records live in memory; durability comes
// from the flush device — by default a simulated one (a sleep of
// FlushLatency per group-committed batch), optionally a real FileDevice.
type Log struct {
	flushLatency time.Duration
	device       func(records []*Record) error

	mu       sync.Mutex
	cond     *sync.Cond
	records  []*Record
	nextLSN  LSN
	firstLSN LSN // LSN of records[0] (advances on Truncate)
	flushed  LSN
	flushing bool
	closed   bool
	devErr   error
	observer Observer

	// perCommitSync disables flush piggybacking: every FlushWait caller
	// whose records are not yet durable issues its own device write
	// covering only its LSN. This is the naive-WAL baseline the
	// group-commit benchmark compares against; never set in production
	// configurations.
	perCommitSync bool

	// Group-append ring (WithGroupAppend; nil otherwise). Appenders
	// reserve an LSN with one atomic increment, publish their record
	// into ring[lsn&ringMask], and then help drain: whoever wins drainMu
	// moves every contiguously-published record into the canonical
	// records slice (and through the observer) in one batch under one
	// l.mu acquisition. Under contention the per-record mutex handoff of
	// the default path becomes one handoff per batch — flat combining —
	// while every Append still returns only after its record has been
	// drained, preserving the two properties everything above relies on:
	// the observer sees records in strict LSN order synchronously with
	// the append, and FlushWait(lsn) can always find record lsn.
	ring     []atomic.Pointer[Record]
	ringMask uint64
	reserved atomic.Uint64 // last LSN handed to an appender
	drained  atomic.Uint64 // all records <= drained are in records[] and observed
	drainMu  sync.Mutex
	closedRA atomic.Bool // closed, readable without l.mu (ring appenders)
}

// Option configures a Log.
type LogOption func(*Log)

// WithFlushLatency sets the simulated log-device write latency. Zero
// means flushes complete instantly (still in order).
func WithFlushLatency(d time.Duration) LogOption {
	return func(l *Log) { l.flushLatency = d }
}

// WithObserver registers the append observer.
func WithObserver(fn Observer) LogOption {
	return func(l *Log) { l.observer = fn }
}

// WithFileDevice makes the log durable on a real file device: each
// group-committed batch is encoded, appended to the current segment and
// fsynced. FlushLatency, if also set, is added on top (useful to model a
// slower device than the host disk).
func WithFileDevice(dev *FileDevice) LogOption {
	return func(l *Log) { l.device = dev.write }
}

// DefaultGroupAppendRing is the append-ring capacity WithGroupAppend
// uses when 0 is requested. It only bounds how far reservation may run
// ahead of draining; any power of two comfortably above the realistic
// appender count works.
const DefaultGroupAppendRing = 1024

// WithGroupAppend routes Append through the batched append ring (see
// the Log field comments): LSN reservation becomes one atomic add and
// record hand-off to the canonical slice and observer is amortized over
// whole batches. n is the ring capacity, rounded up to a power of two;
// n <= 0 selects DefaultGroupAppendRing. Hardware mode enables this;
// the default single-mutex path is unchanged without it.
func WithGroupAppend(n int) LogOption {
	return func(l *Log) {
		if n <= 0 {
			n = DefaultGroupAppendRing
		}
		size := 1
		for size < n {
			size <<= 1
		}
		l.ring = make([]atomic.Pointer[Record], size)
		l.ringMask = uint64(size - 1)
	}
}

// WithPerCommitSync makes every FlushWait caller whose records were
// undurable on entry issue its own device write, serialized behind
// every other committer's — no piggybacking on a sync that completes
// while the caller waits. The write itself still covers the whole
// appended prefix (an fsync is file-wide); what this disables is the
// op sharing, because the op count is what group commit optimizes
// away. This deliberately reproduces the naive per-commit-fsync WAL
// that group commit exists to beat; it is the baseline of the
// commit-throughput benchmark and has no other use.
func WithPerCommitSync() LogOption {
	return func(l *Log) { l.perCommitSync = true }
}

// NewLog creates a log.
func NewLog(opts ...LogOption) *Log {
	l := &Log{nextLSN: 1, firstLSN: 1}
	l.cond = sync.NewCond(&l.mu)
	for _, o := range opts {
		o(l)
	}
	return l
}

// ErrClosed reports use of a closed log.
var ErrClosed = errors.New("wal: log closed")

// ErrDeviceFailed reports a log device that has permanently failed:
// a write or fsync error survived its retry budget, or the device was
// frozen by a simulated crash. Once a device fails, the durable
// horizon never advances again and every later FlushWait returns an
// error wrapping this sentinel.
var ErrDeviceFailed = errors.New("wal: log device failed")

// Fail marks the log's device failed with the given cause. Nothing
// past the current durable horizon will ever commit; waiters are
// woken with an error wrapping ErrDeviceFailed. The first failure
// cause wins. Crash-injection harnesses use this (together with
// FileDevice.Freeze) to freeze the durable image at the crash
// instant.
func (l *Log) Fail(cause error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.devErr != nil {
		return
	}
	switch {
	case cause == nil:
		l.devErr = ErrDeviceFailed
	case errors.Is(cause, ErrDeviceFailed):
		l.devErr = cause
	default:
		l.devErr = fmt.Errorf("%w: %v", ErrDeviceFailed, cause)
	}
	l.cond.Broadcast()
}

// Append assigns the next LSN to r, stores it, and hands it to the
// observer. It does not wait for durability; use FlushWait for that.
func (l *Log) Append(r *Record) (LSN, error) {
	if l.ring != nil {
		return l.appendRing(r)
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, ErrClosed
	}
	r.LSN = l.nextLSN
	l.nextLSN++
	l.records = append(l.records, r)
	obs := l.observer
	if obs != nil {
		// Observer runs under the log mutex so it sees records in strict
		// LSN order — the property the TRT correctness argument needs.
		obs(r)
	}
	l.mu.Unlock()
	interleave.Note(interleave.Append, r.OID.Partition(), int(r.OID.Page()), uint64(r.LSN))
	return r.LSN, nil
}

// appendRing is the group-append path. The appender reserves an LSN,
// publishes the record into its ring slot, and helps drain until its
// own record has been moved into the canonical slice — so on return the
// record is visible to Get/Records/FlushWait and the observer has seen
// it, exactly like the mutex path, but the slice append, LSN bump and
// observer calls are batched under one mutex acquisition per drain.
func (l *Log) appendRing(r *Record) (LSN, error) {
	if l.closedRA.Load() {
		return 0, ErrClosed
	}
	lsn := LSN(l.reserved.Add(1))
	// Backpressure: the slot for lsn may still hold the record of
	// lsn-ringSize until that record drains. Help drain until it has;
	// every reservation ahead of us publishes without blocking, so this
	// always terminates.
	for uint64(lsn)-l.drained.Load() > uint64(len(l.ring)) {
		l.drainRing()
	}
	r.LSN = lsn
	l.ring[uint64(lsn)&l.ringMask].Store(r)
	for l.drained.Load() < uint64(lsn) {
		l.drainRing()
	}
	interleave.Note(interleave.Append, r.OID.Partition(), int(r.OID.Page()), uint64(lsn))
	return lsn, nil
}

// drainRing moves every contiguously-published ring record into the
// canonical slice and through the observer, as one batch. Only one
// drainer runs at a time; losers yield so the winner's batch grows.
func (l *Log) drainRing() {
	if !l.drainMu.TryLock() {
		runtime.Gosched()
		return
	}
	defer l.drainMu.Unlock()
	next := l.drained.Load() + 1
	var batch []*Record
	for {
		slot := &l.ring[next&l.ringMask]
		r := slot.Load()
		if r == nil || uint64(r.LSN) != next {
			break // unpublished gap: its appender will drain the rest
		}
		slot.Store(nil)
		batch = append(batch, r)
		next++
	}
	if len(batch) == 0 {
		return
	}
	l.mu.Lock()
	l.records = append(l.records, batch...)
	l.nextLSN = LSN(next)
	if l.observer != nil {
		// Single drainer + in-batch order = strict LSN order, same
		// guarantee the mutex path gives the TRT correctness argument.
		for _, r := range batch {
			l.observer(r)
		}
	}
	l.mu.Unlock()
	// Publish only after the records are visible under l.mu: an Append
	// returns (and its caller may FlushWait) the moment this store lands.
	l.drained.Store(next - 1)
}

// FlushWait blocks until all records up to and including lsn are durable.
// Concurrent callers are group-committed: one simulated device write
// covers every record appended before it starts. Under WithPerCommitSync
// the sharing is disabled — every caller undurable on entry pays its own
// device write, serialized behind the others'.
func (l *Log) FlushWait(lsn LSN) error {
	if obs.Enabled() {
		defer obs.ObserveSince(obs.WALSync, time.Now())
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.perCommitSync && l.flushed < lsn {
		// Naive baseline: wait for the device to be free, then issue our
		// own write even if a concurrent committer's sync covered our
		// records while we waited — one device op per commit is exactly
		// the discipline the group path is measured against.
		for l.flushing {
			if l.closed {
				return ErrClosed
			}
			if l.devErr != nil {
				return l.devErr
			}
			l.cond.Wait()
		}
		if l.closed {
			return ErrClosed
		}
		if l.devErr != nil {
			return l.devErr
		}
		return l.syncLocked(lsn)
	}
	for l.flushed < lsn {
		if l.closed {
			return ErrClosed
		}
		if l.devErr != nil {
			return l.devErr
		}
		if !l.flushing {
			if err := l.syncLocked(lsn); err != nil {
				return err
			}
			continue
		}
		l.cond.Wait()
	}
	return nil
}

// syncLocked performs one device write covering every record appended so
// far and advances the durable horizon to it. Called with l.mu held and
// l.flushing false; returns with l.mu held and l.flushing false (the
// mutex is dropped around the device write itself).
func (l *Log) syncLocked(lsn LSN) error {
	l.flushing = true
	target := l.nextLSN - 1
	var batch []*Record
	if l.device != nil && target >= l.flushed+1 {
		lo := l.flushed + 1
		if lo < l.firstLSN {
			lo = l.firstLSN
		}
		batch = append(batch, l.records[lo-l.firstLSN:target-l.firstLSN+1]...)
	}
	if l.device != nil || l.flushLatency > 0 {
		l.mu.Unlock()
		var err error
		if l.device != nil {
			err = l.device(batch)
		}
		if err == nil && l.flushLatency > 0 {
			time.Sleep(l.flushLatency)
		}
		l.mu.Lock()
		if err != nil {
			// The log medium failed: nothing past the durable
			// horizon can ever commit. A concurrent Fail may
			// have latched a cause already; first one wins.
			if l.devErr == nil {
				l.devErr = fmt.Errorf("wal: flush device: %w", err)
			}
			l.flushing = false
			l.cond.Broadcast()
			return l.devErr
		}
		if l.devErr != nil {
			// Fail raced the device write: the write itself
			// made it to the medium, but the log is dead —
			// don't advance past records the device already
			// holds, and report the failure.
			l.flushing = false
			l.cond.Broadcast()
			if l.flushed >= lsn {
				return nil
			}
			return l.devErr
		}
	}
	l.flushed = target
	l.flushing = false
	l.cond.Broadcast()
	return nil
}

// FlushedLSN returns the durable horizon.
func (l *Log) FlushedLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushed
}

// TailLSN returns the LSN of the most recently appended record (0 if
// none).
func (l *Log) TailLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN - 1
}

// Get returns the record with the given LSN, or nil if it has been
// truncated or never existed.
func (l *Log) Get(lsn LSN) *Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	if lsn < l.firstLSN || lsn >= l.nextLSN {
		return nil
	}
	return l.records[lsn-l.firstLSN]
}

// Records returns the records with LSN >= from, in order.
func (l *Log) Records(from LSN) []*Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	if from < l.firstLSN {
		from = l.firstLSN
	}
	if from >= l.nextLSN {
		return nil
	}
	src := l.records[from-l.firstLSN:]
	out := make([]*Record, len(src))
	copy(out, src)
	return out
}

// Truncate discards records with LSN < before; they must be covered by a
// checkpoint.
func (l *Log) Truncate(before LSN) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if before <= l.firstLSN {
		return
	}
	if before > l.nextLSN {
		before = l.nextLSN
	}
	l.records = append([]*Record(nil), l.records[before-l.firstLSN:]...)
	l.firstLSN = before
}

// Close marks the log closed and wakes waiters.
func (l *Log) Close() {
	l.closedRA.Store(true)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	l.cond.Broadcast()
}

// Encoding: records serialize to a CRC-framed binary format:
//
//	u32 magic | u32 bodyLen | u32 crc32(body) | body
//
// The CRC lets a scanner distinguish a clean torn tail (a crash cut
// the final record short: fewer bytes than the header promises —
// ErrTorn) from real corruption (full-length body whose checksum or
// structure is wrong — ErrCorrupt). The in-memory log keeps structs
// for speed; the format is used by FileDevice persistence.

const recMagic = 0x4c524f47 // "GORL"

// recHeaderBytes is the framing prefix: magic, body length, body CRC.
const recHeaderBytes = 12

// Encode serializes r in the CRC-framed format.
func Encode(r *Record) []byte {
	body := encodeBody(r)
	buf := make([]byte, recHeaderBytes, recHeaderBytes+len(body))
	binary.LittleEndian.PutUint32(buf[0:], recMagic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(body)))
	binary.LittleEndian.PutUint32(buf[8:], crc32.ChecksumIEEE(body))
	return append(buf, body...)
}

func encodeBody(r *Record) []byte {
	var scratch [8]byte
	buf := make([]byte, 0, 64+len(r.Before)+len(r.After))
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(scratch[:4], v)
		buf = append(buf, scratch[:4]...)
	}
	put64 := func(v uint64) {
		binary.LittleEndian.PutUint64(scratch[:8], v)
		buf = append(buf, scratch[:8]...)
	}
	putBytes := func(b []byte) {
		put32(uint32(len(b)))
		buf = append(buf, b...)
	}
	buf = append(buf, byte(r.Type))
	var flags byte
	if r.CLR {
		flags |= 1
	}
	buf = append(buf, flags)
	put64(uint64(r.LSN))
	put64(uint64(r.Prev))
	put64(uint64(r.Txn))
	put64(uint64(r.OID))
	put64(uint64(r.Child))
	put64(uint64(r.Child2))
	put64(uint64(r.UndoNxt))
	put64(uint64(r.Obj))
	putBytes(r.Before)
	putBytes(r.After)
	put32(uint32(len(r.Active)))
	for _, t := range r.Active {
		put64(uint64(t))
	}
	return buf
}

// ErrCorrupt reports a malformed encoded record.
var ErrCorrupt = errors.New("wal: corrupt record")

// ErrTorn reports a record cut short by a crash mid-write: the buffer
// ends before the bytes the frame header promises, with everything
// present still checksumming clean. ErrTorn wraps ErrCorrupt (a torn
// record is a corrupt record), so existing ErrCorrupt checks still
// match; scanners that must distinguish a tolerable torn tail from
// hard corruption test for ErrTorn specifically.
var ErrTorn = fmt.Errorf("%w: torn (truncated mid-write)", ErrCorrupt)

// Decode parses a record serialized by Encode and returns it along with
// the number of bytes consumed.
func Decode(buf []byte) (*Record, int, error) {
	if len(buf) < 4 {
		return nil, 0, fmt.Errorf("%w: %d of %d header bytes", ErrTorn, len(buf), recHeaderBytes)
	}
	if binary.LittleEndian.Uint32(buf) != recMagic {
		return nil, 0, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if len(buf) < recHeaderBytes {
		return nil, 0, fmt.Errorf("%w: %d of %d header bytes", ErrTorn, len(buf), recHeaderBytes)
	}
	bodyLen := int(binary.LittleEndian.Uint32(buf[4:]))
	crc := binary.LittleEndian.Uint32(buf[8:])
	if len(buf)-recHeaderBytes < bodyLen {
		return nil, 0, fmt.Errorf("%w: %d of %d body bytes", ErrTorn, len(buf)-recHeaderBytes, bodyLen)
	}
	body := buf[recHeaderBytes : recHeaderBytes+bodyLen]
	if crc32.ChecksumIEEE(body) != crc {
		return nil, 0, fmt.Errorf("%w: crc mismatch", ErrCorrupt)
	}
	r, err := decodeBody(body)
	if err != nil {
		return nil, 0, err
	}
	return r, recHeaderBytes + bodyLen, nil
}

func decodeBody(buf []byte) (*Record, error) {
	pos := 0
	need := func(n int) bool { return pos+n <= len(buf) }
	get32 := func() (uint32, bool) {
		if !need(4) {
			return 0, false
		}
		v := binary.LittleEndian.Uint32(buf[pos:])
		pos += 4
		return v, true
	}
	get64 := func() (uint64, bool) {
		if !need(8) {
			return 0, false
		}
		v := binary.LittleEndian.Uint64(buf[pos:])
		pos += 8
		return v, true
	}
	if !need(2) {
		return nil, ErrCorrupt
	}
	if buf[pos+1]&^1 != 0 {
		return nil, fmt.Errorf("%w: unknown flag bits %#x", ErrCorrupt, buf[pos+1])
	}
	r := &Record{Type: RecType(buf[pos]), CLR: buf[pos+1]&1 != 0}
	pos += 2
	fields := []*uint64{
		(*uint64)(&r.LSN), (*uint64)(&r.Prev), (*uint64)(&r.Txn),
		(*uint64)(&r.OID), (*uint64)(&r.Child), (*uint64)(&r.Child2),
		(*uint64)(&r.UndoNxt), (*uint64)(&r.Obj),
	}
	for _, f := range fields {
		v, ok := get64()
		if !ok {
			return nil, ErrCorrupt
		}
		*f = v
	}
	getBytes := func() ([]byte, bool) {
		n, ok := get32()
		if !ok || !need(int(n)) {
			return nil, false
		}
		if n == 0 {
			return nil, true
		}
		b := append([]byte(nil), buf[pos:pos+int(n)]...)
		pos += int(n)
		return b, true
	}
	var ok bool
	if r.Before, ok = getBytes(); !ok {
		return nil, ErrCorrupt
	}
	if r.After, ok = getBytes(); !ok {
		return nil, ErrCorrupt
	}
	nActive, ok := get32()
	if !ok {
		return nil, ErrCorrupt
	}
	for i := uint32(0); i < nActive; i++ {
		v, ok := get64()
		if !ok {
			return nil, ErrCorrupt
		}
		r.Active = append(r.Active, TxnID(v))
	}
	if pos != len(buf) {
		// A checksum-valid body with trailing bytes means the frame
		// length lies about the structure inside it.
		return nil, fmt.Errorf("%w: %d trailing body bytes", ErrCorrupt, len(buf)-pos)
	}
	return r, nil
}
