// Package db implements the object database the paper's system model
// describes (§2): a partitioned store of objects holding physical
// references, accessed by transactions under (strict or relaxed)
// two-phase locking with write-ahead logging, with an External Reference
// Table per partition maintained by a log analyzer.
//
// This is the role Brahmā plays in the paper; internal/reorg implements
// IRA and its competitors on top of this layer.
package db

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/analyzer"
	"repro/internal/ert"
	"repro/internal/hwmode"
	"repro/internal/latch"
	"repro/internal/lock"
	"repro/internal/object"
	"repro/internal/obs"
	"repro/internal/oid"
	"repro/internal/oidmap"
	"repro/internal/storage"
	"repro/internal/trt"
	"repro/internal/wal"
)

// Config configures a Database.
type Config struct {
	// PageSize is the slotted-page size in bytes.
	PageSize int
	// FillFactor bounds how full the first-fit allocator packs pages.
	FillFactor float64
	// LockTimeout is the deadlock timeout (paper: 1 s). It bounds every
	// lock wait in both deadlock modes.
	LockTimeout time.Duration
	// TimeoutDeadlocks resolves deadlocks only by LockTimeout, as the
	// paper's testbed did. When false, the lock manager also checks the
	// waits-for graph whenever a request queues, and when a cycle forms
	// the member whose timeout would fire first fails at once
	// (lock.ErrDeadlock, an ErrTimeout).
	// DefaultConfig sets it; REORG_MODE=hardware clears it.
	TimeoutDeadlocks bool
	// FlushLatency simulates the log device write time; commits wait for
	// a group-commit flush covering their commit record.
	FlushLatency time.Duration
	// Strict2PL, when true, forbids early lock release and enables the
	// TRT purge optimizations. When false, the lock manager tracks
	// lock history so the reorganizer can apply the §4.1 waiting rule.
	Strict2PL bool
	// LatchStripes sizes the object latch table.
	LatchStripes int
	// LogDir, if non-empty, makes the WAL durable on disk: records are
	// written to rotating segment files there and fsynced at each group
	// commit. FlushLatency, if also set, is added on top.
	LogDir string
	// LogSegmentBytes is the segment rotation threshold for LogDir.
	LogSegmentBytes int
	// DiskBacked puts the object store on disk: pages live in
	// per-partition segment files under DataDir and the page table acts
	// as a buffer pool of PoolFrames frames. Setting REORG_DISK_BACKED=1
	// in the environment forces this mode on (tests run the whole suite
	// in both modes that way).
	DiskBacked bool
	// DataDir is the segment directory for DiskBacked mode. Empty means
	// a temporary directory that is removed on Close.
	DataDir string
	// PoolFrames is the buffer-pool frame budget for DiskBacked mode
	// (default storage.DefaultPoolFrames).
	PoolFrames int
	// GroupCommit routes WAL appends through the flat-combining ring so
	// concurrent committers batch into one log-mutex acquisition and
	// piggyback on one device sync. Setting REORG_MODE=hardware turns it
	// on by default; fidelity mode leaves the per-append mutex path,
	// whose serialization is part of the simulated uniprocessor.
	GroupCommit bool
	// WALPerCommitSync makes every committer wait only for its own
	// record's durability instead of joining the group-commit flush.
	// This is the naive-baseline configuration the hardware-mode bench
	// compares group commit against; not intended for normal use.
	WALPerCommitSync bool
	// ReaderShards is the reader-shard count for partition mutexes and
	// latch stripes (see internal/shard). 0 selects 1 in fidelity mode
	// and the host's shard count under REORG_MODE=hardware.
	ReaderShards int
	// LogicalOIDs interposes a logical→physical indirection table
	// (internal/oidmap) between object identities and their storage
	// addresses. References then hold logical OIDs that survive
	// relocation, so a reorganization updates one map entry per migrated
	// object instead of rewriting every parent; every dereference pays
	// one sharded map probe. Setting REORG_LOGICAL_OID=1 in the
	// environment forces the mode on; explicit config always wins.
	LogicalOIDs bool
	// PhysicalOIDs pins direct physical addressing, overriding
	// REORG_LOGICAL_OID. Address-sensitive code — tests that assert
	// objects move, benchmarks pairing a physical baseline against a
	// logical cell — sets it so the environment's mode sweep cannot
	// change its semantics. Ignored when LogicalOIDs is set explicitly
	// or when a recovered indirection map is supplied: a database that
	// has a map is logical, full stop.
	PhysicalOIDs bool
}

// DefaultConfig returns the configuration used by the experiments unless
// overridden: 8 KiB pages, 1 s lock timeout as the only deadlock
// resolver, strict 2PL, and a 2 ms simulated log device.
func DefaultConfig() Config {
	return Config{
		PageSize:         8192,
		FillFactor:       storage.DefaultFillFactor,
		LockTimeout:      time.Second,
		TimeoutDeadlocks: true,
		FlushLatency:     2 * time.Millisecond,
		Strict2PL:        true,
		LatchStripes:     latch.DefaultStripes,
	}
}

// Database is an object database instance.
type Database struct {
	cfg     Config
	store   *storage.Store
	locks   *lock.Manager
	latches *latch.Table
	log     *wal.Log
	an      *analyzer.Analyzer
	logDev  *wal.FileDevice // non-nil when the WAL is file-backed

	// oidmap is the logical→physical indirection table; nil unless
	// Config.LogicalOIDs. Its presence is the mode switch every
	// identity-sensitive path branches on.
	oidmap *oidmap.Map

	// ownsDataDir marks a temporary segment directory created by Open
	// (DiskBacked with empty DataDir); Close removes it.
	ownsDataDir bool

	// ckptGate makes checkpoints action-consistent: every logged
	// mutation holds it in read mode across its (log, apply) pair, and
	// Checkpoint holds it in write mode while snapshotting. Redo can
	// therefore start exactly at the checkpoint record's LSN.
	ckptGate sync.RWMutex

	mu      sync.Mutex
	nextTxn uint64
	active  map[lock.TxnID]*Txn
	closed  bool
}

// Open creates an empty database.
func Open(cfg Config) *Database { return openDB(cfg, nil, nil) }

// OpenWithStore builds a Database around an existing store. Restart
// recovery uses it after rebuilding the store image from a checkpoint
// snapshot plus the log; callers should normally follow with RebuildERTs.
func OpenWithStore(cfg Config, st *storage.Store) *Database {
	return openDB(cfg, st, nil)
}

// OpenWithState is OpenWithStore plus a recovered OID indirection map.
// Restart recovery in logical-OID mode passes the map it rebuilt from
// the checkpoint snapshot and the log suffix.
func OpenWithState(cfg Config, st *storage.Store, m *oidmap.Map) *Database {
	return openDB(cfg, st, m)
}

// envDiskBacked reports whether REORG_DISK_BACKED requests disk mode.
func envDiskBacked() bool {
	v := os.Getenv("REORG_DISK_BACKED")
	return v != "" && v != "0" && !strings.EqualFold(v, "false")
}

// envLogicalOIDs reports whether REORG_LOGICAL_OID requests logical-OID
// mode.
func envLogicalOIDs() bool {
	v := os.Getenv("REORG_LOGICAL_OID")
	return v != "" && v != "0" && !strings.EqualFold(v, "false")
}

func openDB(cfg Config, st *storage.Store, m *oidmap.Map) *Database {
	def := DefaultConfig()
	if cfg.PageSize == 0 {
		cfg.PageSize = def.PageSize
	}
	if cfg.FillFactor == 0 {
		cfg.FillFactor = def.FillFactor
	}
	if cfg.LockTimeout == 0 {
		cfg.LockTimeout = def.LockTimeout
	}
	if cfg.LatchStripes == 0 {
		cfg.LatchStripes = def.LatchStripes
	}
	// Hardware mode (REORG_MODE=hardware) forces group commit and
	// waits-for deadlock detection on, mirroring how REORG_DISK_BACKED
	// forces disk mode.
	if hwmode.Enabled() {
		cfg.GroupCommit = true
		cfg.TimeoutDeadlocks = false
	}
	if cfg.ReaderShards == 0 {
		if hwmode.Enabled() {
			cfg.ReaderShards = hwmode.ReaderShards()
		} else {
			cfg.ReaderShards = 1
		}
	}
	if !cfg.LogicalOIDs && (m != nil || (envLogicalOIDs() && !cfg.PhysicalOIDs)) {
		cfg.LogicalOIDs = true
	}
	ownsDataDir := false
	if st == nil {
		if !cfg.DiskBacked && envDiskBacked() {
			cfg.DiskBacked = true
		}
		if cfg.DiskBacked {
			if cfg.DataDir == "" {
				dir, err := os.MkdirTemp("", "reorg-segments-")
				if err != nil {
					panic(fmt.Sprintf("db: temp segment directory: %v", err))
				}
				cfg.DataDir = dir
				ownsDataDir = true
			}
			var err error
			st, err = storage.NewDiskBacked(cfg.DataDir, cfg.PoolFrames,
				storage.WithPageSize(cfg.PageSize), storage.WithFillFactor(cfg.FillFactor),
				storage.WithReaderShards(cfg.ReaderShards))
			if err != nil {
				panic(fmt.Sprintf("db: open segment directory: %v", err))
			}
		} else {
			st = storage.New(storage.WithPageSize(cfg.PageSize), storage.WithFillFactor(cfg.FillFactor),
				storage.WithReaderShards(cfg.ReaderShards))
		}
	} else {
		// Keep cfg truthful for recovery and stats consumers.
		cfg.DiskBacked = st.DiskBacked()
	}
	if cfg.LogicalOIDs && m == nil {
		m = oidmap.New()
	}
	d := &Database{
		cfg:         cfg,
		store:       st,
		oidmap:      m,
		ownsDataDir: ownsDataDir,
		locks: lock.NewManager(lock.WithTimeout(cfg.LockTimeout), lock.WithHistory(!cfg.Strict2PL),
			lock.WithDeadlockDetection(!cfg.TimeoutDeadlocks)),
		latches: latch.NewSharded(cfg.LatchStripes, cfg.ReaderShards),
		an:      analyzer.New(),
		active:  make(map[lock.TxnID]*Txn),
	}
	opts := []wal.LogOption{wal.WithFlushLatency(cfg.FlushLatency), wal.WithObserver(d.an.Observe)}
	if cfg.GroupCommit {
		opts = append(opts, wal.WithGroupAppend(0))
	}
	if cfg.WALPerCommitSync {
		opts = append(opts, wal.WithPerCommitSync())
	}
	if cfg.LogDir != "" {
		dev, err := wal.NewFileDevice(cfg.LogDir, cfg.LogSegmentBytes)
		if err != nil {
			panic(fmt.Sprintf("db: open log directory: %v", err))
		}
		d.logDev = dev
		opts = append(opts, wal.WithFileDevice(dev))
	}
	d.log = wal.NewLog(opts...)
	// Wire the WAL into the buffer pool so dirty-page flushes can honor
	// the WAL-ahead rule, and surface the pool counters on expvar.
	st.AttachWAL(d.log)
	if st.DiskBacked() {
		obs.RegisterPoolStats(func() any { return st.PoolStats() })
	}
	return d
}

// Config returns the database configuration.
func (d *Database) Config() Config { return d.cfg }

// Store exposes the storage layer (used by reorg, recovery and checks).
func (d *Database) Store() *storage.Store { return d.store }

// Locks exposes the lock manager.
func (d *Database) Locks() *lock.Manager { return d.locks }

// Log exposes the WAL.
func (d *Database) Log() *wal.Log { return d.log }

// Latches exposes the object latch table.
func (d *Database) Latches() *latch.Table { return d.latches }

// Analyzer exposes the log analyzer.
func (d *Database) Analyzer() *analyzer.Analyzer { return d.an }

// OIDMap exposes the logical→physical indirection table (nil unless the
// database runs with Config.LogicalOIDs).
func (d *Database) OIDMap() *oidmap.Map { return d.oidmap }

// resolve maps an identity to its physical address: through the
// indirection table in logical-OID mode, the identity itself otherwise.
// An unbound identity surfaces as storage.ErrNoObject, the same error a
// dangling physical address produces.
func (d *Database) resolve(o oid.OID) (oid.OID, error) {
	if d.oidmap == nil {
		return o, nil
	}
	if p, ok := d.oidmap.Resolve(o); ok {
		return p, nil
	}
	return oid.Nil, fmt.Errorf("%w: %s", storage.ErrNoObject, o)
}

// ERT returns the External Reference Table of part.
func (d *Database) ERT(part oid.PartitionID) *ert.Table { return d.an.ERT(part) }

// CreatePartition adds an empty partition (with its ERT) using the
// database's default backing.
func (d *Database) CreatePartition(part oid.PartitionID) error {
	return d.createPartition(part, d.cfg.DiskBacked)
}

// CreatePartitionBacked adds an empty partition with an explicit
// backing: toDisk puts its pages behind the buffer pool (requires a
// disk-backed database); otherwise the partition stays memory-resident
// and is durable through checkpoints plus the WAL alone.
func (d *Database) CreatePartitionBacked(part oid.PartitionID, toDisk bool) error {
	if toDisk && !d.cfg.DiskBacked {
		return fmt.Errorf("db: partition %d: disk backing requires a disk-backed database", part)
	}
	return d.createPartition(part, toDisk)
}

// createPartition performs the store create and logs the redo-only
// (transaction-less) lifecycle record under the checkpoint gate, so
// recovery replays partition creates that postdate the checkpoint with
// their backing policy intact (Child != 0 marks a memory-resident
// partition of a disk-backed store).
func (d *Database) createPartition(part oid.PartitionID, toDisk bool) error {
	d.ckptGate.RLock()
	defer d.ckptGate.RUnlock()
	if err := d.store.CreatePartitionBacked(part, !toDisk); err != nil {
		return err
	}
	rec := &wal.Record{Type: wal.RecPartCreate, OID: oid.New(part, 0, 0)}
	if !toDisk {
		rec.Child = 1
	}
	if _, err := d.log.Append(rec); err != nil {
		return err
	}
	d.an.ERT(part)
	return nil
}

// DropPartition removes an empty (fully evacuated) partition and its ERT.
func (d *Database) DropPartition(part oid.PartitionID) error {
	if err := d.dropStorePartition(part); err != nil {
		return err
	}
	d.an.DropERT(part)
	return nil
}

// DropStorePartition removes a partition from the store but keeps its
// ERT. Logical-mode store moves use it: the evacuated partition's
// bodies live elsewhere, but its logical identities — and therefore the
// external references the ERT tracks — live on.
func (d *Database) DropStorePartition(part oid.PartitionID) error {
	return d.dropStorePartition(part)
}

func (d *Database) dropStorePartition(part oid.PartitionID) error {
	d.ckptGate.RLock()
	defer d.ckptGate.RUnlock()
	if !d.store.HasPartition(part) {
		return fmt.Errorf("%w: %d", storage.ErrNoPartition, part)
	}
	// Log first: redo re-drops tolerantly, so a crash between the two
	// steps still converges on the dropped state.
	if _, err := d.log.Append(&wal.Record{Type: wal.RecPartDrop, OID: oid.New(part, 0, 0)}); err != nil {
		return err
	}
	return d.store.DropPartition(part)
}

// Partitions lists partition ids.
func (d *Database) Partitions() []oid.PartitionID { return d.store.Partitions() }

// ErrClosed reports use of a closed database.
var ErrClosed = errors.New("db: database closed")

// Begin starts a transaction. Each transaction must be used by a single
// goroutine.
func (d *Database) Begin() (*Txn, error) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil, ErrClosed
	}
	d.nextTxn++
	id := lock.TxnID(d.nextTxn)
	t := &Txn{db: d, id: id}
	d.active[id] = t
	d.mu.Unlock()

	d.locks.Begin(id)
	lsn, err := d.log.Append(&wal.Record{Type: wal.RecBegin, Txn: wal.TxnID(id)})
	if err != nil {
		d.locks.Finish(id)
		d.forget(id)
		return nil, err
	}
	t.firstLSN = lsn
	t.lastLSN = lsn
	return t, nil
}

// SafeTruncationLSN returns the highest LSN the log can be truncated
// before, given the latest durable checkpoint: everything earlier than
// both the checkpoint record and the begin record of the oldest active
// transaction is unreachable by recovery and by rollback.
func (d *Database) SafeTruncationLSN(ckpt *Checkpoint) wal.LSN {
	safe := ckpt.LSN
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, t := range d.active {
		if t.firstLSN < safe {
			safe = t.firstLSN
		}
	}
	return safe
}

// TruncateLog discards log records that neither restart recovery (from
// ckpt) nor any active transaction's rollback can need.
func (d *Database) TruncateLog(ckpt *Checkpoint) {
	d.log.Truncate(d.SafeTruncationLSN(ckpt))
}

func (d *Database) forget(id lock.TxnID) {
	d.mu.Lock()
	delete(d.active, id)
	d.mu.Unlock()
}

// ActiveTxnIDs snapshots the ids of transactions active right now. The
// reorganizer uses this to implement "wait for all transactions that are
// active at the time it started to complete" (§4.5).
func (d *Database) ActiveTxnIDs() []lock.TxnID {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]lock.TxnID, 0, len(d.active))
	for id := range d.active {
		out = append(out, id)
	}
	return out
}

// ErrTxnWaitTimeout reports that WaitForTxns gave up before every
// listed transaction finished (the §4.5 wait for pre-reorganization
// transactions to drain).
var ErrTxnWaitTimeout = errors.New("db: timed out waiting for transaction")

// WaitForTxns blocks until every listed transaction has finished or the
// timeout expires.
func (d *Database) WaitForTxns(ids []lock.TxnID, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, id := range ids {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return fmt.Errorf("%w %d", ErrTxnWaitTimeout, id)
		}
		timer := time.NewTimer(remaining)
		select {
		case <-d.locks.Done(id):
			timer.Stop()
		case <-timer.C:
			return fmt.Errorf("%w %d", ErrTxnWaitTimeout, id)
		}
	}
	return nil
}

// StartReorgTRT creates and attaches the TRT for a partition about to be
// reorganized. It returns the table; the caller owns its lifecycle and
// must call StopReorgTRT when done.
func (d *Database) StartReorgTRT(part oid.PartitionID) *trt.Table {
	t := trt.New(part, d.cfg.Strict2PL)
	d.an.AttachTRT(t)
	return t
}

// StopReorgTRT detaches and discards the TRT for part.
func (d *Database) StopReorgTRT(part oid.PartitionID) {
	d.an.DetachTRT(part)
}

// FuzzyRead reads an object without any locks — only a latch for physical
// consistency. This is the read primitive of the fuzzy traversal (§3.4).
// The latch is taken on the identity, so in logical-OID mode the
// resolve-then-view pair is atomic against a concurrent relocation's
// free of the old slot (which write-latches the same identity).
func (d *Database) FuzzyRead(o oid.OID) (object.Object, error) {
	var obj object.Object
	var derr error
	tok := d.latches.RLatch(o)
	phys, err := d.resolve(o)
	if err == nil {
		err = d.store.View(phys, func(data []byte) {
			obj, derr = object.Decode(data)
		})
	}
	d.latches.RUnlatch(o, tok)
	if err != nil {
		return object.Object{}, err
	}
	return obj, derr
}

// FuzzyReadRefs reads only an object's outgoing references, lock-free.
func (d *Database) FuzzyReadRefs(o oid.OID) ([]oid.OID, error) {
	var refs []oid.OID
	var derr error
	tok := d.latches.RLatch(o)
	phys, err := d.resolve(o)
	if err == nil {
		err = d.store.View(phys, func(data []byte) {
			refs, derr = object.DecodeRefs(data)
		})
	}
	d.latches.RUnlatch(o, tok)
	if err != nil {
		return nil, err
	}
	return refs, derr
}

// Exists reports whether o names a live object (a bound identity in
// logical-OID mode, a live physical address otherwise).
func (d *Database) Exists(o oid.OID) bool {
	phys, err := d.resolve(o)
	if err != nil {
		return false
	}
	return d.store.Exists(phys)
}

// PartitionOIDs snapshots the addresses of every live object in part,
// in physical (page, slot) order. The enumeration is atomic — it holds
// the partition's read latch for one pass and copies only OIDs — but
// fuzzy: by the time the caller dereferences an address, a concurrent
// reorganization may have migrated the object away, which surfaces as
// storage.ErrNoObject on the read. Scan operators treat that as a
// restart signal rather than an error.
func (d *Database) PartitionOIDs(part oid.PartitionID) ([]oid.OID, error) {
	if d.oidmap != nil {
		// Logical mode: the map is the authority — an object's logical
		// partition is fixed at creation even after its body migrates to
		// another store partition.
		oids := d.oidmap.PartitionOIDs(part)
		if len(oids) == 0 && !d.store.HasPartition(part) {
			return nil, fmt.Errorf("%w: %d", storage.ErrNoPartition, part)
		}
		return oids, nil
	}
	var oids []oid.OID
	err := d.store.ForEach(part, func(o oid.OID, _ []byte) bool {
		oids = append(oids, o)
		return true
	})
	if err != nil {
		return nil, err
	}
	return oids, nil
}

// Checkpoint captures an action-consistent checkpoint: a deep snapshot of
// the store plus a checkpoint log record listing active transactions.
// Restart recovery restores the snapshot and replays the log from the
// checkpoint record onward.
type Checkpoint struct {
	Snap *storage.Snapshot
	// Map is the OID indirection table's snapshot; nil outside
	// logical-OID mode. It is taken under the same gate as Snap, so the
	// pair is mutually consistent at the checkpoint record's LSN.
	Map *oidmap.Snapshot
	LSN wal.LSN
	Cfg Config
}

// Checkpoint performs a checkpoint. It briefly blocks logged mutations
// (not whole transactions) to obtain an action-consistent image.
func (d *Database) Checkpoint() (*Checkpoint, error) {
	d.ckptGate.Lock()
	defer d.ckptGate.Unlock()
	// In disk-backed mode, flush every dirty page first (still under the
	// gate): afterwards the segment image equals the snapshot, which is
	// the invariant recovery's page-LSN overlay gating relies on.
	if err := d.store.FlushAll(); err != nil {
		return nil, err
	}
	snap, err := d.store.Snapshot()
	if err != nil {
		return nil, err
	}
	var msnap *oidmap.Snapshot
	if d.oidmap != nil {
		msnap = d.oidmap.Snapshot()
	}
	active := d.ActiveTxnIDs()
	rec := &wal.Record{Type: wal.RecCheckpoint}
	for _, id := range active {
		rec.Active = append(rec.Active, wal.TxnID(id))
	}
	lsn, err := d.log.Append(rec)
	if err != nil {
		return nil, err
	}
	if ferr := fpDBCheckpoint.Maybe(); ferr != nil {
		return nil, fmt.Errorf("db: checkpoint interrupted: %w", ferr)
	}
	// The checkpoint is only usable once everything up to its record is
	// on the durable log medium.
	if err := d.log.FlushWait(lsn); err != nil {
		return nil, err
	}
	return &Checkpoint{Snap: snap, Map: msnap, LSN: lsn, Cfg: d.cfg}, nil
}

// Close shuts the database down. Outstanding transactions become invalid.
func (d *Database) Close() {
	d.mu.Lock()
	d.closed = true
	d.mu.Unlock()
	d.log.Close()
	if d.logDev != nil {
		d.logDev.Close()
	}
	d.store.Close()
	if d.ownsDataDir {
		os.RemoveAll(d.cfg.DataDir)
	}
}

// LogDevice returns the file device backing the WAL, if any.
func (d *Database) LogDevice() *wal.FileDevice { return d.logDev }

// RebuildERTs reconstructs every partition's ERT by a full scan of the
// database — the paper's fallback when ERT updates are not logged ("we
// would then have to reconstruct the ERT at restart recovery", §4.4).
// In logical-OID mode the scan walks the indirection map: references
// and parent identities are logical, and an object's logical partition
// (not the store partition its body happens to occupy) is what the ERT
// is keyed by.
func (d *Database) RebuildERTs() error {
	if d.oidmap != nil {
		return d.rebuildERTsLogical()
	}
	for _, part := range d.store.Partitions() {
		d.an.ERT(part).Clear()
	}
	for _, part := range d.store.Partitions() {
		var scanErr error
		err := d.store.ForEach(part, func(parent oid.OID, data []byte) bool {
			refs, err := object.DecodeRefs(data)
			if err != nil {
				scanErr = fmt.Errorf("db: object %s: %w", parent, err)
				return false
			}
			for _, child := range refs {
				if child.IsNil() || child.Partition() == part {
					continue
				}
				d.an.ERT(child.Partition()).AddRef(child, parent)
			}
			return true
		})
		if err != nil {
			return err
		}
		if scanErr != nil {
			return scanErr
		}
	}
	return nil
}

func (d *Database) rebuildERTsLogical() error {
	for part := range d.an.ERTs() {
		d.an.ERT(part).Clear()
	}
	for _, part := range d.store.Partitions() {
		d.an.ERT(part).Clear()
	}
	for _, part := range d.oidmap.Partitions() {
		d.an.ERT(part).Clear()
	}
	var walkErr error
	d.oidmap.ForEach(func(parent, phys oid.OID) bool {
		var refs []oid.OID
		var derr error
		err := d.store.View(phys, func(data []byte) {
			refs, derr = object.DecodeRefs(data)
		})
		if err != nil {
			walkErr = fmt.Errorf("db: object %s at %s: %w", parent, phys, err)
			return false
		}
		if derr != nil {
			walkErr = fmt.Errorf("db: object %s: %w", parent, derr)
			return false
		}
		for _, child := range refs {
			if child.IsNil() || child.Partition() == parent.Partition() {
				continue
			}
			d.an.ERT(child.Partition()).AddRef(child, parent)
		}
		return true
	})
	return walkErr
}
