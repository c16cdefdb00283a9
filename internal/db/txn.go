package db

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/fault"
	"repro/internal/lock"
	"repro/internal/object"
	"repro/internal/obs"
	"repro/internal/oid"
	"repro/internal/oidmap"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Fault points on the transaction durability path. The map-set point
// keeps its reorg/ prefix deliberately: Relocate is the reorganizer's
// migration primitive, and the torture harness targets the window where
// the indirection entry has swung but the old slot is not yet freed.
var (
	fpDBCommit     = fault.Point(fault.DBCommit)
	fpDBCheckpoint = fault.Point(fault.DBCheckpoint)
	fpReorgMapSet  = fault.Point(fault.ReorgMapSet)
)

// Txn is a transaction. A transaction must be driven by one goroutine and
// must end with exactly one Commit or Abort call. Under strict 2PL all
// locks are held until then; with Config.Strict2PL disabled the
// transaction may release object locks early via Unlock (§4.1).
type Txn struct {
	db       *Database
	id       lock.TxnID
	firstLSN wal.LSN // the Begin record (log truncation barrier)
	lastLSN  wal.LSN
	ended    bool
}

// Errors returned by transaction operations.
var (
	// ErrTxnDone reports use of a committed or aborted transaction.
	ErrTxnDone = errors.New("db: transaction already ended")
	// ErrNoRef reports a reference operation naming a reference the
	// object does not hold.
	ErrNoRef = errors.New("db: object holds no such reference")
	// ErrStrict2PL reports an early Unlock under strict 2PL.
	ErrStrict2PL = errors.New("db: early unlock forbidden under strict 2PL")
)

// ID returns the transaction id.
func (t *Txn) ID() lock.TxnID { return t.id }

// Lock acquires o in the given mode (waiting up to the lock timeout).
// Callers use it to lock walk targets before reading them, as the system
// model requires.
func (t *Txn) Lock(o oid.OID, mode lock.Mode) error {
	if t.ended {
		return ErrTxnDone
	}
	return t.db.locks.Lock(t.id, o, mode)
}

// Unlock releases o before transaction end. Only legal when the database
// runs with Strict2PL disabled; the lock manager keeps the ever-locked
// history that the reorganizer's §4.1 wait relies on.
func (t *Txn) Unlock(o oid.OID) error {
	if t.ended {
		return ErrTxnDone
	}
	if t.db.cfg.Strict2PL {
		return ErrStrict2PL
	}
	return t.db.locks.Unlock(t.id, o)
}

// ensure makes sure t holds at least mode on o.
func (t *Txn) ensure(o oid.OID, mode lock.Mode) error {
	if held, ok := t.db.locks.Holds(t.id, o); ok && held >= mode {
		return nil
	}
	return t.db.locks.Lock(t.id, o, mode)
}

// readImage resolves o's physical address and fetches and decodes its
// image; o must already be locked. The returned address is where the
// body currently lives — in logical-OID mode the exclusive lock on the
// identity is what keeps it from moving under the transaction.
func (t *Txn) readImage(o oid.OID) (object.Object, []byte, oid.OID, error) {
	phys, err := t.db.resolve(o)
	if err != nil {
		return object.Object{}, nil, oid.Nil, err
	}
	var raw []byte
	err = t.db.store.View(phys, func(data []byte) {
		raw = append([]byte(nil), data...)
	})
	if err != nil {
		return object.Object{}, nil, oid.Nil, err
	}
	obj, err := object.Decode(raw)
	return obj, raw, phys, err
}

// ident stamps a mutation record with the logical identity when the
// database runs in logical-OID mode; physical-mode records leave Obj
// zero so Identity() falls back to the address.
func (t *Txn) ident(rec *wal.Record, o oid.OID) *wal.Record {
	if t.db.oidmap != nil {
		rec.Obj = o
	}
	return rec
}

// Read returns the object at o under a shared lock.
func (t *Txn) Read(o oid.OID) (object.Object, error) {
	if t.ended {
		return object.Object{}, ErrTxnDone
	}
	if err := t.ensure(o, lock.Shared); err != nil {
		return object.Object{}, err
	}
	phys, err := t.db.resolve(o)
	if err != nil {
		return object.Object{}, err
	}
	// Decode straight from the slot: Decode copies what it keeps, so the
	// image needs no copy of its own (readImage keeps one as a
	// before-image for the mutators).
	var obj object.Object
	var derr error
	if err := t.db.store.View(phys, func(data []byte) { obj, derr = object.Decode(data) }); err != nil {
		return object.Object{}, err
	}
	return obj, derr
}

// ReadRefs returns o's outgoing references under a shared lock.
func (t *Txn) ReadRefs(o oid.OID) ([]oid.OID, error) {
	obj, err := t.Read(o)
	if err != nil {
		return nil, err
	}
	return obj.Refs, nil
}

// append writes rec as the transaction's next log record, chaining it
// to the previous one.
func (t *Txn) append(rec *wal.Record) (wal.LSN, error) {
	rec.Txn = wal.TxnID(t.id)
	rec.Prev = t.lastLSN
	lsn, err := t.db.log.Append(rec)
	if err == nil {
		t.lastLSN = lsn
	}
	return lsn, err
}

// logApply logs rec and applies its effect — the page effect through
// the store, then the map effect — under the checkpoint gate and the
// write latch of o. The store appends the record inside the partition
// critical section, immediately before the page mutation, so that per
// page the apply order always matches the LSN order. Appending outside
// that section would let two transactions' applies to one page invert,
// and a buffer-pool flush in the inversion window would stamp the page
// past a record whose effect it does not contain — recovery's redo gate
// would then skip that record forever.
func (t *Txn) logApply(rec *wal.Record, o oid.OID) error {
	t.db.ckptGate.RLock()
	defer t.db.ckptGate.RUnlock()
	t.db.latches.Latch(o)
	defer t.db.latches.Unlatch(o)
	rec.Txn = wal.TxnID(t.id) // the store reserves space a shrink frees for it
	if err := t.db.store.Apply(rec, func() (wal.LSN, error) { return t.append(rec) }); err != nil {
		return err
	}
	oidmap.Apply(t.db.oidmap, rec)
	return nil
}

// place allocates img in part and logs a typ record for the chosen
// address (obj names the logical identity, if any), then applies the
// record's map effect; the caller holds the checkpoint gate. The record
// can only be written once the address is known, so the store invokes
// the append while the target page is still pinned and write-locked:
// the (allocate, log, stamp) triple is atomic with respect to both
// checkpoints (the gate) and buffer-pool flushes (the pin). Logging after the allocation returned would open a
// window where an eviction flushes a page holding an object no log
// record describes — a crash there resurrects an orphan invisible to
// redo, undo, and the reference analyzer, and the orphan's stale
// references can dangle after a later reorganization.
func (t *Txn) place(typ wal.RecType, part oid.PartitionID, img []byte, dense bool, obj oid.OID) (oid.OID, error) {
	rec := &wal.Record{Type: typ, Obj: obj, After: img}
	o, err := t.db.store.Allocate(part, img, dense, func(o oid.OID) (wal.LSN, error) {
		rec.OID = o
		return t.append(rec)
	})
	if err != nil {
		return oid.Nil, err
	}
	oidmap.Apply(t.db.oidmap, rec)
	return o, nil
}

// Create allocates a new object with the given payload and initial
// references. The new object is exclusively locked by t; it becomes
// reachable only once a reference to it is installed somewhere.
func (t *Txn) Create(part oid.PartitionID, payload []byte, refs []oid.OID) (oid.OID, error) {
	return t.create(part, payload, refs, false)
}

// CreateDense is Create using tail allocation; relocation plans use it to
// pack migrated objects contiguously.
func (t *Txn) CreateDense(part oid.PartitionID, payload []byte, refs []oid.OID) (oid.OID, error) {
	return t.create(part, payload, refs, true)
}

// create places and logs the new object. In logical-OID mode it mints
// the identity and locks it before the allocation, then publishes the
// binding: that closes the fuzzy-visibility window physical mode
// tolerates — the identity is unresolvable until the map entry lands, so
// no reader can observe the object before its creator holds the lock.
// In physical mode the lock comes last because the OID is unknown before
// allocation; the resulting window — the object is fuzzily visible
// before its creator holds the lock — is tolerated by readers that
// follow the fuzzy-read discipline (a reorganizer re-validates adopted
// parents and skips ones that vanish, see reorg.moveObject).
func (t *Txn) create(part oid.PartitionID, payload []byte, refs []oid.OID, dense bool) (oid.OID, error) {
	if t.ended {
		return oid.Nil, ErrTxnDone
	}
	img := object.Encode(object.Object{Refs: refs, Payload: payload})
	var l oid.OID
	if t.db.oidmap != nil {
		l = t.db.oidmap.NextID(part)
		if err := t.db.locks.Lock(t.id, l, lock.Exclusive); err != nil {
			return oid.Nil, err
		}
	}
	t.db.ckptGate.RLock()
	defer t.db.ckptGate.RUnlock()
	o, err := t.place(wal.RecCreate, part, img, dense, l)
	if err != nil {
		return oid.Nil, err
	}
	if !l.IsNil() {
		return l, nil
	}
	if err := t.db.locks.Lock(t.id, o, lock.Exclusive); err != nil {
		return oid.Nil, err
	}
	return o, nil
}

// rewrite reads o under an exclusive lock, lets edit change the decoded
// object, and logs and applies the re-encoded image as a record shaped
// by rec (its type and children).
func (t *Txn) rewrite(o oid.OID, rec wal.Record, edit func(obj object.Object) (object.Object, error)) error {
	if t.ended {
		return ErrTxnDone
	}
	if err := t.ensure(o, lock.Exclusive); err != nil {
		return err
	}
	obj, before, phys, err := t.readImage(o)
	if err != nil {
		return err
	}
	if obj, err = edit(obj); err != nil {
		return err
	}
	rec.OID, rec.Before, rec.After = phys, before, object.Encode(obj)
	return t.logApply(t.ident(&rec, o), o)
}

// UpdatePayload rewrites o's payload under an exclusive lock, preserving
// its references.
func (t *Txn) UpdatePayload(o oid.OID, payload []byte) error {
	return t.rewrite(o, wal.Record{Type: wal.RecUpdate}, func(obj object.Object) (object.Object, error) {
		obj.Payload = payload
		return obj, nil
	})
}

// InsertRef stores a reference to child into o (the transaction must have
// the reference "in local memory", i.e. obtained via a prior read or
// create — the db layer cannot check that, matching the paper's model).
func (t *Txn) InsertRef(o, child oid.OID) error {
	if !t.ended && child.IsNil() {
		return fmt.Errorf("db: inserting nil reference into %s", o)
	}
	return t.rewrite(o, wal.Record{Type: wal.RecRefInsert, Child: child}, func(obj object.Object) (object.Object, error) {
		obj.Refs = append(obj.Refs, child)
		return obj, nil
	})
}

// DeleteRef removes one occurrence of the reference to child from o. Note
// the WAL ordering: the RefDelete record (and hence the TRT tuple) exists
// before the reference disappears from the page.
func (t *Txn) DeleteRef(o, child oid.OID) error {
	return t.rewrite(o, wal.Record{Type: wal.RecRefDelete, Child: child}, func(obj object.Object) (object.Object, error) {
		if !obj.RemoveOneRef(child) {
			return obj, fmt.Errorf("%w: %s -> %s", ErrNoRef, o, child)
		}
		return obj, nil
	})
}

// RetargetRef replaces every occurrence of from with to in o's reference
// list. This is the primitive the reorganizer uses to repoint a parent at
// a migrated child's new address.
func (t *Txn) RetargetRef(o, from, to oid.OID) error {
	return t.rewrite(o, wal.Record{Type: wal.RecRefUpdate, Child: from, Child2: to}, func(obj object.Object) (object.Object, error) {
		if obj.ReplaceRefs(from, to) == 0 {
			return obj, fmt.Errorf("%w: %s -> %s", ErrNoRef, o, from)
		}
		return obj, nil
	})
}

// Delete removes the object at o under an exclusive lock.
func (t *Txn) Delete(o oid.OID) error {
	if t.ended {
		return ErrTxnDone
	}
	if err := t.ensure(o, lock.Exclusive); err != nil {
		return err
	}
	_, before, phys, err := t.readImage(o)
	if err != nil {
		return err
	}
	return t.logApply(t.ident(&wal.Record{Type: wal.RecDelete, OID: phys, Before: before}, o), o)
}

// Relocate moves o's body to a fresh slot in the target store partition
// (tail-allocated when dense), swings the indirection entry, and frees
// the old slot — all in this transaction, each step WAL-logged, so a
// crash anywhere rolls the migration back as a unit. The identity o is
// untouched: parents keep their references, which is the entire point
// of logical-OID mode. transform, if non-nil, rewrites the payload in
// flight. Logical-OID mode only.
func (t *Txn) Relocate(o oid.OID, target oid.PartitionID, dense bool, transform func([]byte) []byte) error {
	if t.ended {
		return ErrTxnDone
	}
	if t.db.oidmap == nil {
		return errors.New("db: Relocate requires logical-OID mode")
	}
	if err := t.ensure(o, lock.Exclusive); err != nil {
		return err
	}
	obj, before, oldPhys, err := t.readImage(o)
	if err != nil {
		return err
	}
	if transform != nil {
		obj.Payload = transform(obj.Payload)
	}
	// Step 1: copy the body. RecPhysAlloc is placement-only — the
	// analyzer ignores it, because no identity or edge changes.
	t.db.ckptGate.RLock()
	newPhys, err := t.place(wal.RecPhysAlloc, target, object.Encode(obj), dense, o)
	t.db.ckptGate.RUnlock()
	if err != nil {
		return err
	}
	// Step 2: swing the map entry — the migration's atomic instant.
	if err := t.logApply(&wal.Record{Type: wal.RecMapSet, Obj: o, Child: oldPhys, Child2: newPhys}, o); err != nil {
		return err
	}
	if ferr := fpReorgMapSet.Maybe(); ferr != nil {
		return fmt.Errorf("db: relocate interrupted: %w", ferr)
	}
	// Step 3: free the old slot. The latch key is the identity, so a
	// fuzzy reader that resolved o before the swing cannot be mid-View
	// on the old slot while it is freed.
	return t.logApply(&wal.Record{Type: wal.RecPhysFree, OID: oldPhys, Obj: o, Before: before}, o)
}

// Savepoint marks the transaction's current position in its undo chain.
type Savepoint struct {
	lsn wal.LSN
}

// Savepoint returns a savepoint at the transaction's current state.
func (t *Txn) Savepoint() (Savepoint, error) {
	if t.ended {
		return Savepoint{}, ErrTxnDone
	}
	return Savepoint{lsn: t.lastLSN}, nil
}

// RollbackTo undoes every update made after the savepoint was taken,
// writing compensation records, and leaves the transaction active. Locks
// acquired since the savepoint are retained (standard strict-2PL
// savepoint semantics: partial rollback never releases locks).
func (t *Txn) RollbackTo(sp Savepoint) error {
	if t.ended {
		return ErrTxnDone
	}
	return t.rollbackTo(sp.lsn)
}

// Commit makes the transaction durable: the commit record is appended and
// the log flushed through it before locks are released.
//
// The db/commit fault point sits in the window between the append and
// the flush — precisely where a crash leaves the commit record's fate
// ambiguous (it commits iff the record made the durable prefix). A
// firing there fails the commit to this caller; whether the
// transaction actually committed is decided by the log, exactly as
// with a real crash.
func (t *Txn) Commit() error {
	if t.ended {
		return ErrTxnDone
	}
	if obs.Enabled() {
		defer obs.ObserveSince(obs.TxnCommit, time.Now())
	}
	t.ended = true
	rec := &wal.Record{Type: wal.RecCommit, Txn: wal.TxnID(t.id), Prev: t.lastLSN}
	lsn, err := t.db.log.Append(rec)
	if err != nil {
		t.finish()
		return err
	}
	if ferr := fpDBCommit.Maybe(); ferr != nil {
		t.finish()
		return fmt.Errorf("db: commit interrupted: %w", ferr)
	}
	if err := t.db.log.FlushWait(lsn); err != nil {
		t.finish()
		return err
	}
	t.finish()
	return nil
}

// Abort rolls the transaction back by walking its undo chain, writing
// typed compensation records, and then releases its locks. CLRs are
// redo-only and carry UndoNxt so that a crash during rollback never
// undoes an update twice.
func (t *Txn) Abort() error {
	if t.ended {
		return ErrTxnDone
	}
	t.ended = true
	if err := t.rollbackTo(0); err != nil {
		t.finish()
		return err
	}
	_, err := t.db.log.Append(&wal.Record{Type: wal.RecAbort, Txn: wal.TxnID(t.id), Prev: t.lastLSN})
	t.finish()
	return err
}

// finish releases the transaction's page space reservations and locks
// and deregisters it.
func (t *Txn) finish() {
	t.db.store.ReleaseReservations(wal.TxnID(t.id))
	t.db.locks.Finish(t.id)
	t.db.forget(t.id)
}

// rollbackTo undoes the transaction's updates down to (but not including)
// the record with LSN limit; 0 means undo everything.
func (t *Txn) rollbackTo(limit wal.LSN) error {
	cur := t.lastLSN
	for cur > limit {
		rec := t.db.log.Get(cur)
		if rec == nil {
			return fmt.Errorf("db: undo chain broken at LSN %d (truncated?)", cur)
		}
		if rec.CLR {
			cur = rec.UndoNxt
			continue
		}
		if rec.Type == wal.RecBegin {
			return nil
		}
		if err := t.compensate(rec); err != nil {
			return err
		}
		cur = rec.Prev
	}
	return nil
}

// compensate logs and applies the CLR of rec, if it has one. The CLR
// inherits rec's identity, so undoing a create or delete in logical-OID
// mode restores the indirection entry alongside the slot.
func (t *Txn) compensate(rec *wal.Record) error {
	clr := rec.Compensation()
	if clr == nil {
		return nil
	}
	err := t.logApply(clr, rec.Identity())
	// Undoing an update whose partition vanished (dropped) is the only
	// legitimate failure; surface everything else. The store validates
	// before appending, so a tolerated failure writes no CLR — recovery
	// will re-undo the record, harmlessly.
	if errors.Is(err, storage.ErrNoPartition) {
		return nil
	}
	return err
}
