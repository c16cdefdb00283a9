package reorg

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/db"
	"repro/internal/fault"
	"repro/internal/object"
	"repro/internal/obs"
	"repro/internal/oid"
	"repro/internal/storage"
	"repro/internal/trt"
)

// errObjectGone marks an object that vanished (deleted by a concurrent
// transaction) before it could be migrated; it is skipped, not an error.
var errObjectGone = errors.New("reorg: object no longer exists")

// runIRA is the top level of Figure 1: find objects and approximate
// parents with a fuzzy traversal, then migrate each object after making
// its parent set exact.
func (r *Reorganizer) runIRA() error {
	if r.trt == nil {
		r.trt = r.d.StartReorgTRT(r.part)
		r.trtOwned = true
		r.startLSN = r.d.Log().TailLSN()
		// §4.5: wait out transactions that were active when the TRT was
		// attached, so every later reference update is in the TRT.
		if err := r.waitPreStartTxns(); err != nil {
			return err
		}
	}
	if err := r.fail("after-wait"); err != nil {
		return err
	}
	if r.opts.Filter != nil && r.opts.CollectGarbage {
		return errors.New("reorg: Filter and CollectGarbage are mutually exclusive")
	}
	if len(r.objects) == 0 {
		r.findObjectsAndApproxParents()
		r.applyMigrationOrder()
	}
	if err := r.fail("after-traversal"); err != nil {
		return err
	}
	if err := r.sealTargets(); err != nil {
		return err
	}
	r.checkpoint()

	if r.opts.Mode == ModeIRATwoLock && !r.logical() {
		if err := r.migrateAllTwoLock(); err != nil {
			return err
		}
	} else {
		// In logical-OID mode the two-lock extension is moot — a
		// migration touches no parent, so even the basic path holds
		// exactly one lock (the object's identity). Both modes take
		// the batch loop; two-lock keeps its one-object-per-transaction
		// contract via the batch size.
		if r.opts.Mode == ModeIRATwoLock {
			r.opts.BatchSize = 1
		}
		if err := r.migrateAllBasic(); err != nil {
			return err
		}
	}
	if r.opts.MigrateCreations {
		if err := r.migrateLateCreations(); err != nil {
			return err
		}
	}
	if err := r.fail("after-migrate"); err != nil {
		return err
	}
	if r.opts.CollectGarbage {
		if err := r.collectGarbage(); err != nil {
			return err
		}
	}
	r.checkpoint()
	return nil
}

// migrateAllBasic migrates objects in traversal order, BatchSize object
// migrations per transaction (§4.3). A lock timeout (presumed deadlock)
// aborts and retries the batch, as the paper prescribes for
// Find_Exact_Parents.
func (r *Reorganizer) migrateAllBasic() error {
	for i := 0; i < len(r.objects); {
		if err := r.gate(); err != nil {
			return err
		}
		end := i + r.opts.BatchSize
		if end > len(r.objects) {
			end = len(r.objects)
		}
		batch := r.objects[i:end]
		if err := r.retry("batch at", batch[0], func() error { return r.migrateBatch(batch) }); err != nil {
			return err
		}
		i = end
		r.maybeCheckpoint(i)
		// A crash point with no transaction in flight and no locks held:
		// the cleanest place to kill a scheduler worker.
		if err := r.fail("batch-done"); err != nil {
			return err
		}
	}
	return nil
}

// migrateBatch migrates a batch of objects inside one transaction. On
// lock timeout everything — page state via WAL undo, and TRT tuples via
// explicit re-logging — is rolled back so the batch can be retried.
func (r *Reorganizer) migrateBatch(batch []oid.OID) (err error) {
	txn, err := r.d.Begin()
	if err != nil {
		return err
	}
	var taken []trt.Tuple
	var staged []stagedMigration
	defer func() {
		if err == nil || errors.Is(err, ErrCrash) {
			return
		}
		txn.Abort()
		// Put drained TRT tuples back for the retry.
		for _, tp := range taken {
			r.trt.Log(tp.Child, tp.Parent, tp.Txn, tp.Act)
		}
	}()

	for _, o := range batch {
		if _, done := r.migrated[o]; done {
			continue
		}
		if !r.wantsMigration(o) {
			continue
		}
		var st stagedMigration
		var merr error
		if r.logical() {
			st, merr = r.migrateOneLogical(txn, o)
		} else {
			st, merr = r.migrateOne(txn, o, &taken)
		}
		if errors.Is(merr, errObjectGone) {
			continue
		}
		if merr != nil {
			return merr
		}
		staged = append(staged, st)
	}
	if err = r.fail("before-batch-commit"); err != nil {
		return err
	}
	if err = txn.Commit(); err != nil {
		return err
	}
	// Only after commit do the migrations become facts.
	for _, st := range staged {
		r.migrated[st.old] = st.new
		r.stats.Migrated++
		r.stats.ParentsUpdated += st.parentsUpdated
		r.fixupChildren(st.refs, st.old, st.new)
	}
	return nil
}

// stagedMigration records one object migration pending batch commit.
type stagedMigration struct {
	old, new       oid.OID
	refs           []oid.OID
	parentsUpdated int
}

// migrateOne performs Find_Exact_Parents (Figure 4) followed by
// Move_Object_And_Update_Refs (Figure 5) for one object, inside txn.
func (r *Reorganizer) migrateOne(txn *db.Txn, oldO oid.OID, taken *[]trt.Tuple) (stagedMigration, error) {
	none := stagedMigration{}
	pset := make(parentSet)
	for p := range r.parents[oldO] {
		pset[p] = struct{}{}
	}
	unlockable := r.opts.BatchSize <= 1 // see note below

	// S0: lock the object itself. Figure 4 observes that no lock on Oold
	// is needed — but only against transactions that follow 2PL. A
	// sibling reorganizer migrating Oold's parent X fuzzy-reads X without
	// a lock while copying it; unless this migration holds Oold's lock,
	// that copy can race the repoint of X below and commit a duplicate
	// of X still referencing Oold after Oold is deleted — a durable
	// dangling reference. Holding Oold's lock serializes the two: a
	// sibling migrating X either sees the repointed reference, or its
	// copy's creation lands in this partition's TRT before the S2 drain.
	sp := r.startStep(obs.StepIRALockObject, oldO)
	if err := r.lockParentSpanned(sp, txn.ID(), oldO); err != nil {
		sp.End(err)
		return none, err
	}
	sp.End(nil)

	// S1: lock the approximate parents; drop those that no longer hold a
	// reference. (With batched migrations, a lock may also protect an
	// earlier migration in the same transaction, so early unlock is only
	// safe with a batch size of one.)
	sp = r.startStep(obs.StepIRALockParents, oldO)
	for _, R := range sortedParents(pset) {
		if R == oldO {
			delete(pset, R) // self-reference: handled when copying
			continue
		}
		if err := r.lockParentSpanned(sp, txn.ID(), R); err != nil {
			sp.End(err)
			return none, err
		}
		if !r.isParent(R, oldO) {
			delete(pset, R)
			if unlockable {
				r.d.Locks().Unlock(txn.ID(), R)
			}
		}
	}
	sp.End(nil)

	// S2: drain the TRT of tuples referencing oldO, locking each tuple's
	// parent and keeping it if the reference is (still) present. The
	// loop's termination is Lemma 3.2's heart: when no tuple remains, no
	// active transaction can reintroduce a reference to oldO.
	sp = r.startStep(obs.StepIRADrainTRT, oldO)
	for {
		tp, ok := r.trt.Take(oldO)
		if !ok {
			break
		}
		*taken = append(*taken, tp)
		R := tp.Parent
		if R == oldO {
			continue
		}
		if _, already := pset[R]; already {
			continue
		}
		if err := r.lockParentSpanned(sp, txn.ID(), R); err != nil {
			sp.End(err)
			return none, err
		}
		if r.isParent(R, oldO) {
			pset[R] = struct{}{}
		} else if unlockable {
			r.d.Locks().Unlock(txn.ID(), R)
		}
	}
	sp.End(nil)
	r.noteLocks(len(pset) + 1) // parents + the object itself
	if err := r.fail("parents-locked"); err != nil {
		return none, err
	}

	// S3: move the object. All parents are locked, and S0 holds oldO's
	// own lock: no user transaction can reach oldO, and no sibling
	// reorganizer can copy a parent of oldO out from under the repoints
	// below.
	sp = r.startStep(obs.StepIRAMove, oldO)
	var latchStart time.Time
	if sp != nil {
		latchStart = time.Now()
	}
	img, err := r.d.FuzzyRead(oldO)
	if sp != nil {
		sp.AddLatchWait(time.Since(latchStart))
	}
	if err != nil {
		sp.End(nil) // vanished object: skipped, not a failure
		return none, errObjectGone
	}
	r.chargeWorkSpanned(sp)
	newO, updated, err := r.moveObject(txn, oldO, img, pset)
	sp.End(err)
	if err != nil {
		return none, err
	}
	return stagedMigration{old: oldO, new: newO, refs: img.Refs, parentsUpdated: updated}, nil
}

// migrateOneLogical migrates one object in logical-OID mode: lock the
// identity, relocate the body behind the indirection table. The entire
// Find_Exact_Parents machinery — parent locks, TRT drain — vanishes,
// because no parent reference changes: that asymmetry is what the
// oidmode benchmark quantifies. The TRT stays attached anyway; the
// traversal needs its children for Lemma 3.1 and MigrateCreations needs
// its creation list, but per-object tuples are simply never consumed.
func (r *Reorganizer) migrateOneLogical(txn *db.Txn, o oid.OID) (stagedMigration, error) {
	none := stagedMigration{}
	// S0: lock the identity. Everything a physical migration needs
	// parent locks for is covered by this one lock plus the identity
	// latch Relocate's steps take.
	sp := r.startStep(obs.StepIRALockObject, o)
	if err := r.lockParentSpanned(sp, txn.ID(), o); err != nil {
		sp.End(err)
		return none, err
	}
	sp.End(nil)
	r.noteLocks(1)
	if err := r.fail("parents-locked"); err != nil {
		return none, err
	}

	sp = r.startStep(obs.StepIRAMove, o)
	r.chargeWorkSpanned(sp)
	err := txn.Relocate(o, r.plan.Target(o), r.plan.Dense, r.transformFn(o))
	sp.End(err)
	if err != nil {
		if errors.Is(err, storage.ErrNoObject) {
			// Deleted by a concurrent transaction after traversal.
			return none, errObjectGone
		}
		if fault.IsCrash(err) {
			// The reorg/map-set fault point fires inside Relocate; a
			// crash-kind firing must surface as ErrCrash so no cleanup
			// (abort, TRT restore) runs, exactly as a real crash.
			return none, fmt.Errorf("%w: %v", ErrCrash, err)
		}
		return none, err
	}
	// The identity is unchanged: old == new, no refs to fix up.
	return stagedMigration{old: o, new: o}, nil
}

// moveObject implements Move_Object_And_Update_Refs: copy the object to
// its planned location, repoint every parent, and delete the old copy.
// ERT maintenance is automatic: the log analyzer observes the Create,
// RefUpdate and Delete records this emits and adjusts the ERTs of every
// partition involved, which is exactly the bookkeeping Figure 5 spells
// out by hand.
func (r *Reorganizer) moveObject(txn *db.Txn, oldO oid.OID, img object.Object, pset parentSet) (oid.OID, int, error) {
	target := r.plan.Target(oldO)
	payload := r.transformPayload(oldO, img.Payload)
	var newO oid.OID
	var err error
	if r.plan.Dense {
		newO, err = txn.CreateDense(target, payload, img.Refs)
	} else {
		newO, err = txn.Create(target, payload, img.Refs)
	}
	if err != nil {
		return oid.Nil, 0, err
	}
	// Self-references must follow the object.
	if img.HasRef(oldO) {
		if err := txn.RetargetRef(newO, oldO, newO); err != nil {
			return oid.Nil, 0, fmt.Errorf("reorg: self-ref of %s -> %s: %w", oldO, newO, err)
		}
	}
	updated := 0
	for _, R := range sortedParents(pset) {
		if err := txn.RetargetRef(R, oldO, newO); err != nil {
			// A parent can vanish between its isParent check and this
			// repoint even though we hold its exclusive lock: another
			// transaction's in-flight creation is fuzzily visible from
			// allocation time, before its creator holds the new OID's
			// lock (see db.Txn.create), so we may lock and adopt it —
			// and its creator's rollback then frees it regardless of our
			// lock. Such an object is necessarily an uncommitted
			// allocation: committed objects cannot be deleted while we
			// hold their lock. Its references died with it, and the
			// original parent carrying the committed reference is locked
			// in pset in its own right, so skipping the repoint is sound
			// — the same "a vanished R is not a parent" rule isParent
			// applies, just re-checked at repoint time.
			if errors.Is(err, storage.ErrNoObject) && !r.isParent(R, oldO) {
				continue
			}
			return oid.Nil, 0, fmt.Errorf("reorg: repoint parent %s of %s: %w", R, oldO, err)
		}
		updated++
	}
	if err := txn.Delete(oldO); err != nil {
		return oid.Nil, 0, fmt.Errorf("reorg: delete old copy %s: %w", oldO, err)
	}
	return newO, updated, nil
}

// migrateLateCreations migrates objects created in the partition after
// the reorganization started (footnote 6 / [LRSS99]). The cutoff is the
// moment this pass takes the creation list: objects created after that
// are simply not migrated, exactly as the paper scopes it ("objects
// created until some point of time after the reorganization process
// begins execution"). Approximate parent lists are empty — the TRT drain
// in Find_Exact_Parents discovers every parent, because every reference
// to a late-created object post-dates the TRT.
func (r *Reorganizer) migrateLateCreations() error {
	created := r.trt.TakeCreations()
	for _, o := range created {
		if err := r.gate(); err != nil {
			return err
		}
		if _, done := r.migrated[o]; done || !r.wantsMigration(o) {
			continue
		}
		// Objects the migration itself created at their new addresses
		// are also in the creation list; they are already where the
		// plan wants them.
		if r.isMigrationTarget(o) {
			continue
		}
		batch := []oid.OID{o}
		if err := r.retry("late creation", o, func() error { return r.migrateBatch(batch) }); err != nil {
			return err
		}
	}
	return nil
}

// isMigrationTarget reports whether o is the new copy of an object this
// run migrated.
func (r *Reorganizer) isMigrationTarget(o oid.OID) bool {
	for _, n := range r.migrated {
		if n == o {
			return true
		}
	}
	return false
}

// collectGarbage reclaims the unreachable objects of the partition: after
// migration, anything still stored there was not traversed, and by Lemma
// 3.1 everything live was traversed — so the remainder is garbage
// (§4.6). Deleting through transactions keeps the ERTs of partitions the
// garbage points into consistent.
func (r *Reorganizer) collectGarbage() error {
	var garbage []oid.OID
	if r.logical() {
		// Bodies migrate between store partitions but identities keep
		// their logical partition, so "still stored there" translates to
		// "bound in the map under this partition and not traversed".
		traversed := make(map[oid.OID]bool, len(r.objects))
		for _, o := range r.objects {
			traversed[o] = true
		}
		for _, o := range r.d.OIDMap().PartitionOIDs(r.part) {
			if !traversed[o] {
				garbage = append(garbage, o)
			}
		}
	} else if err := r.d.Store().ForEach(r.part, func(o oid.OID, _ []byte) bool {
		garbage = append(garbage, o)
		return true
	}); err != nil {
		return err
	}
	for _, o := range garbage {
		if err := r.gate(); err != nil {
			return err
		}
		txn, err := r.d.Begin()
		if err != nil {
			return err
		}
		if err := txn.Delete(o); err != nil {
			// A garbage cycle member may reference an already-deleted
			// peer; deletion order does not matter, existence does.
			txn.Abort()
			if r.d.Exists(o) {
				return err
			}
			continue
		}
		if err := txn.Commit(); err != nil {
			return err
		}
		r.stats.Garbage++
	}
	return nil
}
