package reorg

import (
	"bytes"
	"time"

	"repro/internal/db"
	"repro/internal/lock"
	"repro/internal/object"
	"repro/internal/obs"
	"repro/internal/oid"
)

// InFlight records a two-lock migration in progress: the object exists at
// both addresses while parents are repointed one at a time. Reorganizer
// checkpoints carry it so a restart can finish the migration instead of
// duplicating the object (§4.2's failure discussion).
//
// Copied and CopiedRefs snapshot the new copy exactly as it was written.
// During the migration the owner's exclusive locks keep both addresses
// frozen, but after a crash the locks are gone and transactions reach
// whichever copy their parents still reference — so on resume a copy
// that no longer matches the snapshot is the one that received updates,
// and the restart must complete the migration in its favor.
type InFlight struct {
	Old, New   oid.OID
	Copied     []byte
	CopiedRefs []oid.OID
}

// migrateAllTwoLock migrates objects with the §4.2 extension: the object
// being migrated is locked (old and new address) by a long-lived owner
// transaction, and each parent is locked, updated and released in its own
// short transaction — so the reorganizer holds locks on at most the
// object in flight plus one parent at any instant.
func (r *Reorganizer) migrateAllTwoLock() error {
	// A restart may have an unfinished migration to complete first.
	if r.inFlight != nil {
		if err := r.migrateTwoLock(r.inFlight.Old, r.inFlight); err != nil {
			return err
		}
		r.inFlight = nil
	}
	for i, o := range r.objects {
		if err := r.gate(); err != nil {
			return err
		}
		if _, done := r.migrated[o]; done {
			continue
		}
		if !r.wantsMigration(o) {
			continue
		}
		if err := r.migrateTwoLock(o, nil); err != nil {
			return err
		}
		r.maybeCheckpoint(i + 1)
	}
	return nil
}

// migrateTwoLock migrates one object. prior is non-nil when a restart
// resumes a migration whose copy was already created.
func (r *Reorganizer) migrateTwoLock(oldO oid.OID, prior *InFlight) error {
	existingNew := oid.Nil
	if prior != nil {
		existingNew = prior.New
	}
	// The owner transaction holds the locks on the old and new addresses
	// for the whole migration and performs the final delete of the old
	// copy.
	owner, err := r.d.Begin()
	if err != nil {
		return err
	}
	finished := false
	defer func() {
		if !finished {
			owner.Abort()
		}
	}()

	// S0: the owner locks the object at its old address.
	sp := r.startStep(obs.StepTwoLockOld, oldO)
	if err := r.lockObjectRetry(owner.ID(), oldO); err != nil {
		sp.End(err)
		return err
	}
	var latchStart time.Time
	if sp != nil {
		latchStart = time.Now()
	}
	img, err := r.d.FuzzyRead(oldO)
	if sp != nil {
		sp.AddLatchWait(time.Since(latchStart))
	}
	sp.End(nil)
	if err != nil {
		// The old copy is gone. Either a concurrent transaction deleted
		// it, or a restart resumes past a completed delete: if the new
		// copy exists the migration actually finished.
		if !existingNew.IsNil() && r.d.Exists(existingNew) {
			r.migrated[oldO] = existingNew
			r.stats.Migrated++
		}
		return nil
	}

	// S1: create (or re-adopt) the new copy in its own committed
	// transaction so that a crash during parent updates cannot roll it
	// away from under the already-repointed parents.
	sp = r.startStep(obs.StepTwoLockCopy, oldO)
	newO := existingNew
	adopted := !newO.IsNil() && r.d.Exists(newO)
	var copied []byte
	var copiedRefs []oid.OID
	if !adopted {
		ctxn, err := r.d.Begin()
		if err != nil {
			sp.End(err)
			return err
		}
		payload := r.transformPayload(oldO, img.Payload)
		if r.plan.Dense {
			newO, err = ctxn.CreateDense(r.plan.Target(oldO), payload, img.Refs)
		} else {
			newO, err = ctxn.Create(r.plan.Target(oldO), payload, img.Refs)
		}
		if err != nil {
			ctxn.Abort()
			sp.End(err)
			return err
		}
		if img.HasRef(oldO) {
			if err := ctxn.RetargetRef(newO, oldO, newO); err != nil {
				ctxn.Abort()
				sp.End(err)
				return err
			}
		}
		copied = payload
		copiedRefs = retargetSelf(img.Refs, oldO, newO)
		// Checkpoint the pair BEFORE the copy can become durable. Once
		// the commit below succeeds, the copy exists with no parent
		// pointing at it, and only a checkpoint naming it lets a resume
		// collapse the pair — but a checkpoint can no longer be emitted
		// once the log dies (snapshotState), so recording it after the
		// commit leaves a window in which a crash (or a stop observed
		// while re-locking the copy) orphans a committed, unrecorded
		// object forever. Intent-before-commit closes the window from
		// both sides: if the commit never becomes durable the recorded
		// New address simply doesn't exist at resume and a fresh copy is
		// made; if it does, the resume adopts it.
		r.inFlight = &InFlight{Old: oldO, New: newO, Copied: copied, CopiedRefs: copiedRefs}
		r.checkpoint()
		if err := ctxn.Commit(); err != nil {
			sp.End(err)
			return err
		}
	}
	if err := r.lockObjectRetry(owner.ID(), newO); err != nil {
		sp.End(err)
		return err
	}
	if adopted {
		// A re-adopted copy may be stale — or may itself hold the only
		// current version. Decide which side is authoritative and
		// reconcile under the owner's locks before repointing more
		// parents.
		if err := r.refreshCopy(owner, oldO, newO, img, prior); err != nil {
			sp.End(err)
			return err
		}
		// The continued InFlight keeps the creation-time snapshot, not
		// the reconciled bytes: any fold refreshCopy applied rides the
		// owner transaction and is uncommitted until S3, so the durable
		// content of the new copy is still exactly what its creation
		// committed. Checkpointing the folded bytes instead would make
		// a resume after an owner rollback mistake the rollback for
		// writer traffic on the new copy — and discard the old side's
		// committed updates by declaring the stale copy authoritative.
		copied, copiedRefs = prior.Copied, prior.CopiedRefs
	}
	r.noteLocks(2 + 1) // old + new + at most one parent below

	r.chargeWorkSpanned(sp)
	sp.End(nil)
	r.inFlight = &InFlight{Old: oldO, New: newO, Copied: copied, CopiedRefs: copiedRefs}
	r.checkpoint()
	if err := r.fail("twolock-inflight"); err != nil {
		return err
	}

	// S2: repoint parents one at a time, each in its own transaction
	// (§4.3's per-parent-update transactions). First the approximate
	// list, then the TRT drain loop.
	sp = r.startStep(obs.StepTwoLockParents, oldO)
	for _, R := range sortedParents(r.parents[oldO]) {
		if err := r.updateOneParent(sp, R, oldO, newO); err != nil {
			sp.End(err)
			return err
		}
	}
	for {
		tp, ok := r.trt.Take(oldO)
		if !ok {
			break
		}
		if err := r.updateOneParent(sp, tp.Parent, oldO, newO); err != nil {
			sp.End(err)
			return err
		}
	}
	sp.End(nil)
	if err := r.fail("twolock-parents-done"); err != nil {
		return err
	}

	// S3: delete the old copy under the owner's lock and release
	// everything.
	sp = r.startStep(obs.StepTwoLockDelete, oldO)
	if err := owner.Delete(oldO); err != nil {
		sp.End(err)
		return err
	}
	if err := owner.Commit(); err != nil {
		sp.End(err)
		return err
	}
	sp.End(nil)
	finished = true
	r.migrated[oldO] = newO
	r.stats.Migrated++
	r.fixupChildren(img.Refs, oldO, newO)
	r.inFlight = nil
	return nil
}

// refreshCopy reconciles a re-adopted in-flight migration whose owner
// locks died with the crash: until the resume re-locked both addresses,
// committed updates could land on whichever copy a parent still
// referenced. The copy-time snapshot in prior decides the direction. If
// the new copy no longer matches it, the updates came in through
// already-repointed parents and the new copy is authoritative — the old
// one is deleted as-is. Otherwise any divergence sits on the old copy,
// and it is folded into the new one under the owner's locks, so the
// remaining repoints publish current data. (If both sides changed —
// possible only for a multi-parent object left reachable through both
// addresses — the new side wins: its parents were repointed first.)
// The fold rides the owner transaction, so it only becomes durable
// with the owner's S3 commit; the caller must keep checkpointing the
// creation-time snapshot, which stays the new copy's durable content
// until then.
func (r *Reorganizer) refreshCopy(owner *db.Txn, oldO, newO oid.OID, img object.Object, prior *InFlight) error {
	cur, err := owner.Read(newO)
	if err != nil {
		return err
	}
	if prior != nil && prior.Copied != nil &&
		(!bytes.Equal(cur.Payload, prior.Copied) || !refsEqual(cur.Refs, prior.CopiedRefs)) {
		return nil
	}
	want := r.transformPayload(oldO, img.Payload)
	if !bytes.Equal(cur.Payload, want) {
		if err := owner.UpdatePayload(newO, want); err != nil {
			return err
		}
	}
	wantRefs := retargetSelf(img.Refs, oldO, newO)
	diff := make(map[oid.OID]int)
	for _, c := range wantRefs {
		diff[c]++
	}
	for _, c := range cur.Refs {
		diff[c]--
	}
	for c, n := range diff {
		for ; n > 0; n-- {
			if err := owner.InsertRef(newO, c); err != nil {
				return err
			}
		}
		for ; n < 0; n++ {
			if err := owner.DeleteRef(newO, c); err != nil {
				return err
			}
		}
	}
	return nil
}

// retargetSelf returns refs with every occurrence of oldO replaced by
// newO — the reference list the new copy was created with.
func retargetSelf(refs []oid.OID, oldO, newO oid.OID) []oid.OID {
	out := make([]oid.OID, len(refs))
	for i, c := range refs {
		if c == oldO {
			c = newO
		}
		out[i] = c
	}
	return out
}

// refsEqual compares two reference lists as multisets.
func refsEqual(a, b []oid.OID) bool {
	if len(a) != len(b) {
		return false
	}
	counts := make(map[oid.OID]int, len(a))
	for _, c := range a {
		counts[c]++
	}
	for _, c := range b {
		counts[c]--
		if counts[c] < 0 {
			return false
		}
	}
	return true
}

// updateOneParent locks R in a short transaction, repoints its references
// to oldO (if any remain) at newO, and commits, retrying on deadlock
// timeouts. References already pointing at newO — including R == newO
// itself, from self-references — need no work. Per-parent lock time is
// attributed to sp (which may be nil).
func (r *Reorganizer) updateOneParent(sp *obs.Span, R, oldO, newO oid.OID) error {
	if R == oldO || R == newO {
		return nil
	}
	return r.retry("parent", R, func() error { return r.tryUpdateParent(sp, R, oldO, newO) })
}

func (r *Reorganizer) tryUpdateParent(sp *obs.Span, R, oldO, newO oid.OID) error {
	ptxn, err := r.d.Begin()
	if err != nil {
		return err
	}
	if err := r.lockParentSpanned(sp, ptxn.ID(), R); err != nil {
		ptxn.Abort()
		return err
	}
	if err := r.fail("twolock-parent-locked"); err != nil {
		return err
	}
	if r.isParent(R, oldO) {
		if err := ptxn.RetargetRef(R, oldO, newO); err != nil {
			ptxn.Abort()
			return err
		}
		r.stats.ParentsUpdated++
	}
	return ptxn.Commit()
}

// lockObjectRetry locks o exclusively for txn, retrying timeouts. Under
// relaxed 2PL it also waits for o's earlier lockers; a timed-out wait
// keeps the lock and is retried.
func (r *Reorganizer) lockObjectRetry(txn lock.TxnID, o oid.OID) error {
	return r.retry("lock of", o, func() error {
		if err := r.d.Locks().Lock(txn, o, lock.Exclusive); err != nil || r.d.Config().Strict2PL {
			return err
		}
		return r.d.Locks().WaitEverLockers(o, txn, r.opts.WaitTimeout)
	})
}
