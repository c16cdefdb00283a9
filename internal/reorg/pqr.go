package reorg

import (
	"errors"

	"repro/internal/db"
	"repro/internal/oid"
)

// runPQR implements the Partition Quiesce Reorganization baseline (paper
// §5.1): lock every object outside the partition that references into it
// — after which no transaction can obtain a reference to any object of
// the partition — then reorganize the quiesced partition inside the same
// giant transaction. The TRT detects external parents created while the
// quiesce locks are being collected.
func (r *Reorganizer) runPQR() error {
	r.trt = r.d.StartReorgTRT(r.part)
	r.trtOwned = true
	r.startLSN = r.d.Log().TailLSN()
	if err := r.waitPreStartTxns(); err != nil {
		return err
	}

	txn, err := r.d.Begin()
	if err != nil {
		return err
	}
	committed := false
	defer func() {
		if !committed {
			txn.Abort()
		}
	}()

	if err := r.quiescePartition(txn); err != nil {
		return err
	}
	if err := r.fail("quiesced"); err != nil {
		return err
	}
	if err := r.reorganizeQuiescent(txn); err != nil {
		return err
	}
	if err := txn.Commit(); err != nil {
		return err
	}
	committed = true
	return nil
}

// runOffline implements the §3.1 off-line algorithm: the caller
// guarantees the database is quiescent, so no locks or TRT are needed and
// the whole reorganization is one transaction.
func (r *Reorganizer) runOffline() error {
	if len(r.d.ActiveTxnIDs()) != 0 {
		return errors.New("reorg: offline mode requires a quiescent database")
	}
	txn, err := r.d.Begin()
	if err != nil {
		return err
	}
	committed := false
	defer func() {
		if !committed {
			txn.Abort()
		}
	}()
	if err := r.reorganizeQuiescent(txn); err != nil {
		return err
	}
	if err := txn.Commit(); err != nil {
		return err
	}
	committed = true
	return nil
}

// quiescePartition implements Quiesce_Partition: exclusively lock every
// external parent recorded in the ERT, then every external parent the
// TRT reveals, until no unlocked external parent remains. Lock timeouts
// (deadlocks with ordinary transactions, which then abort) are retried —
// the reorganizer always wins eventually, which is precisely why PQR is
// so disruptive.
func (r *Reorganizer) quiescePartition(txn *db.Txn) error {
	locked := make(parentSet)
	lockR := func(R oid.OID) error {
		if _, done := locked[R]; done || R.Partition() == r.part {
			return nil
		}
		if err := r.retry("PQR lock on", R, func() error { return r.lockParent(txn.ID(), R) }); err != nil {
			return err
		}
		locked[R] = struct{}{}
		r.noteLocks(len(locked))
		return nil
	}
	for {
		progress := false
		for _, child := range r.d.ERT(r.part).ReferencedObjects() {
			for _, R := range r.d.ERT(r.part).Parents(child) {
				if _, done := locked[R]; done {
					continue
				}
				if err := lockR(R); err != nil {
					return err
				}
				progress = true
			}
		}
		for {
			tp, ok := r.trt.TakeAny()
			if !ok {
				break
			}
			if _, done := locked[tp.Parent]; done || tp.Parent.Partition() == r.part {
				continue
			}
			if err := lockR(tp.Parent); err != nil {
				return err
			}
			progress = true
		}
		if !progress {
			return nil
		}
	}
}

// reorganizeQuiescent migrates every live object of the (now effectively
// quiescent) partition inside txn, using the off-line algorithm of §3.1:
// one traversal building all parent lists, then a straightforward move of
// each object.
func (r *Reorganizer) reorganizeQuiescent(txn *db.Txn) error {
	if len(r.objects) == 0 {
		r.findObjectsAndApproxParents()
		r.applyMigrationOrder()
	}
	if err := r.sealTargets(); err != nil {
		return err
	}
	for _, oldO := range r.objects {
		if _, done := r.migrated[oldO]; done {
			continue
		}
		if !r.wantsMigration(oldO) {
			continue
		}
		img, err := r.d.FuzzyRead(oldO)
		if err != nil {
			continue // deleted before the partition went quiet
		}
		r.chargeWork()
		pset := make(parentSet)
		for R := range r.parents[oldO] {
			if R == oldO {
				continue
			}
			// In-partition parents are locked implicitly by quiescence;
			// external parents are already exclusively locked. Verify
			// the reference is still there (it may have been deleted
			// before quiescence completed).
			if r.isParent(R, oldO) {
				pset[R] = struct{}{}
			}
		}
		newO, updated, err := r.moveObject(txn, oldO, img, pset)
		if err != nil {
			return err
		}
		r.migrated[oldO] = newO
		r.stats.Migrated++
		r.stats.ParentsUpdated += updated
		r.fixupChildren(img.Refs, oldO, newO)
	}
	if r.opts.CollectGarbage {
		return r.collectGarbageIn(txn)
	}
	return nil
}

// collectGarbageIn reclaims unreachable objects within an existing
// transaction (quiescent modes).
func (r *Reorganizer) collectGarbageIn(txn *db.Txn) error {
	var garbage []oid.OID
	err := r.d.Store().ForEach(r.part, func(o oid.OID, _ []byte) bool {
		garbage = append(garbage, o)
		return true
	})
	if err != nil {
		return err
	}
	for _, o := range garbage {
		if err := txn.Delete(o); err != nil {
			return err
		}
		r.stats.Garbage++
	}
	return nil
}
