package db_test

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"repro/internal/db"
	"repro/internal/oid"
	"repro/internal/testkit"
)

// modelObj mirrors one object's committed state.
type modelObj struct {
	payload []byte
	refs    []oid.OID
}

func (m modelObj) clone() modelObj {
	return modelObj{
		payload: append([]byte(nil), m.payload...),
		refs:    append([]oid.OID(nil), m.refs...),
	}
}

// TestTransactionModelEquivalence drives the database with thousands of
// random single-threaded transactions — creates, payload updates,
// reference inserts/deletes/retargets, object deletes, savepoints,
// partial rollbacks, commits and aborts — mirroring every operation into
// a plain-map model with the same commit/abort semantics, and requires
// exact agreement with the committed database state after every
// transaction, in every cell of the configuration matrix.
func TestTransactionModelEquivalence(t *testing.T) {
	testkit.Run(t, testkit.Pairwise, testTransactionModel)
}

func testTransactionModel(t *testing.T, c testkit.Cell) {
	cfg := db.DefaultConfig()
	cfg.FlushLatency = 0
	cfg.LockTimeout = 200 * time.Millisecond
	d := db.Open(c.Config(t, cfg))
	for i := 0; i < 3; i++ {
		if err := d.CreatePartition(oid.PartitionID(i)); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(d.Close)
	rng := rand.New(rand.NewSource(20260705))

	committed := map[oid.OID]modelObj{}

	cloneAll := func() map[oid.OID]modelObj {
		c := make(map[oid.OID]modelObj, len(committed))
		for k, v := range committed {
			c[k] = v.clone()
		}
		return c
	}
	randomKey := func(m map[oid.OID]modelObj) (oid.OID, bool) {
		if len(m) == 0 {
			return oid.Nil, false
		}
		i := rng.Intn(len(m))
		for k := range m {
			if i == 0 {
				return k, true
			}
			i--
		}
		panic("unreachable")
	}

	for txnum := 0; txnum < 400; txnum++ {
		tx, err := d.Begin()
		if err != nil {
			t.Fatal(err)
		}
		pending := cloneAll() // the transaction's view
		type savept struct {
			sp    db.Savepoint
			state map[oid.OID]modelObj
		}
		var saves []savept

		ops := 1 + rng.Intn(12)
		aborted := false
		for op := 0; op < ops; op++ {
			switch r := rng.Intn(20); {
			case r < 6: // create
				payload := make([]byte, rng.Intn(40))
				rng.Read(payload)
				var refs []oid.OID
				if k, ok := randomKey(pending); ok && rng.Intn(2) == 0 {
					refs = append(refs, k)
				}
				o, err := tx.Create(oid.PartitionID(rng.Intn(3)), payload, refs)
				if err != nil {
					t.Fatalf("txn %d create: %v", txnum, err)
				}
				pending[o] = modelObj{payload: append([]byte(nil), payload...), refs: append([]oid.OID(nil), refs...)}
			case r < 10: // update payload
				k, ok := randomKey(pending)
				if !ok {
					continue
				}
				payload := make([]byte, rng.Intn(40))
				rng.Read(payload)
				if err := tx.UpdatePayload(k, payload); err != nil {
					t.Fatalf("txn %d update %v: %v", txnum, k, err)
				}
				mo := pending[k]
				mo.payload = append([]byte(nil), payload...)
				pending[k] = mo
			case r < 13: // insert ref
				k, ok1 := randomKey(pending)
				c, ok2 := randomKey(pending)
				if !ok1 || !ok2 {
					continue
				}
				if err := tx.InsertRef(k, c); err != nil {
					t.Fatalf("txn %d insertref: %v", txnum, err)
				}
				mo := pending[k].clone()
				mo.refs = append(mo.refs, c)
				pending[k] = mo
			case r < 15: // delete ref (possibly absent)
				k, ok1 := randomKey(pending)
				c, ok2 := randomKey(pending)
				if !ok1 || !ok2 {
					continue
				}
				mo := pending[k].clone()
				present := false
				for i, ref := range mo.refs {
					if ref == c {
						mo.refs = append(mo.refs[:i], mo.refs[i+1:]...)
						present = true
						break
					}
				}
				err := tx.DeleteRef(k, c)
				if present != (err == nil) {
					t.Fatalf("txn %d deleteref present=%v err=%v", txnum, present, err)
				}
				if present {
					pending[k] = mo
				}
			case r < 16: // retarget all refs from -> to
				k, ok1 := randomKey(pending)
				from, ok2 := randomKey(pending)
				to, ok3 := randomKey(pending)
				if !ok1 || !ok2 || !ok3 {
					continue
				}
				mo := pending[k].clone()
				n := 0
				for i, ref := range mo.refs {
					if ref == from {
						mo.refs[i] = to
						n++
					}
				}
				err := tx.RetargetRef(k, from, to)
				if (n > 0) != (err == nil) {
					t.Fatalf("txn %d retarget n=%d err=%v", txnum, n, err)
				}
				if n > 0 {
					pending[k] = mo
				}
			case r < 17: // delete object (dangling refs are the model's business too)
				k, ok := randomKey(pending)
				if !ok {
					continue
				}
				if err := tx.Delete(k); err != nil {
					t.Fatalf("txn %d delete %v: %v", txnum, k, err)
				}
				delete(pending, k)
			case r < 18: // savepoint
				sp, err := tx.Savepoint()
				if err != nil {
					t.Fatalf("txn %d savepoint: %v", txnum, err)
				}
				snap := make(map[oid.OID]modelObj, len(pending))
				for k, v := range pending {
					snap[k] = v.clone()
				}
				saves = append(saves, savept{sp, snap})
			case r < 19 && len(saves) > 0: // rollback to random savepoint
				i := rng.Intn(len(saves))
				if err := tx.RollbackTo(saves[i].sp); err != nil {
					t.Fatalf("txn %d rollbackTo: %v", txnum, err)
				}
				pending = make(map[oid.OID]modelObj, len(saves[i].state))
				for k, v := range saves[i].state {
					pending[k] = v.clone()
				}
				saves = saves[:i+1]
			default: // early abort
				if err := tx.Abort(); err != nil {
					t.Fatalf("txn %d abort: %v", txnum, err)
				}
				aborted = true
			}
			if aborted {
				break
			}
		}
		if !aborted {
			if rng.Intn(5) == 0 {
				if err := tx.Abort(); err != nil {
					t.Fatalf("txn %d final abort: %v", txnum, err)
				}
				aborted = true
			} else {
				if err := tx.Commit(); err != nil {
					t.Fatalf("txn %d commit: %v", txnum, err)
				}
				committed = pending
			}
		}

		// The committed database state must equal the model exactly.
		if txnum%20 != 19 {
			continue // full scan every 20 transactions keeps the test fast
		}
		compareModel(t, d, committed)
	}
	compareModel(t, d, committed)
}

// compareModel asserts the database's committed objects equal the model.
func compareModel(t *testing.T, d *db.Database, committed map[oid.OID]modelObj) {
	t.Helper()
	seen := 0
	for _, part := range d.Partitions() {
		oids, err := d.PartitionOIDs(part)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range oids {
			mo, ok := committed[o]
			if !ok {
				t.Fatalf("object %v exists in db but not in model", o)
			}
			obj, err := d.FuzzyRead(o)
			if err != nil {
				t.Fatalf("read %v: %v", o, err)
			}
			if !bytes.Equal(obj.Payload, mo.payload) {
				t.Fatalf("object %v payload mismatch", o)
			}
			if len(obj.Refs) != len(mo.refs) {
				t.Fatalf("object %v has %d refs, model %d", o, len(obj.Refs), len(mo.refs))
			}
			for i := range obj.Refs {
				if obj.Refs[i] != mo.refs[i] {
					t.Fatalf("object %v ref %d mismatch", o, i)
				}
			}
			seen++
		}
	}
	if seen != len(committed) {
		t.Fatalf("db holds %d objects, model %d", seen, len(committed))
	}
}
