package recovery

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/check"
	"repro/internal/db"
	"repro/internal/oid"
)

// undoState is what an undo leaves behind: a digest of every live
// object's address and bytes, the OID map's bindings (nil in physical
// mode), and every partition's ERT.
type undoState struct {
	store [32]byte
	oids  map[oid.OID]oid.OID
	erts  map[oid.PartitionID]map[[2]oid.OID]int
}

func captureUndoState(t *testing.T, d *db.Database, root oid.OID) undoState {
	t.Helper()
	rep, err := check.Verify(d, []oid.OID{root})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("database inconsistent: %v", err)
	}
	h := sha256.New()
	st := undoState{erts: make(map[oid.PartitionID]map[[2]oid.OID]int)}
	for _, p := range d.Partitions() {
		if err := d.Store().ForEach(p, func(o oid.OID, data []byte) bool {
			fmt.Fprintf(h, "%s %x\n", o, data)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		refs := make(map[[2]oid.OID]int)
		d.ERT(p).Range(func(child, parent oid.OID, n int) bool {
			refs[[2]oid.OID{child, parent}] = n
			return true
		})
		st.erts[p] = refs
	}
	copy(st.store[:], h.Sum(nil))
	if m := d.OIDMap(); m != nil {
		st.oids = make(map[oid.OID]oid.OID)
		m.ForEach(func(l, p oid.OID) bool {
			st.oids[l] = p
			return true
		})
	}
	return st
}

// randomTxn drives one transaction through n random operations over
// the live identities, with savepoint rollbacks, and returns the
// identities live when it stops. Deletes pick objects nothing
// references, so the graph never dangles.
func randomTxn(t *testing.T, rng *rand.Rand, tx *db.Txn, live []oid.OID, n int, logical bool) []oid.OID {
	t.Helper()
	root := live[0]
	var (
		sp     *db.Savepoint
		spLive []oid.OID
	)
	payload := func() []byte { return []byte(fmt.Sprintf("p%d-%s", rng.Intn(1000), make([]byte, rng.Intn(40)))) }
	pick := func() oid.OID { return live[rng.Intn(len(live))] }
	withRefs := func() (oid.OID, []oid.OID) {
		for tries := 0; tries < 8; tries++ {
			o := pick()
			refs, err := tx.ReadRefs(o)
			if err != nil {
				t.Fatal(err)
			}
			if len(refs) > 0 {
				return o, refs
			}
		}
		return oid.Nil, nil
	}
	must := func(op string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
	}
	for i := 0; i < n; i++ {
		switch k := rng.Intn(11); {
		case k < 2: // create, usually hooked under a live parent
			var refs []oid.OID
			for j := rng.Intn(3); j > 0; j-- {
				refs = append(refs, pick())
			}
			o, err := tx.Create(oid.PartitionID(rng.Intn(3)), payload(), refs)
			must("create", err)
			if rng.Intn(4) > 0 {
				must("insert new", tx.InsertRef(pick(), o))
			}
			live = append(live, o)
		case k < 4:
			must("update", tx.UpdatePayload(pick(), payload()))
		case k < 5:
			must("insert", tx.InsertRef(pick(), pick()))
		case k < 6:
			if o, refs := withRefs(); !o.IsNil() {
				must("delete ref", tx.DeleteRef(o, refs[rng.Intn(len(refs))]))
			}
		case k < 7:
			if o, refs := withRefs(); !o.IsNil() {
				must("retarget", tx.RetargetRef(o, refs[rng.Intn(len(refs))], pick()))
			}
		case k < 8: // delete an object nothing references
			parents := make(map[oid.OID]bool)
			for _, o := range live {
				refs, err := tx.ReadRefs(o)
				must("scan", err)
				for _, c := range refs {
					parents[c] = true
				}
			}
			for j, o := range live {
				if o != root && !parents[o] {
					must("delete", tx.Delete(o))
					live = append(live[:j:j], live[j+1:]...)
					break
				}
			}
		case k < 9:
			if logical && len(live) > 1 {
				o := live[1+rng.Intn(len(live)-1)]
				must("relocate", tx.Relocate(o, oid.PartitionID(rng.Intn(3)), rng.Intn(2) == 0, nil))
			}
		default: // take a savepoint, or roll back to the open one
			if sp == nil || rng.Intn(2) == 0 {
				s, err := tx.Savepoint()
				must("savepoint", err)
				sp, spLive = &s, append([]oid.OID(nil), live...)
				continue
			}
			must("rollback", tx.RollbackTo(*sp))
			live, sp = spLive, nil
		}
	}
	return live
}

// TestRollbackMatchesRestartUndo is the oracle between the two undo
// paths: live rollback (Abort, which logs and applies each record's CLR)
// and restart undo (Recover after a crash, which applies the same
// compensation unlogged). Each case runs random committed transactions
// with savepoint rollbacks, then a last transaction that is captured
// open in a crash image and then aborted live. The aborted database and
// the one recovered from the image must hold the same objects at the
// same addresses, the same OID-map bindings and the same ERTs, and both
// must pass check.Verify.
func TestRollbackMatchesRestartUndo(t *testing.T) {
	for _, logical := range []bool{false, true} {
		for seed := int64(1); seed <= 12; seed++ {
			t.Run(fmt.Sprintf("logical=%v/seed=%d", logical, seed), func(t *testing.T) {
				cfg := testConfig()
				cfg.LogicalOIDs, cfg.PhysicalOIDs = logical, !logical
				rng := rand.New(rand.NewSource(seed))
				d := db.Open(cfg)
				defer d.Close()
				for p := 0; p < 3; p++ {
					if err := d.CreatePartition(oid.PartitionID(p)); err != nil {
						t.Fatal(err)
					}
				}
				tx, err := d.Begin()
				if err != nil {
					t.Fatal(err)
				}
				root, err := tx.Create(0, []byte("root"), nil)
				if err != nil {
					t.Fatal(err)
				}
				live := []oid.OID{root}
				for i := 0; i < 6; i++ {
					o, err := tx.Create(oid.PartitionID(i%3), []byte(fmt.Sprintf("seed-%d", i)), nil)
					if err == nil {
						err = tx.InsertRef(root, o)
					}
					if err != nil {
						t.Fatal(err)
					}
					live = append(live, o)
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				ckpt, err := d.Checkpoint()
				if err != nil {
					t.Fatal(err)
				}
				for c := 0; c < 3; c++ {
					tx, err := d.Begin()
					if err != nil {
						t.Fatal(err)
					}
					live = randomTxn(t, rng, tx, live, 15, logical)
					if err := tx.Commit(); err != nil {
						t.Fatal(err)
					}
				}
				loser, err := d.Begin()
				if err != nil {
					t.Fatal(err)
				}
				randomTxn(t, rng, loser, live, 25, logical)
				if err := d.Log().FlushWait(d.Log().TailLSN()); err != nil {
					t.Fatal(err)
				}
				img := CaptureImage(d, ckpt)

				if err := loser.Abort(); err != nil {
					t.Fatal(err)
				}
				aborted := captureUndoState(t, d, root)
				rd, err := Recover(img, cfg)
				if err != nil {
					t.Fatalf("Recover: %v", err)
				}
				defer rd.Close()
				restarted := captureUndoState(t, rd, root)

				if aborted.store != restarted.store {
					t.Error("store contents differ between live abort and restart undo")
				}
				if !reflect.DeepEqual(aborted.oids, restarted.oids) {
					t.Errorf("OID map differs:\n  abort   %v\n  restart %v", aborted.oids, restarted.oids)
				}
				if !reflect.DeepEqual(aborted.erts, restarted.erts) {
					t.Errorf("ERTs differ:\n  abort   %v\n  restart %v", aborted.erts, restarted.erts)
				}
			})
		}
	}
}
