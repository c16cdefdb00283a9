package recovery

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/check"
	"repro/internal/db"
	"repro/internal/fault"
	"repro/internal/lock"
	"repro/internal/oid"
	"repro/internal/testkit"
)

// buildRandomImage creates a database, runs a seeded mix of committed
// and loser transactions against it, and captures a crash image in
// which the losers' records are durable but their commits are not.
func buildRandomImage(t *testing.T, c testkit.Cell, seed int64) (*Image, oid.OID) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	d := db.Open(c.Config(t, testConfig()))
	defer d.Close()
	for p := 0; p <= 2; p++ {
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
	var objs []oid.OID
	for i := 0; i < 8; i++ {
		o, err := tx.Create(oid.PartitionID(1+i%2), []byte(fmt.Sprintf("seed-%d", i)), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.InsertRef(root, o); err != nil {
			t.Fatal(err)
		}
		objs = append(objs, o)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// The checkpoint sits early so recovery must redo everything after it.
	ckpt, err := d.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	next := 100
	mutate := func(tx *db.Txn) error {
		switch rng.Intn(3) {
		case 0: // create a new object hooked under the root
			o, err := tx.Create(oid.PartitionID(1+rng.Intn(2)), []byte(fmt.Sprintf("obj-%d", next)), nil)
			next++
			if err != nil {
				return err
			}
			return tx.InsertRef(root, o)
		case 1: // rewrite an existing payload
			o := objs[rng.Intn(len(objs))]
			next++
			return tx.UpdatePayload(o, []byte(fmt.Sprintf("upd-%d", next)))
		default: // unhook and delete an object (keep a floor of survivors)
			if len(objs) <= 3 {
				o, err := tx.Create(1, []byte(fmt.Sprintf("obj-%d", next)), nil)
				next++
				if err != nil {
					return err
				}
				return tx.InsertRef(root, o)
			}
			i := rng.Intn(len(objs))
			o := objs[i]
			objs = append(objs[:i], objs[i+1:]...)
			if err := tx.DeleteRef(root, o); err != nil {
				return err
			}
			return tx.Delete(o)
		}
	}

	// Committed work.
	for n := 0; n < 6; n++ {
		tx, err := d.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k <= rng.Intn(3); k++ {
			if err := mutate(tx); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// Losers: mutate but never commit. Force their records onto the
	// durable medium so recovery actually has to undo them. Open losers
	// hold 2PL locks and contend with each other (often on the root), so
	// a timed-out mutation simply ends that loser's activity — partially
	// mutated open transactions are exactly what a crash leaves behind.
	var losers []*db.Txn
	for n := 0; n < 1+rng.Intn(3); n++ {
		tx, err := d.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k <= rng.Intn(3); k++ {
			if err := mutate(tx); err != nil {
				if errors.Is(err, lock.ErrTimeout) {
					break
				}
				t.Fatal(err)
			}
		}
		losers = append(losers, tx)
	}
	if err := d.Log().FlushWait(d.Log().TailLSN()); err != nil {
		t.Fatal(err)
	}
	img := CaptureImage(d, ckpt)
	_ = losers // still open at "crash" time, exactly as a real crash leaves them
	return img, root
}

func recoverSig(t *testing.T, c testkit.Cell, img *Image, root oid.OID) map[string][]string {
	t.Helper()
	d, err := Recover(img, c.Config(t, testConfig()))
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer d.Close()
	rep, err := check.Verify(d, []oid.OID{root})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("recovered database inconsistent: %v", err)
	}
	sig, err := check.Signature(d, []oid.OID{root})
	if err != nil {
		t.Fatal(err)
	}
	return sig
}

// TestRecoverIdempotentAcrossSeeds is the §4.4 idempotence property:
// recovery never appends to the log, so running it twice from one
// durable image — or crashing it partway and rerunning — must yield
// byte-identical logical databases, in each pairwise cell of the
// configuration matrix.
func TestRecoverIdempotentAcrossSeeds(t *testing.T) {
	testkit.Run(t, testkit.Pairwise, testRecoverIdempotent)
}

func testRecoverIdempotent(t *testing.T, c testkit.Cell) {
	interruptPoints := []string{fault.RecoveryAnalysis, fault.RecoveryRedo, fault.RecoveryUndo}
	for seed := int64(0); seed < 12; seed++ {
		img, root := buildRandomImage(t, c, seed)

		first := recoverSig(t, c, img, root)
		second := recoverSig(t, c, img, root)
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("seed %d: two recoveries from one image disagree", seed)
		}

		// Interrupt a recovery after one of its passes, then rerun it.
		pt := interruptPoints[seed%int64(len(interruptPoints))]
		reg := fault.NewRegistry(seed)
		reg.Arm(fault.Trigger{Point: pt, Kind: fault.KindError, Hit: 1})
		restore := fault.Install(reg)
		d, err := Recover(img, c.Config(t, testConfig()))
		restore()
		if err == nil {
			d.Close()
			t.Fatalf("seed %d: recovery armed at %s did not fail", seed, pt)
		}
		if !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("seed %d: interrupted recovery failed organically: %v", seed, err)
		}
		rerun := recoverSig(t, c, img, root)
		if !reflect.DeepEqual(first, rerun) {
			t.Fatalf("seed %d: rerun after interruption at %s diverged", seed, pt)
		}
	}
}
