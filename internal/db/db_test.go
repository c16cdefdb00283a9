package db

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/lock"
	"repro/internal/object"
	"repro/internal/oid"
	"repro/internal/storage"
	"repro/internal/trt"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.FlushLatency = 0 // keep unit tests fast
	cfg.LockTimeout = 200 * time.Millisecond
	return cfg
}

func openTestDB(t *testing.T, parts int) *Database {
	t.Helper()
	d := Open(testConfig())
	for i := 0; i < parts; i++ {
		if err := d.CreatePartition(oid.PartitionID(i)); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(d.Close)
	return d
}

func mustBegin(t *testing.T, d *Database) *Txn {
	t.Helper()
	tx, err := d.Begin()
	if err != nil {
		t.Fatal(err)
	}
	return tx
}

func TestCreateReadCommit(t *testing.T) {
	d := openTestDB(t, 1)
	tx := mustBegin(t, d)
	o, err := tx.Create(0, []byte("hello"), nil)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := tx.Read(o)
	if err != nil {
		t.Fatal(err)
	}
	if string(obj.Payload) != "hello" {
		t.Fatalf("payload = %q", obj.Payload)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Visible to a later transaction.
	tx2 := mustBegin(t, d)
	obj, err = tx2.Read(o)
	if err != nil || string(obj.Payload) != "hello" {
		t.Fatalf("second txn read: %q, %v", obj.Payload, err)
	}
	tx2.Commit()
}

func TestRefOperations(t *testing.T) {
	d := openTestDB(t, 1)
	tx := mustBegin(t, d)
	child1, _ := tx.Create(0, []byte("c1"), nil)
	child2, _ := tx.Create(0, []byte("c2"), nil)
	parent, _ := tx.Create(0, []byte("p"), []oid.OID{child1})
	if err := tx.InsertRef(parent, child2); err != nil {
		t.Fatal(err)
	}
	refs, _ := tx.ReadRefs(parent)
	if !reflect.DeepEqual(refs, []oid.OID{child1, child2}) {
		t.Fatalf("refs = %v", refs)
	}
	if err := tx.DeleteRef(parent, child1); err != nil {
		t.Fatal(err)
	}
	if err := tx.DeleteRef(parent, child1); !errors.Is(err, ErrNoRef) {
		t.Fatalf("double delete: %v", err)
	}
	if err := tx.RetargetRef(parent, child2, child1); err != nil {
		t.Fatal(err)
	}
	refs, _ = tx.ReadRefs(parent)
	if !reflect.DeepEqual(refs, []oid.OID{child1}) {
		t.Fatalf("refs after retarget = %v", refs)
	}
	if err := tx.RetargetRef(parent, child2, child1); !errors.Is(err, ErrNoRef) {
		t.Fatalf("retarget of absent ref: %v", err)
	}
	tx.Commit()
}

func TestUpdatePayloadPreservesRefs(t *testing.T) {
	d := openTestDB(t, 1)
	tx := mustBegin(t, d)
	c, _ := tx.Create(0, nil, nil)
	p, _ := tx.Create(0, []byte("old"), []oid.OID{c})
	if err := tx.UpdatePayload(p, []byte("new-payload")); err != nil {
		t.Fatal(err)
	}
	obj, _ := tx.Read(p)
	if string(obj.Payload) != "new-payload" || len(obj.Refs) != 1 || obj.Refs[0] != c {
		t.Fatalf("obj = %+v", obj)
	}
	tx.Commit()
}

func TestDeleteObject(t *testing.T) {
	d := openTestDB(t, 1)
	tx := mustBegin(t, d)
	o, _ := tx.Create(0, []byte("doomed"), nil)
	if err := tx.Delete(o); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	if d.Exists(o) {
		t.Fatal("object survived delete")
	}
}

func TestAbortRollsBackEverything(t *testing.T) {
	d := openTestDB(t, 1)
	setup := mustBegin(t, d)
	child, _ := setup.Create(0, []byte("child"), nil)
	victim, _ := setup.Create(0, []byte("victim"), nil)
	parent, _ := setup.Create(0, []byte("parent"), []oid.OID{child})
	setup.Commit()

	tx := mustBegin(t, d)
	created, _ := tx.Create(0, []byte("created"), nil)
	tx.UpdatePayload(parent, []byte("scribbled"))
	tx.InsertRef(parent, created)
	tx.DeleteRef(parent, child)
	tx.Delete(victim)
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}

	if d.Exists(created) {
		t.Fatal("created object survived abort")
	}
	if !d.Exists(victim) {
		t.Fatal("deleted object not restored by abort")
	}
	check := mustBegin(t, d)
	obj, err := check.Read(parent)
	if err != nil {
		t.Fatal(err)
	}
	if string(obj.Payload) != "parent" {
		t.Fatalf("payload after abort = %q", obj.Payload)
	}
	if !reflect.DeepEqual(obj.Refs, []oid.OID{child}) {
		t.Fatalf("refs after abort = %v", obj.Refs)
	}
	vic, err := check.Read(victim)
	if err != nil || string(vic.Payload) != "victim" {
		t.Fatalf("restored victim = %+v, %v", vic, err)
	}
	check.Commit()
}

func TestTxnDoneErrors(t *testing.T) {
	d := openTestDB(t, 1)
	tx := mustBegin(t, d)
	o, _ := tx.Create(0, nil, nil)
	tx.Commit()
	if err := tx.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("double commit: %v", err)
	}
	if err := tx.Abort(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("abort after commit: %v", err)
	}
	if _, err := tx.Read(o); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("read after commit: %v", err)
	}
}

func TestStrict2PLConflicts(t *testing.T) {
	d := openTestDB(t, 1)
	tx := mustBegin(t, d)
	o, _ := tx.Create(0, []byte("x"), nil)
	tx.Commit()

	writer := mustBegin(t, d)
	if err := writer.UpdatePayload(o, []byte("w")); err != nil {
		t.Fatal(err)
	}
	reader := mustBegin(t, d)
	if _, err := reader.Read(o); !errors.Is(err, lock.ErrTimeout) {
		t.Fatalf("read vs writer: %v", err)
	}
	reader.Abort()
	writer.Commit()
	// After commit the object is readable.
	r2 := mustBegin(t, d)
	obj, err := r2.Read(o)
	if err != nil || string(obj.Payload) != "w" {
		t.Fatalf("read after commit: %+v, %v", obj, err)
	}
	r2.Commit()
}

func TestUnlockForbiddenUnderStrict2PL(t *testing.T) {
	d := openTestDB(t, 1)
	tx := mustBegin(t, d)
	o, _ := tx.Create(0, nil, nil)
	if err := tx.Unlock(o); !errors.Is(err, ErrStrict2PL) {
		t.Fatalf("err = %v", err)
	}
	tx.Commit()
}

func TestRelaxed2PLEarlyUnlock(t *testing.T) {
	cfg := testConfig()
	cfg.Strict2PL = false
	d := Open(cfg)
	defer d.Close()
	d.CreatePartition(0)
	tx := mustBegin(t, d)
	o, _ := tx.Create(0, []byte("x"), nil)
	if err := tx.Unlock(o); err != nil {
		t.Fatal(err)
	}
	// Another transaction can lock it while tx is still active.
	tx2 := mustBegin(t, d)
	if err := tx2.Lock(o, lock.Exclusive); err != nil {
		t.Fatalf("lock after early unlock: %v", err)
	}
	// History: tx is still recorded as an ever-locker of o.
	lockers := d.Locks().EverLockedBy(o, tx2.ID())
	if len(lockers) != 1 || lockers[0] != tx.ID() {
		t.Fatalf("EverLockedBy = %v", lockers)
	}
	tx2.Commit()
	tx.Commit()
}

func TestERTMaintainedAcrossOps(t *testing.T) {
	d := openTestDB(t, 2)
	tx := mustBegin(t, d)
	child, _ := tx.Create(1, []byte("c"), nil)
	parent, _ := tx.Create(0, []byte("p"), []oid.OID{child})
	tx.Commit()
	if got := d.ERT(1).Parents(child); len(got) != 1 || got[0] != parent {
		t.Fatalf("ERT parents = %v", got)
	}
	// Deleting the ref clears the entry.
	tx2 := mustBegin(t, d)
	tx2.DeleteRef(parent, child)
	tx2.Commit()
	if d.ERT(1).HasChild(child) {
		t.Fatal("ERT entry survived ref delete")
	}
	// An aborted delete leaves the ERT as before.
	tx3 := mustBegin(t, d)
	tx3.InsertRef(parent, child)
	tx3.Commit()
	tx4 := mustBegin(t, d)
	tx4.DeleteRef(parent, child)
	tx4.Abort()
	if got := d.ERT(1).Parents(child); len(got) != 1 {
		t.Fatalf("ERT after aborted delete = %v", got)
	}
}

func TestRebuildERTsMatchesIncremental(t *testing.T) {
	d := openTestDB(t, 3)
	tx := mustBegin(t, d)
	var children []oid.OID
	for i := 0; i < 10; i++ {
		c, _ := tx.Create(oid.PartitionID(i%3), []byte{byte(i)}, nil)
		children = append(children, c)
	}
	for i, c := range children {
		p := oid.PartitionID((i + 1) % 3)
		tx.Create(p, nil, []oid.OID{c})
	}
	tx.Commit()

	before := map[oid.PartitionID]int{}
	for _, part := range d.Partitions() {
		before[part] = d.ERT(part).Refs()
	}
	if err := d.RebuildERTs(); err != nil {
		t.Fatal(err)
	}
	for _, part := range d.Partitions() {
		if got := d.ERT(part).Refs(); got != before[part] {
			t.Fatalf("partition %d: rebuilt ERT has %d refs, incremental had %d", part, got, before[part])
		}
	}
}

func TestTRTMaintainedDuringReorg(t *testing.T) {
	d := openTestDB(t, 2)
	tx := mustBegin(t, d)
	child, _ := tx.Create(1, []byte("c"), nil)
	parent, _ := tx.Create(0, []byte("p"), []oid.OID{child})
	tx.Commit()

	tr := d.StartReorgTRT(1)
	defer d.StopReorgTRT(1)
	tx2 := mustBegin(t, d)
	if err := tx2.DeleteRef(parent, child); err != nil {
		t.Fatal(err)
	}
	// The delete tuple must be visible before tx2 completes.
	tuples := tr.TuplesFor(child)
	if len(tuples) != 1 || tuples[0].Act != trt.Delete {
		t.Fatalf("TRT tuples mid-txn = %v", tuples)
	}
	tx2.Commit()
	// Strict 2PL purge removes it at commit.
	if tr.Len() != 0 {
		t.Fatalf("TRT after commit = %d tuples", tr.Len())
	}
}

func TestFuzzyRead(t *testing.T) {
	d := openTestDB(t, 1)
	tx := mustBegin(t, d)
	c, _ := tx.Create(0, []byte("c"), nil)
	o, _ := tx.Create(0, []byte("fuzzy"), []oid.OID{c})
	// No commit yet: fuzzy read ignores locks entirely.
	obj, err := d.FuzzyRead(o)
	if err != nil {
		t.Fatal(err)
	}
	if string(obj.Payload) != "fuzzy" || len(obj.Refs) != 1 {
		t.Fatalf("FuzzyRead = %+v", obj)
	}
	refs, err := d.FuzzyReadRefs(o)
	if err != nil || len(refs) != 1 || refs[0] != c {
		t.Fatalf("FuzzyReadRefs = %v, %v", refs, err)
	}
	tx.Commit()
}

func TestWaitForTxns(t *testing.T) {
	d := openTestDB(t, 1)
	tx := mustBegin(t, d)
	ids := d.ActiveTxnIDs()
	if len(ids) != 1 || ids[0] != tx.ID() {
		t.Fatalf("ActiveTxnIDs = %v", ids)
	}
	done := make(chan error, 1)
	go func() { done <- d.WaitForTxns(ids, 5*time.Second) }()
	time.Sleep(20 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("WaitForTxns returned while txn active")
	default:
	}
	tx.Commit()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("WaitForTxns stuck")
	}
	// Timeout path.
	tx2 := mustBegin(t, d)
	if err := d.WaitForTxns([]lock.TxnID{tx2.ID()}, 30*time.Millisecond); err == nil {
		t.Fatal("WaitForTxns did not time out")
	}
	tx2.Commit()
}

func TestCheckpointIsolatesSnapshot(t *testing.T) {
	d := openTestDB(t, 1)
	tx := mustBegin(t, d)
	o, _ := tx.Create(0, []byte("v1"), nil)
	tx.Commit()

	ckpt, err := d.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if ckpt.LSN == 0 || ckpt.Snap == nil {
		t.Fatalf("checkpoint = %+v", ckpt)
	}
	tx2 := mustBegin(t, d)
	tx2.UpdatePayload(o, []byte("v2"))
	tx2.Commit()
	// The snapshot still holds v1.
	s2 := storage.RestoreSnapshot(ckpt.Snap)
	got, err := s2.Read(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The stored image embeds the object encoding; just check the
	// payload tail.
	if string(got[len(got)-2:]) != "v1" {
		t.Fatalf("snapshot payload = %q", got)
	}
}

func TestBeginAfterClose(t *testing.T) {
	d := Open(testConfig())
	d.Close()
	if _, err := d.Begin(); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v", err)
	}
}

func TestConcurrentDisjointTxns(t *testing.T) {
	d := openTestDB(t, 4)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			part := oid.PartitionID(g % 4)
			for i := 0; i < 50; i++ {
				tx, err := d.Begin()
				if err != nil {
					errs <- err
					return
				}
				a, err := tx.Create(part, []byte{byte(g)}, nil)
				if err != nil {
					errs <- err
					tx.Abort()
					return
				}
				if _, err := tx.Create(part, nil, []oid.OID{a}); err != nil {
					errs <- err
					tx.Abort()
					return
				}
				if err := tx.Commit(); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestSavepointPartialRollback(t *testing.T) {
	d := openTestDB(t, 1)
	tx := mustBegin(t, d)
	a, _ := tx.Create(0, []byte("a"), nil)
	sp, err := tx.Savepoint()
	if err != nil {
		t.Fatal(err)
	}
	b, _ := tx.Create(0, []byte("b"), nil)
	tx.InsertRef(a, b)
	tx.UpdatePayload(a, []byte("a-mutated"))
	if err := tx.RollbackTo(sp); err != nil {
		t.Fatal(err)
	}
	// Work after the savepoint is gone; work before it survives; the
	// transaction is still usable.
	if d.Exists(b) {
		t.Fatal("post-savepoint create survived partial rollback")
	}
	obj, err := tx.Read(a)
	if err != nil {
		t.Fatal(err)
	}
	if string(obj.Payload) != "a" || len(obj.Refs) != 0 {
		t.Fatalf("pre-savepoint object disturbed: %+v", obj)
	}
	c, err := tx.Create(0, []byte("c"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if !d.Exists(a) || !d.Exists(c) {
		t.Fatal("committed state wrong after partial rollback")
	}
}

func TestSavepointThenFullAbort(t *testing.T) {
	d := openTestDB(t, 1)
	setup := mustBegin(t, d)
	a, _ := setup.Create(0, []byte("base"), nil)
	setup.Commit()

	tx := mustBegin(t, d)
	tx.UpdatePayload(a, []byte("one"))
	sp, _ := tx.Savepoint()
	tx.UpdatePayload(a, []byte("two"))
	if err := tx.RollbackTo(sp); err != nil {
		t.Fatal(err)
	}
	tx.UpdatePayload(a, []byte("three"))
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	check := mustBegin(t, d)
	obj, _ := check.Read(a)
	if string(obj.Payload) != "base" {
		t.Fatalf("abort after partial rollback left %q", obj.Payload)
	}
	check.Commit()
}

func TestNestedSavepoints(t *testing.T) {
	d := openTestDB(t, 1)
	tx := mustBegin(t, d)
	a, _ := tx.Create(0, []byte("v0"), nil)
	sp1, _ := tx.Savepoint()
	tx.UpdatePayload(a, []byte("v1"))
	sp2, _ := tx.Savepoint()
	tx.UpdatePayload(a, []byte("v2"))
	if err := tx.RollbackTo(sp2); err != nil {
		t.Fatal(err)
	}
	obj, _ := tx.Read(a)
	if string(obj.Payload) != "v1" {
		t.Fatalf("after inner rollback: %q", obj.Payload)
	}
	if err := tx.RollbackTo(sp1); err != nil {
		t.Fatal(err)
	}
	obj, _ = tx.Read(a)
	if string(obj.Payload) != "v0" {
		t.Fatalf("after outer rollback: %q", obj.Payload)
	}
	tx.Commit()
}

func TestSavepointOnEndedTxn(t *testing.T) {
	d := openTestDB(t, 1)
	tx := mustBegin(t, d)
	sp, _ := tx.Savepoint()
	tx.Commit()
	if _, err := tx.Savepoint(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("Savepoint after commit: %v", err)
	}
	if err := tx.RollbackTo(sp); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("RollbackTo after commit: %v", err)
	}
}

func TestLogTruncation(t *testing.T) {
	d := openTestDB(t, 1)
	tx := mustBegin(t, d)
	o, _ := tx.Create(0, []byte("x"), nil)
	tx.Commit()
	// An old transaction is still active across the checkpoint: its
	// begin record pins the log.
	old := mustBegin(t, d)
	old.UpdatePayload(o, []byte("dirty"))
	ckpt, err := d.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	safe := d.SafeTruncationLSN(ckpt)
	if safe >= ckpt.LSN {
		t.Fatalf("safe LSN %d not pinned by active txn (ckpt %d)", safe, ckpt.LSN)
	}
	d.TruncateLog(ckpt)
	// The active transaction can still roll back (its records survive).
	if err := old.Abort(); err != nil {
		t.Fatal(err)
	}
	check := mustBegin(t, d)
	obj, _ := check.Read(o)
	if string(obj.Payload) != "x" {
		t.Fatalf("rollback after truncation: %q", obj.Payload)
	}
	check.Commit()
	// With no active transactions, truncation reaches the checkpoint.
	ckpt2, _ := d.Checkpoint()
	d.TruncateLog(ckpt2)
	if got := d.Log().Get(ckpt2.LSN - 1); got != nil {
		t.Fatal("records before quiescent checkpoint survived truncation")
	}
	if d.Log().Get(ckpt2.LSN) == nil {
		t.Fatal("checkpoint record itself truncated")
	}
}

// TestReadDecodesInPlace: Read decodes the object straight from its slot,
// so once the lock is held it allocates exactly what object.Decode does
// (the reference list and the payload copy) and nothing for a private
// copy of the image.
func TestReadDecodesInPlace(t *testing.T) {
	d := openTestDB(t, 1)
	tx := mustBegin(t, d)
	child, err := tx.Create(0, []byte("child"), nil)
	if err != nil {
		t.Fatal(err)
	}
	o, err := tx.Create(0, []byte("payload"), []oid.OID{child, child})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx = mustBegin(t, d)
	defer tx.Abort()
	want, err := tx.Read(o) // takes the shared lock
	if err != nil {
		t.Fatal(err)
	}
	image := object.Encode(want)
	read := testing.AllocsPerRun(100, func() {
		if _, err := tx.Read(o); err != nil {
			t.Fatal(err)
		}
	})
	decode := testing.AllocsPerRun(100, func() {
		if _, err := object.Decode(image); err != nil {
			t.Fatal(err)
		}
	})
	if read != decode {
		t.Fatalf("Read allocates %v times, object.Decode %v; want equal", read, decode)
	}
}
