package recovery

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/db"
	"repro/internal/oid"
	"repro/internal/storage"
)

func testConfig() db.Config {
	cfg := db.DefaultConfig()
	cfg.FlushLatency = 0
	cfg.LockTimeout = 200 * time.Millisecond
	return cfg
}

// setup builds a db with one committed object graph and returns it.
func setup(t *testing.T) (*db.Database, oid.OID, oid.OID) {
	t.Helper()
	d := db.Open(testConfig())
	for i := 0; i < 2; i++ {
		if err := d.CreatePartition(oid.PartitionID(i)); err != nil {
			t.Fatal(err)
		}
	}
	tx, err := d.Begin()
	if err != nil {
		t.Fatal(err)
	}
	child, err := tx.Create(1, []byte("child"), nil)
	if err != nil {
		t.Fatal(err)
	}
	parent, err := tx.Create(0, []byte("parent"), []oid.OID{child})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return d, parent, child
}

func TestRecoverCommittedSurvives(t *testing.T) {
	d, parent, child := setup(t)
	ckpt, err := d.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	// Commit one more transaction after the checkpoint.
	tx, _ := d.Begin()
	if err := tx.UpdatePayload(parent, []byte("updated")); err != nil {
		t.Fatal(err)
	}
	tx.Commit()

	img := CaptureImage(d, ckpt)
	d.Close()
	r, err := Recover(img, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	tx2, _ := r.Begin()
	obj, err := tx2.Read(parent)
	if err != nil {
		t.Fatal(err)
	}
	if string(obj.Payload) != "updated" {
		t.Fatalf("post-ckpt committed update lost: %q", obj.Payload)
	}
	if !reflect.DeepEqual(obj.Refs, []oid.OID{child}) {
		t.Fatalf("refs = %v", obj.Refs)
	}
	tx2.Commit()
	// ERT rebuilt: the cross-partition parent is known.
	if got := r.ERT(1).Parents(child); len(got) != 1 || got[0] != parent {
		t.Fatalf("rebuilt ERT = %v", got)
	}
}

func TestRecoverUncommittedRolledBack(t *testing.T) {
	d, parent, child := setup(t)
	ckpt, _ := d.Checkpoint()

	// A transaction updates, inserts a ref, creates and deletes — then
	// the system "crashes" with it still active. Its records must be on
	// the durable log, so force a flush via an unrelated commit.
	loser, _ := d.Begin()
	loser.UpdatePayload(parent, []byte("dirty"))
	created, _ := loser.Create(0, []byte("orphan"), nil)
	loser.InsertRef(parent, created)
	loser.DeleteRef(parent, child)
	flusher, _ := d.Begin()
	o2, _ := flusher.Create(1, []byte("committed-after"), nil)
	flusher.Commit() // group commit flushes loser's records too

	img := CaptureImage(d, ckpt)
	d.Close()
	r, err := Recover(img, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	tx, _ := r.Begin()
	obj, err := tx.Read(parent)
	if err != nil {
		t.Fatal(err)
	}
	if string(obj.Payload) != "parent" {
		t.Fatalf("loser update survived: %q", obj.Payload)
	}
	if !reflect.DeepEqual(obj.Refs, []oid.OID{child}) {
		t.Fatalf("loser ref ops survived: %v", obj.Refs)
	}
	if r.Exists(created) {
		t.Fatal("loser-created object survived")
	}
	if got, err := tx.Read(o2); err != nil || string(got.Payload) != "committed-after" {
		t.Fatalf("committed object lost: %v", err)
	}
	tx.Commit()
}

func TestRecoverTxnSpanningCheckpoint(t *testing.T) {
	d, parent, _ := setup(t)
	// Transaction starts and updates BEFORE the checkpoint, stays active
	// across it, and never commits.
	loser, _ := d.Begin()
	loser.UpdatePayload(parent, []byte("pre-ckpt-dirty"))
	ckpt, _ := d.Checkpoint() // loser listed as active; snapshot contains its dirty update
	img := CaptureImage(d, ckpt)
	d.Close()
	r, err := Recover(img, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	tx, _ := r.Begin()
	obj, err := tx.Read(parent)
	if err != nil {
		t.Fatal(err)
	}
	if string(obj.Payload) != "parent" {
		t.Fatalf("pre-checkpoint loser update not undone: %q", obj.Payload)
	}
	tx.Commit()
}

func TestRecoverAfterRuntimeAbortIsNoop(t *testing.T) {
	d, parent, _ := setup(t)
	ckpt, _ := d.Checkpoint()
	tx, _ := d.Begin()
	tx.UpdatePayload(parent, []byte("will-abort"))
	tx.Abort() // writes CLRs + abort record
	flusher, _ := d.Begin()
	flusher.Create(0, []byte("f"), nil)
	flusher.Commit()

	img := CaptureImage(d, ckpt)
	d.Close()
	r, err := Recover(img, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	tx2, _ := r.Begin()
	obj, _ := tx2.Read(parent)
	if string(obj.Payload) != "parent" {
		t.Fatalf("payload = %q", obj.Payload)
	}
	tx2.Commit()
}

// TestRecoverAfterUpdateWontFit commits a transaction one of whose
// updates outgrew its page. The refused update must leave no record
// behind, so restart redo does not fail on it.
func TestRecoverAfterUpdateWontFit(t *testing.T) {
	cfg := testConfig()
	cfg.PageSize = 512
	d := db.Open(cfg)
	defer d.Close()
	if err := d.CreatePartition(0); err != nil {
		t.Fatal(err)
	}
	ckpt, err := d.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	tx, err := d.Begin()
	if err != nil {
		t.Fatal(err)
	}
	var objs []oid.OID
	for i := 0; i < 8; i++ {
		o, err := tx.Create(0, make([]byte, 40), nil)
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, o)
	}
	tail := d.Log().TailLSN()
	if err := tx.UpdatePayload(objs[0], make([]byte, 400)); !errors.Is(err, storage.ErrWontFit) {
		t.Fatalf("oversized update: %v, want ErrWontFit", err)
	}
	if got := d.Log().TailLSN(); got != tail {
		t.Fatalf("refused update appended records %d..%d", tail+1, got)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	rd, err := Recover(CaptureImage(d, ckpt), cfg)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer rd.Close()
	for _, o := range objs {
		if !rd.Exists(o) {
			t.Fatalf("committed object %s lost", o)
		}
	}
}

func TestUnflushedTailLost(t *testing.T) {
	d, parent, _ := setup(t)
	ckpt, _ := d.Checkpoint()
	// Mutate and commit so the change is durable, then mutate again
	// without any flush: the second change must be lost.
	tx, _ := d.Begin()
	tx.UpdatePayload(parent, []byte("durable"))
	tx.Commit()
	loser, _ := d.Begin()
	loser.UpdatePayload(parent, []byte("volatile"))
	// No commit, no flush.

	img := CaptureImage(d, ckpt)
	d.Close()
	r, err := Recover(img, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	tx2, _ := r.Begin()
	obj, _ := tx2.Read(parent)
	if string(obj.Payload) != "durable" {
		t.Fatalf("payload = %q, want the last durable value", obj.Payload)
	}
	tx2.Commit()
}

func TestRecoverIsDeterministic(t *testing.T) {
	d, parent, child := setup(t)
	ckpt, _ := d.Checkpoint()
	tx, _ := d.Begin()
	tx.DeleteRef(parent, child)
	tx.InsertRef(parent, child)
	tx.Commit()
	loser, _ := d.Begin()
	loser.UpdatePayload(parent, []byte("x"))
	f, _ := d.Begin()
	f.Create(0, nil, nil)
	f.Commit()
	img := CaptureImage(d, ckpt)
	d.Close()

	// Recover twice from the same image — a crash during recovery is a
	// rerun — and compare full object state.
	r1, err := Recover(img, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer r1.Close()
	r2, err := Recover(img, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	for _, part := range r1.Partitions() {
		var objs1, objs2 []string
		r1.Store().ForEach(part, func(o oid.OID, data []byte) bool {
			objs1 = append(objs1, o.String()+":"+string(data))
			return true
		})
		r2.Store().ForEach(part, func(o oid.OID, data []byte) bool {
			objs2 = append(objs2, o.String()+":"+string(data))
			return true
		})
		if !reflect.DeepEqual(objs1, objs2) {
			t.Fatalf("partition %d differs between recovery runs", part)
		}
	}
}

func TestRecoverRequiresCheckpoint(t *testing.T) {
	if _, err := Recover(&Image{}, testConfig()); err == nil {
		t.Fatal("Recover without checkpoint succeeded")
	}
}

// TestDurableRestartFromFiles exercises the fully on-disk path: a
// file-backed WAL, a checkpoint file, a hard stop, and a restart that
// reads only the files.
func TestDurableRestartFromFiles(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.LogDir = filepath.Join(dir, "wal")
	ckptPath := filepath.Join(dir, "checkpoint")

	d := db.Open(cfg)
	for i := 0; i < 2; i++ {
		if err := d.CreatePartition(oid.PartitionID(i)); err != nil {
			t.Fatal(err)
		}
	}
	tx, _ := d.Begin()
	child, _ := tx.Create(1, []byte("child"), nil)
	parent, _ := tx.Create(0, []byte("parent"), []oid.OID{child})
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	ckpt, err := d.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveCheckpoint(ckptPath, ckpt); err != nil {
		t.Fatal(err)
	}
	// Committed-after-checkpoint work must survive via the log files.
	tx2, _ := d.Begin()
	tx2.UpdatePayload(parent, []byte("updated"))
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	// A loser stays in flight at the crash.
	loser, _ := d.Begin()
	loser.UpdatePayload(parent, []byte("dirty"))
	flusher, _ := d.Begin()
	flusher.Create(0, []byte("f"), nil)
	flusher.Commit() // forces the loser's records to the durable segments
	d.Close()        // hard stop: in-memory state is gone

	r, err := RecoverFromFiles(ckptPath, cfg.LogDir, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	tx3, _ := r.Begin()
	obj, err := tx3.Read(parent)
	if err != nil {
		t.Fatal(err)
	}
	if string(obj.Payload) != "updated" {
		t.Fatalf("payload = %q after file restart", obj.Payload)
	}
	if len(obj.Refs) != 1 || obj.Refs[0] != child {
		t.Fatalf("refs = %v", obj.Refs)
	}
	tx3.Commit()
	if got := r.ERT(1).Parents(child); len(got) != 1 || got[0] != parent {
		t.Fatalf("rebuilt ERT = %v", got)
	}
}

func TestSaveCheckpointAtomicReplace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck")
	d := db.Open(testConfig())
	defer d.Close()
	d.CreatePartition(0)
	tx, _ := d.Begin()
	tx.Create(0, []byte("v1"), nil)
	tx.Commit()
	ck1, _ := d.Checkpoint()
	if err := SaveCheckpoint(path, ck1); err != nil {
		t.Fatal(err)
	}
	tx2, _ := d.Begin()
	tx2.Create(0, []byte("v2"), nil)
	tx2.Commit()
	ck2, _ := d.Checkpoint()
	if err := SaveCheckpoint(path, ck2); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.LSN != ck2.LSN {
		t.Fatalf("loaded LSN %d, want %d", got.LSN, ck2.LSN)
	}
}

func TestLoadCheckpointErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadCheckpoint(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing checkpoint loaded")
	}
	bad := filepath.Join(dir, "bad")
	os.WriteFile(bad, []byte("garbage-checkpoint"), 0o644)
	if _, err := LoadCheckpoint(bad); err == nil {
		t.Fatal("garbage checkpoint loaded")
	}
}
