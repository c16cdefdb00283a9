package server_test

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/db"
	"repro/internal/fault"
	"repro/internal/lock"
	"repro/internal/oid"
	"repro/internal/server"
	"repro/internal/wire"
)

// create commits one object per payload in partition 1.
func (w *world) create(t *testing.T, payloads ...[]byte) []oid.OID {
	t.Helper()
	tx, err := w.d.Begin()
	if err != nil {
		t.Fatal(err)
	}
	var out []oid.OID
	for _, p := range payloads {
		o, err := tx.Create(1, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, o)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return out
}

// payload reads o's committed payload in-process.
func (w *world) payload(t *testing.T, o oid.OID) string {
	t.Helper()
	obj, err := w.d.FuzzyRead(o)
	if err != nil {
		t.Fatalf("reading %s: %v", o, err)
	}
	return string(obj.Payload)
}

// assertQuiet fails unless no transaction is open on the server or in
// the database and the lock manager tracks none. Handler cleanup runs
// asynchronously after a socket dies, so it polls briefly.
func (w *world) assertQuiet(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		st := w.srv.StatsSnapshot()
		ids, holders := w.d.ActiveTxnIDs(), w.d.Locks().ActiveTxns()
		if st.ActiveTxns == 0 && len(ids) == 0 && len(holders) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("not quiet: server active_txns=%d, db txns %v, lock holders %v", st.ActiveTxns, ids, holders)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPipelineReadYourWrites: a queued Update is sent in front of the
// Read that follows it, so the Read sees the new payload; the Update
// itself sends nothing.
func TestPipelineReadYourWrites(t *testing.T) {
	w, ln := countingWorld(t)
	cl := w.client(t, client.Config{PoolSize: 1})
	tx, err := cl.Begin()
	if err != nil {
		t.Fatal(err)
	}
	before := len(ln.frameSizes())
	if err := tx.Update(w.root, []byte("mine")); err != nil {
		t.Fatalf("Update: %v", err)
	}
	if got := len(ln.frameSizes()); got != before {
		t.Fatalf("Update sent %d frames, want none until the next Read", got-before)
	}
	obj, err := tx.Read(w.root, false)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if string(obj.Payload) != "mine" {
		t.Fatalf("Read after Update = %q, want %q", obj.Payload, "mine")
	}
	if got := len(ln.frameSizes()); got != before+1 {
		t.Fatalf("Update+Read took %d frames, want 1", got-before)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := w.payload(t, w.root); got != "mine" {
		t.Fatalf("committed payload = %q, want %q", got, "mine")
	}
}

// TestPipelineQueuedFailure: a queued op that fails server-side is
// reported by the next call that flushes it, as ErrAborted naming the
// op. The transaction is rolled back, nothing commits, nothing stays
// open or locked, and the same connection serves the next Begin.
func TestPipelineQueuedFailure(t *testing.T) {
	for _, cause := range []string{"deleted-oid", "lock-timeout"} {
		for _, flusher := range []string{"read", "commit"} {
			t.Run(cause+"/"+flusher, func(t *testing.T) {
				w := newWorld(t, server.Config{})
				cl := w.client(t, client.Config{PoolSize: 1})
				objs := w.create(t, []byte("other"), []byte("gone"))
				other, gone := objs[0], objs[1]
				del, err := w.d.Begin()
				if err != nil {
					t.Fatal(err)
				}
				if err := del.Delete(gone); err != nil {
					t.Fatal(err)
				}
				if err := del.Commit(); err != nil {
					t.Fatal(err)
				}

				target := gone
				var holder *db.Txn
				if cause == "lock-timeout" {
					// A second transaction holds the X-lock the queued
					// Update needs past the server's lock timeout.
					if holder, err = w.d.Begin(); err != nil {
						t.Fatal(err)
					}
					if err := holder.Lock(other, lock.Exclusive); err != nil {
						t.Fatal(err)
					}
					target = other
				}
				st0 := w.srv.StatsSnapshot()

				tx, err := cl.Begin()
				if err != nil {
					t.Fatal(err)
				}
				// The first Update succeeds and must be rolled back.
				if err := tx.Update(w.root, []byte("rolled-back")); err != nil {
					t.Fatalf("queued Update: %v", err)
				}
				if err := tx.Update(target, []byte("never")); err != nil {
					t.Fatalf("queued Update: %v", err)
				}
				if flusher == "read" {
					_, err = tx.Read(w.root, false)
				} else {
					err = tx.Commit()
				}
				if !errors.Is(err, client.ErrAborted) {
					t.Fatalf("%s after a failing queued Update: %v, want ErrAborted", flusher, err)
				}
				if want := fmt.Sprintf("queued update of %s", target); !strings.Contains(err.Error(), want) {
					t.Fatalf("error %q does not name the failing op (%q)", err, want)
				}
				if errors.Is(err, client.ErrCommitUnknown) {
					t.Fatalf("a refused commit reported as unknown: %v", err)
				}
				if err := tx.Update(w.root, nil); !errors.Is(err, client.ErrTxnDone) {
					t.Fatalf("Update on the aborted handle: %v, want ErrTxnDone", err)
				}
				if holder != nil {
					holder.Abort()
				}

				if got := w.payload(t, w.root); got != "root" {
					t.Fatalf("root payload = %q after the abort, want %q", got, "root")
				}
				if got := w.payload(t, other); got != "other" {
					t.Fatalf("other payload = %q after the abort, want %q", got, "other")
				}
				st := w.srv.StatsSnapshot()
				if st.Committed != st0.Committed {
					t.Fatalf("server committed %d → %d, want unchanged", st0.Committed, st.Committed)
				}
				w.assertQuiet(t)

				tx2, err := cl.Begin()
				if err != nil {
					t.Fatalf("Begin after the abort: %v", err)
				}
				if err := tx2.Abort(); err != nil {
					t.Fatal(err)
				}
				if got := w.srv.StatsSnapshot().Accepted; got != st0.Accepted {
					t.Fatalf("accepted connections %d → %d: the connection was not pooled", st0.Accepted, got)
				}
			})
		}
	}
}

// TestPipelineAbortDropsQueue: Abort sends only itself; the queued ops
// never reach the server.
func TestPipelineAbortDropsQueue(t *testing.T) {
	w, ln := countingWorld(t)
	cl := w.client(t, client.Config{PoolSize: 1})
	other := w.create(t, []byte("other"))[0]

	tx, err := cl.Begin()
	if err != nil {
		t.Fatal(err)
	}
	before := len(ln.frameSizes())
	if err := tx.Update(w.root, []byte("dropped")); err != nil {
		t.Fatal(err)
	}
	if err := tx.InsertRef(w.root, other); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatalf("Abort: %v", err)
	}
	if got := len(ln.frameSizes()); got != before+1 {
		t.Fatalf("Abort with a queue sent %d frames, want 1", got-before)
	}
	obj, err := w.d.FuzzyRead(w.root)
	if err != nil {
		t.Fatal(err)
	}
	if string(obj.Payload) != "root" || len(obj.Refs) != 0 {
		t.Fatalf("root = %q refs %v after Abort, want unchanged", obj.Payload, obj.Refs)
	}
	w.assertQuiet(t)
}

// TestPipelineCommitConnDrop: the connection dies on the frame that
// carries [Update, Commit], before or after the server executes it.
// Either way the client cannot tell and returns ErrCommitUnknown.
func TestPipelineCommitConnDrop(t *testing.T) {
	for _, c := range []struct {
		name    string
		hit     int // conn-drop hit on the frame: 1 before execution, 2 after
		applied bool
	}{
		{"before-execute", 1, false},
		{"after-execute", 2, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			reg := fault.NewRegistry(1)
			defer fault.Install(reg)()
			w := newWorld(t, server.Config{})
			cl := w.client(t, client.Config{PoolSize: 1})

			tx, err := cl.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tx.Read(w.root, true); err != nil {
				t.Fatal(err)
			}
			if err := tx.Update(w.root, []byte("maybe")); err != nil {
				t.Fatal(err)
			}
			reg.Arm(fault.Trigger{Point: fault.NetConnDrop, Kind: fault.KindError, Hit: reg.Hits(fault.NetConnDrop) + c.hit})
			if err := tx.Commit(); !errors.Is(err, client.ErrCommitUnknown) {
				t.Fatalf("Commit on a dropped [Update, Commit] frame: %v, want ErrCommitUnknown", err)
			}
			want := "root"
			if c.applied {
				want = "maybe"
			}
			w.assertQuiet(t)
			if got := w.payload(t, w.root); got != want {
				t.Fatalf("root payload = %q, want %q", got, want)
			}
		})
	}
}

// TestPipelineFrameBound: Updates queued past wire.MaxFrame go out in
// several frames, each within the cap, and every one applies.
func TestPipelineFrameBound(t *testing.T) {
	w, ln := countingWorld(t)
	cl := w.client(t, client.Config{PoolSize: 1})
	const size = 4000
	n := wire.MaxFrame/size + 20 // enough to need a second frame
	seed := make([][]byte, n)
	for i := range seed {
		seed[i] = bytes.Repeat([]byte{'s'}, size)
	}
	objs := w.create(t, seed...)
	want := func(i int) []byte { return bytes.Repeat([]byte{byte('a' + i%26)}, size) }

	tx, err := cl.Begin()
	if err != nil {
		t.Fatal(err)
	}
	before := len(ln.frameSizes())
	for i, o := range objs {
		if err := tx.Update(o, want(i)); err != nil {
			t.Fatalf("Update %d: %v", i, err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	sizes := ln.frameSizes()[before:]
	if len(sizes) < 2 {
		t.Fatalf("%d Updates of %d bytes went out in %d frame(s), want at least 2", n, size, len(sizes))
	}
	total := 0
	for _, s := range sizes {
		if s > wire.MaxFrame {
			t.Fatalf("frame of %d bytes exceeds MaxFrame %d", s, wire.MaxFrame)
		}
		total += s
	}
	if total <= wire.MaxFrame {
		t.Fatalf("the frames carry %d bytes in all, want more than MaxFrame", total)
	}
	for i, o := range objs {
		if got := w.payload(t, o); got != string(want(i)) {
			t.Fatalf("object %d payload %.8q…, want %.8q…", i, got, want(i))
		}
	}

	// An Update no frame can carry fails at once and ends the
	// transaction; the client stays usable.
	tx, err = cl.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Update(objs[0], make([]byte, wire.MaxFrame)); !errors.Is(err, wire.ErrFrameTooLarge) {
		t.Fatalf("Update past MaxFrame: %v, want ErrFrameTooLarge", err)
	}
	if _, err := tx.Read(objs[0], false); !errors.Is(err, client.ErrTxnDone) {
		t.Fatalf("Read after the oversized Update: %v, want ErrTxnDone", err)
	}
	w.assertQuiet(t)
	tx, err = cl.Begin()
	if err != nil {
		t.Fatalf("Begin after the oversized Update: %v", err)
	}
	tx.Abort()
}

// TestNoGoroutineLeak runs pipelined transactions — commits, aborts with
// a queue, a queued op that fails and one dropped connection — then
// closes every client and the server: the goroutine count must return
// to its baseline and no transaction or lock may remain.
func TestNoGoroutineLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	reg := fault.NewRegistry(1)
	defer fault.Install(reg)()
	w := newWorld(t, server.Config{})
	gone := w.create(t, []byte("gone"))[0]
	del, err := w.d.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := del.Delete(gone); err != nil {
		t.Fatal(err)
	}
	if err := del.Commit(); err != nil {
		t.Fatal(err)
	}

	var clients []*client.Client
	for c := 0; c < 3; c++ {
		cl, err := client.Dial(client.Config{Addr: w.addr, Tenant: "leak", PoolSize: 1, Seed: int64(c + 1)})
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, cl)
		for i := 0; i < 20; i++ {
			tx, err := cl.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tx.Read(w.root, true); err != nil {
				t.Fatal(err)
			}
			if err := tx.Update(w.root, []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
			switch {
			case i%5 == 1:
				if err := tx.Abort(); err != nil {
					t.Fatal(err)
				}
			case i%5 == 2:
				if err := tx.Update(gone, nil); err != nil {
					t.Fatal(err)
				}
				if err := tx.Commit(); !errors.Is(err, client.ErrAborted) {
					t.Fatalf("Commit behind a failing Update: %v, want ErrAborted", err)
				}
			case c == 1 && i == 10:
				reg.Arm(fault.Trigger{Point: fault.NetConnDrop, Kind: fault.KindError, Hit: reg.Hits(fault.NetConnDrop) + 1})
				if err := tx.Commit(); !errors.Is(err, client.ErrCommitUnknown) {
					t.Fatalf("Commit on a dropped connection: %v, want ErrCommitUnknown", err)
				}
			default:
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if reg.Firings() == nil {
		t.Fatal("the connection drop never fired")
	}
	w.assertQuiet(t)

	for _, cl := range clients {
		cl.Close()
	}
	w.srv.Close()
	w.d.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after shutdown, baseline %d:\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
