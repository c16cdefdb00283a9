package server_test

import (
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/db"
	"repro/internal/fault"
	"repro/internal/oid"
	"repro/internal/server"
	"repro/internal/wire"
)

// world is one database + server + client fixture.
type world struct {
	d    *db.Database
	srv  *server.Server
	addr string
	root oid.OID
}

func newWorld(t testing.TB, cfg server.Config) *world {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return newWorldOn(t, cfg, ln)
}

// newWorldOn is newWorld serving on a caller-supplied listener.
func newWorldOn(t testing.TB, cfg server.Config, ln net.Listener) *world {
	t.Helper()
	dcfg := db.DefaultConfig()
	dcfg.FlushLatency = 0
	dcfg.LockTimeout = 250 * time.Millisecond
	d := db.Open(dcfg)
	t.Cleanup(func() { d.Close() })
	if err := d.CreatePartition(1); err != nil {
		t.Fatal(err)
	}
	tx, err := d.Begin()
	if err != nil {
		t.Fatal(err)
	}
	root, err := tx.Create(1, []byte("root"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	cfg.DB = d
	if cfg.Catalog == nil {
		cfg.Catalog = func(name string) []oid.OID {
			if name == "root" {
				return []oid.OID{root}
			}
			return nil
		}
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(srv.Close)
	return &world{d: d, srv: srv, addr: ln.Addr().String(), root: root}
}

func (w *world) client(t testing.TB, cfg client.Config) *client.Client {
	t.Helper()
	cfg.Addr = w.addr
	if cfg.Tenant == "" {
		cfg.Tenant = "test"
	}
	cl, err := client.Dial(cfg)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(cl.Close)
	return cl
}

func TestEndToEndOps(t *testing.T) {
	w := newWorld(t, server.Config{})
	cl := w.client(t, client.Config{})

	if err := cl.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	roots, err := cl.Roots("root")
	if err != nil {
		t.Fatalf("Roots: %v", err)
	}
	if len(roots) != 1 || roots[0] != w.root {
		t.Fatalf("Roots = %v, want [%v]", roots, w.root)
	}

	tx, err := cl.Begin()
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	a, err := tx.Create(1, []byte("alpha"), nil)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	b, err := tx.Create(1, []byte("beta"), nil)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := tx.InsertRef(w.root, a); err != nil {
		t.Fatalf("InsertRef: %v", err)
	}
	if err := tx.RetargetRef(w.root, a, b); err != nil {
		t.Fatalf("RetargetRef: %v", err)
	}
	if err := tx.Update(b, []byte("beta2")); err != nil {
		t.Fatalf("Update: %v", err)
	}
	obj, err := tx.Read(w.root, false)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if len(obj.Refs) != 1 || obj.Refs[0] != b {
		t.Fatalf("root refs = %v, want [%v]", obj.Refs, b)
	}
	if err := tx.DeleteRef(w.root, b); err != nil {
		t.Fatalf("DeleteRef: %v", err)
	}
	if err := tx.Delete(a); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}

	// A fresh transaction sees the committed state.
	tx2, err := cl.Begin()
	if err != nil {
		t.Fatalf("Begin 2: %v", err)
	}
	got, err := tx2.Read(b, true)
	if err != nil {
		t.Fatalf("Read b: %v", err)
	}
	if string(got.Payload) != "beta2" {
		t.Fatalf("b payload = %q, want beta2", got.Payload)
	}
	if _, err := tx2.Read(a, false); !errors.Is(err, client.ErrAborted) {
		t.Fatalf("Read deleted object: %v, want ErrAborted", err)
	}

	st := w.srv.StatsSnapshot()
	if st.Committed != 1 || st.Aborted != 1 {
		t.Fatalf("stats committed=%d aborted=%d, want 1/1", st.Committed, st.Aborted)
	}
}

func TestBatchPipelining(t *testing.T) {
	w := newWorld(t, server.Config{})
	cl := w.client(t, client.Config{})

	tx, err := cl.Begin()
	if err != nil {
		t.Fatal(err)
	}
	subs, err := tx.Batch([]wire.Request{
		{Op: wire.OpRead, OID: w.root},
		{Op: wire.OpUpdate, OID: w.root, Payload: []byte("root2")},
		{Op: wire.OpRead, OID: w.root},
	})
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	if len(subs) != 3 {
		t.Fatalf("batch returned %d subs, want 3", len(subs))
	}
	if string(subs[2].Payload) != "root2" {
		t.Fatalf("batched read after update = %q, want root2", subs[2].Payload)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// A failing op aborts the batch: later subs are not executed and the
	// transaction is gone.
	tx2, err := cl.Begin()
	if err != nil {
		t.Fatal(err)
	}
	missing := oid.New(1, 9999, 0)
	subs, err = tx2.Batch([]wire.Request{
		{Op: wire.OpRead, OID: w.root},
		{Op: wire.OpRead, OID: missing},
		{Op: wire.OpUpdate, OID: w.root, Payload: []byte("never")},
	})
	if !errors.Is(err, client.ErrAborted) {
		t.Fatalf("failing batch: %v, want ErrAborted", err)
	}
	if len(subs) != 3 {
		t.Fatalf("failing batch returned %d subs, want 3", len(subs))
	}
	if subs[0].Status != wire.StatusOK || subs[1].Status == wire.StatusOK {
		t.Fatalf("sub statuses = %v/%v, want OK/non-OK", subs[0].Status, subs[1].Status)
	}
	if !strings.Contains(subs[2].Msg, "not executed") {
		t.Fatalf("sub 3 after failure: %q, want not-executed marker", subs[2].Msg)
	}
}

func TestDeadlineExpiry(t *testing.T) {
	w := newWorld(t, server.Config{
		PerOpWork: func() { time.Sleep(25 * time.Millisecond) },
	})
	cl := w.client(t, client.Config{RequestTimeout: 10 * time.Millisecond})

	tx, err := cl.Begin()
	if err != nil {
		t.Fatal(err)
	}
	// The first read succeeds but burns past the 10ms budget; the second
	// finds the deadline expired, aborting the transaction server-side.
	subs, err := tx.Batch([]wire.Request{
		{Op: wire.OpRead, OID: w.root},
		{Op: wire.OpRead, OID: w.root},
	})
	if !errors.Is(err, client.ErrAborted) {
		t.Fatalf("deadline batch: %v, want ErrAborted", err)
	}
	if len(subs) != 2 || subs[1].Status != wire.StatusDeadline {
		t.Fatalf("subs = %+v, want second StatusDeadline", subs)
	}
	if st := w.srv.StatsSnapshot(); st.Deadlines == 0 {
		t.Fatalf("deadline counter = 0, want > 0")
	}
	if ids := w.d.ActiveTxnIDs(); len(ids) != 0 {
		t.Fatalf("leaked transactions after deadline abort: %v", ids)
	}
}

func TestAdmissionShed(t *testing.T) {
	w := newWorld(t, server.Config{AdmitRate: 5, AdmitBurst: 1})
	cl := w.client(t, client.Config{Tenant: "gold"})

	tx, err := cl.Begin()
	if err != nil {
		t.Fatalf("first Begin: %v", err)
	}
	_, err = cl.Begin()
	var shed *client.ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("second Begin: %v, want ShedError", err)
	}
	if shed.After <= 0 {
		t.Fatalf("shed hint = %v, want > 0", shed.After)
	}
	if !errors.Is(err, client.ErrShed) {
		t.Fatalf("ShedError should match ErrShed")
	}
	if cl.Sheds() == 0 {
		t.Fatal("client shed counter = 0")
	}
	st := w.srv.StatsSnapshot()
	if st.ShedTxns == 0 {
		t.Fatal("server shed_txns = 0")
	}
	ten := st.Tenants["gold"]
	if ten.Admitted == 0 || ten.Denied == 0 {
		t.Fatalf("tenant stats = %+v, want admitted and denied > 0", ten)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
}

func TestActiveTxnCap(t *testing.T) {
	w := newWorld(t, server.Config{MaxActiveTxns: 1})
	cl := w.client(t, client.Config{})

	tx, err := cl.Begin()
	if err != nil {
		t.Fatal(err)
	}
	_, err = cl.Begin()
	var shed *client.ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("Begin over cap: %v, want ShedError", err)
	}
	if !strings.Contains(shed.Msg, "active-transaction cap") {
		t.Fatalf("shed msg = %q", shed.Msg)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	// Capacity freed: admission succeeds again.
	tx2, err := cl.BeginRetry()
	if err != nil {
		t.Fatalf("Begin after release: %v", err)
	}
	tx2.Abort()
}

func TestAcceptQueueShed(t *testing.T) {
	w := newWorld(t, server.Config{MaxConns: 1, AcceptQueue: 1})

	// Connection 1 holds the only serving slot.
	cl1 := w.client(t, client.Config{PoolSize: 1})
	if err := cl1.Ping(); err != nil {
		t.Fatal(err)
	}
	// Connection 2 sits in the accept queue waiting for the slot.
	c2, err := net.Dial("tcp", w.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := wire.WriteFrame(c2, wire.EncodeHello(wire.Hello{Magic: wire.Magic, Version: wire.Version})); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)

	// Connection 3 overflows the queue and is shed at the handshake.
	_, err = client.Dial(client.Config{Addr: w.addr, Tenant: "late"})
	var shed *client.ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("overflow dial: %v, want ShedError", err)
	}
	if st := w.srv.StatsSnapshot(); st.ShedConns == 0 {
		t.Fatal("shed_conns = 0, want > 0")
	}
}

func TestHandshakeRejectsBadVersion(t *testing.T) {
	w := newWorld(t, server.Config{})
	c, err := net.Dial("tcp", w.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := wire.WriteFrame(c, wire.EncodeHello(wire.Hello{Magic: wire.Magic, Version: wire.Version + 3})); err != nil {
		t.Fatal(err)
	}
	frame, err := wire.ReadFrame(c)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := wire.DecodeWelcome(frame)
	if err != nil {
		t.Fatal(err)
	}
	if wl.Status != wire.StatusErr {
		t.Fatalf("welcome = %+v, want StatusErr", wl)
	}
}

func TestDrain(t *testing.T) {
	var fleetStops atomic.Int32
	w := newWorld(t, server.Config{FleetStop: func() { fleetStops.Add(1) }})
	cl1 := w.client(t, client.Config{})
	cl2 := w.client(t, client.Config{})

	tx, err := cl1.Begin()
	if err != nil {
		t.Fatal(err)
	}
	drainErr := make(chan error, 1)
	go func() { drainErr <- w.srv.Drain() }()
	// Drain is waiting on the open transaction; new work is rejected.
	deadline := time.Now().Add(time.Second)
	for !w.srv.StatsSnapshot().Draining {
		if time.Now().After(deadline) {
			t.Fatal("server never entered draining state")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := cl2.Begin(); !errors.Is(err, client.ErrDraining) {
		t.Fatalf("Begin during drain: %v, want ErrDraining", err)
	}
	// The in-flight transaction finishes; drain completes cleanly.
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit during drain: %v", err)
	}
	if err := <-drainErr; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if n := fleetStops.Load(); n != 1 {
		t.Fatalf("FleetStop called %d times, want 1", n)
	}
	if ids := w.d.ActiveTxnIDs(); len(ids) != 0 {
		t.Fatalf("transactions leaked past drain: %v", ids)
	}
}

// TestOrphanedConnectionsReleaseLocks is the socket-chaos race cell: at
// MPL 8, connections are dropped mid-request (including mid-commit) by
// the net/conn-drop fault, and the server must abort every orphaned
// transaction — no leaked transactions, no leaked locks.
func TestOrphanedConnectionsReleaseLocks(t *testing.T) {
	reg := fault.NewRegistry(42)
	reg.Arm(fault.Trigger{Point: fault.NetConnDrop, Kind: fault.KindError, Prob: 0.05, Times: fault.Forever})
	restore := fault.Install(reg)
	defer restore()

	w := newWorld(t, server.Config{})

	const mpl = 8
	const txnsPerWorker = 40
	var wg sync.WaitGroup
	var commits, connDeaths atomic.Uint64
	for i := 0; i < mpl; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			cl, err := client.Dial(client.Config{
				Addr: w.addr, Tenant: "chaos", Seed: seed,
				RequestTimeout: 2 * time.Second,
			})
			if err != nil {
				// The dial itself can be killed by conn-drop during the
				// first ping; count and move on.
				connDeaths.Add(1)
				return
			}
			defer cl.Close()
			for n := 0; n < txnsPerWorker; n++ {
				tx, err := cl.BeginRetry()
				if err != nil {
					connDeaths.Add(1)
					continue
				}
				if _, err := tx.Read(w.root, true); err != nil {
					connDeaths.Add(1)
					continue
				}
				if err := tx.Update(w.root, []byte{byte(n)}); err != nil {
					connDeaths.Add(1)
					continue
				}
				switch err := tx.Commit(); {
				case err == nil:
					commits.Add(1)
				case errors.Is(err, client.ErrCommitUnknown):
					connDeaths.Add(1) // ack lost; commit may have applied
				default:
					connDeaths.Add(1)
				}
			}
		}(int64(i) + 1)
	}
	wg.Wait()

	if commits.Load() == 0 {
		t.Fatal("no transaction ever committed under chaos")
	}
	if connDeaths.Load() == 0 {
		t.Fatal("fault injection never fired — cell is not testing anything")
	}

	// Every orphaned transaction must be aborted promptly; poll because
	// handler defers run asynchronously after the socket dies.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if len(w.d.ActiveTxnIDs()) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("leaked transactions: %v", w.d.ActiveTxnIDs())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if ids := w.d.Locks().ActiveTxns(); len(ids) != 0 {
		t.Fatalf("lock manager still tracks transactions: %v", ids)
	}
	st := w.srv.StatsSnapshot()
	if st.Orphans == 0 {
		t.Fatal("orphan abort counter = 0, want > 0")
	}
	if st.ActiveTxns != 0 {
		t.Fatalf("server active_txns = %d, want 0", st.ActiveTxns)
	}

	// The database is still fully usable after the chaos.
	restore()
	cl := w.client(t, client.Config{})
	tx, err := cl.BeginRetry()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Read(w.root, false); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}
