// Package server exposes a Database over the wire protocol: one
// goroutine per connection drives the connection's db.Txn (satisfying
// the one-goroutine-per-transaction rule by construction), with
// admission control in three layers —
//
//  1. a max-connection cap plus a bounded accept queue: connections
//     beyond the cap wait in a bounded queue for a slot, and arrivals
//     beyond the queue are shed at the handshake with RETRY_AFTER
//     rather than queuing unboundedly;
//  2. per-tenant weighted fair queuing via token buckets, charged when
//     a transaction begins (see admission.go);
//  3. a hard cap on concurrently open transactions, the backstop that
//     bounds lock-table pressure no matter what the buckets admit.
//
// Every request carries a server-side deadline (its own DeadlineMs or
// the server default); an expired deadline aborts the open transaction
// so its locks never outlive the client's patience. A connection that
// dies mid-transaction — socket error, injected fault, idle timeout —
// has its transaction aborted by the handler's defer, so orphaned
// transactions release their locks immediately instead of waiting for
// a lock-timeout cascade.
//
// Graceful drain stops accepting, rejects new transactions with
// StatusDraining, asks the reorg fleet to stop (Config.FleetStop),
// waits for in-flight transactions up to DrainTimeout, then force
// closes whatever remains. The fault points net/accept, net/read,
// net/write, net/conn-drop and net/stall thread the socket path so the
// chaos harness can kill connections at every stage.
package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/db"
	"repro/internal/fault"
	"repro/internal/lock"
	"repro/internal/object"
	"repro/internal/obs"
	"repro/internal/oid"
	"repro/internal/wire"
)

var (
	fpAccept   = fault.Point(fault.NetAccept)
	fpRead     = fault.Point(fault.NetRead)
	fpWrite    = fault.Point(fault.NetWrite)
	fpConnDrop = fault.Point(fault.NetConnDrop)
	fpStall    = fault.Point(fault.NetStall)
)

// Config configures a Server.
type Config struct {
	// DB is the database served. Required.
	DB *db.Database
	// Catalog resolves a named root set for OpRoots requests (e.g.
	// "roots/3" → the persistent roots of partition 3). Nil serves an
	// empty catalog.
	Catalog func(name string) []oid.OID
	// MaxConns caps concurrently served connections (default 64).
	MaxConns int
	// AcceptQueue bounds how many accepted connections may wait for a
	// serving slot (default 16). Arrivals beyond it are shed at the
	// handshake with RETRY_AFTER.
	AcceptQueue int
	// AdmitRate is the aggregate transaction admission rate per second
	// shared by the tenants' token buckets; <= 0 disables rate-based
	// shedding (the connection and active-txn caps still apply).
	AdmitRate float64
	// AdmitBurst is the aggregate bucket depth in transactions
	// (default AdmitRate/10, at least 1).
	AdmitBurst float64
	// TenantWeights sets per-tenant fair-queuing weights; tenants not
	// listed get weight 1 on first sight.
	TenantWeights map[string]float64
	// MaxActiveTxns caps concurrently open transactions (default
	// 4 × MaxConns).
	MaxActiveTxns int
	// DefaultDeadline is the server-side budget for requests that carry
	// no DeadlineMs (default 5s).
	DefaultDeadline time.Duration
	// IdleTimeout closes a connection that sends nothing for this long
	// (default 60s); an open transaction is aborted, so an abandoned
	// client cannot hold locks forever.
	IdleTimeout time.Duration
	// DrainTimeout is how long Drain waits for in-flight transactions
	// before force-closing their connections (default 5s).
	DrainTimeout time.Duration
	// PerOpWork, if set, is charged on every executed object operation —
	// the fidelity-mode hook for the simulated-CPU burn, so a served
	// workload costs what the in-process driver's would.
	PerOpWork func()
	// FleetStop, if set, is invoked exactly once when a drain starts,
	// before waiting for in-flight transactions. Wire the reorg fleet's
	// Stop here so shutdown and reorganization quiesce together.
	FleetStop func()
}

func (c *Config) defaults() {
	if c.MaxConns <= 0 {
		c.MaxConns = 64
	}
	if c.AcceptQueue <= 0 {
		c.AcceptQueue = 16
	}
	if c.MaxActiveTxns <= 0 {
		c.MaxActiveTxns = 4 * c.MaxConns
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 5 * time.Second
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 60 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Second
	}
}

// Server serves one database over a listener.
type Server struct {
	cfg   Config
	admit *admission
	slots chan struct{} // serving-slot semaphore, capacity MaxConns

	queued     atomic.Int64 // connections waiting for a slot
	liveConns  atomic.Int64
	activeTxns atomic.Int64

	accepted     atomic.Uint64
	shedConns    atomic.Uint64
	shedTxns     atomic.Uint64
	committed    atomic.Uint64
	aborted      atomic.Uint64
	orphans      atomic.Uint64
	deadlines    atomic.Uint64
	badRequests  atomic.Uint64
	acceptFaults atomic.Uint64

	mu        sync.Mutex
	ln        net.Listener
	conns     map[net.Conn]struct{}
	draining  bool
	drained   bool
	stopFleet sync.Once

	wg sync.WaitGroup
}

// New builds a Server; Serve (or Start) makes it live.
func New(cfg Config) (*Server, error) {
	if cfg.DB == nil {
		return nil, errors.New("server: Config.DB is required")
	}
	cfg.defaults()
	return &Server{
		cfg:   cfg,
		admit: newAdmission(cfg.AdmitRate, cfg.AdmitBurst, cfg.TenantWeights),
		slots: make(chan struct{}, cfg.MaxConns),
		conns: make(map[net.Conn]struct{}),
	}, nil
}

// Start listens on addr (e.g. "127.0.0.1:0"), serves in a background
// goroutine, and returns the server plus its bound address.
func Start(cfg Config, addr string) (*Server, net.Addr, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	go s.Serve(ln)
	return s, ln.Addr(), nil
}

// Serve accepts connections until the listener closes (Drain/Close do
// that). It returns after every connection handler has exited.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		l.Close()
		return errors.New("server: already drained")
	}
	s.ln = l
	s.mu.Unlock()
	obs.RegisterServerStats(func() any { return s.StatsSnapshot() })

	for {
		c, err := l.Accept()
		if err != nil {
			break // listener closed (drain) or fatal
		}
		s.accepted.Add(1)
		if ferr := fpAccept.Maybe(); ferr != nil {
			// Injected accept failure: the connection dies before any
			// protocol exchange, as if the accept queue overflowed in
			// the kernel.
			s.acceptFaults.Add(1)
			c.Close()
			continue
		}
		if s.queued.Load() >= int64(s.cfg.AcceptQueue) {
			// Accept queue full: shed at the door instead of queuing
			// unboundedly. The handshake still answers, so the client
			// learns the backoff hint instead of guessing from a RST.
			s.shedConns.Add(1)
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.rejectConn(c, wire.Welcome{
					Status: wire.StatusRetryAfter, Version: wire.Version,
					RetryAfterMs: 20, Msg: "accept queue full",
				})
			}()
			continue
		}
		s.queued.Add(1)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(c)
		}()
	}
	s.wg.Wait()
	return nil
}

// rejectConn reads the Hello (briefly) and answers with a rejection.
func (s *Server) rejectConn(c net.Conn, w wire.Welcome) {
	defer c.Close()
	c.SetDeadline(time.Now().Add(time.Second))
	if _, err := wire.ReadFrame(c); err != nil {
		return
	}
	wire.WriteFrame(c, wire.EncodeWelcome(w))
}

// session is the per-connection protocol state.
type session struct {
	tenant string
	tx     *db.Txn
}

// abortTxn aborts the session's open transaction, if any, releasing
// its locks; orphan marks it as an orphaned-connection cleanup.
func (s *Server) abortTxn(st *session, orphan bool) {
	if st.tx == nil {
		return
	}
	st.tx.Abort()
	st.tx = nil
	s.activeTxns.Add(-1)
	s.aborted.Add(1)
	if orphan {
		s.orphans.Add(1)
	}
}

func (s *Server) serveConn(c net.Conn) {
	// Waiting for a serving slot is the bounded accept queue; a drain
	// wakes the wait so queued connections never block shutdown.
	got := false
	for !got {
		select {
		case s.slots <- struct{}{}:
			got = true
		case <-time.After(50 * time.Millisecond):
			if s.isDraining() {
				s.queued.Add(-1)
				s.rejectConn(c, wire.Welcome{Status: wire.StatusDraining, Version: wire.Version, Msg: "draining"})
				return
			}
		}
	}
	s.queued.Add(-1)
	defer func() { <-s.slots }()

	s.mu.Lock()
	if s.drained {
		s.mu.Unlock()
		c.Close()
		return
	}
	s.conns[c] = struct{}{}
	s.mu.Unlock()
	s.liveConns.Add(1)
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		s.liveConns.Add(-1)
		c.Close()
	}()

	st := &session{}
	// The connection is gone (or dying): whatever transaction it left
	// open is an orphan — abort it now so its locks are released
	// immediately rather than stalling other transactions into
	// deadlock-timeout aborts.
	defer s.abortTxn(st, true)

	// One buffered reader per connection, shared by the handshake and
	// the request loop: a frame costs at most one read(2), and bytes the
	// client sent ahead (pipelined frames) stay in the buffer for the
	// next ReadFrame instead of being lost between the two phases.
	br := bufio.NewReader(c)
	if !s.handshake(c, br, st) {
		return
	}
	for {
		c.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		if err := fpStall.Maybe(); err != nil {
			return
		}
		if err := fpRead.Maybe(); err != nil {
			return
		}
		frame, err := wire.ReadFrame(br)
		if err != nil {
			return
		}
		arrival := time.Now()
		req, err := wire.DecodeRequest(frame)
		if err != nil {
			// Protocol desync: the stream is unusable, kill the
			// connection (the deferred abort cleans up).
			s.badRequests.Add(1)
			return
		}
		// conn-drop is evaluated twice per request: here, where the
		// request dies before execution, and again after execution but
		// before the response — the "commit applied, ack lost" case the
		// chaos cell needs.
		if err := fpConnDrop.Maybe(); err != nil {
			return
		}
		resp := s.dispatch(st, req, arrival)
		if err := fpConnDrop.Maybe(); err != nil {
			return
		}
		payload, err := wire.EncodeResponse(resp)
		if err != nil {
			return
		}
		if err := fpStall.Maybe(); err != nil {
			return
		}
		if err := fpWrite.Maybe(); err != nil {
			return
		}
		c.SetWriteDeadline(time.Now().Add(s.cfg.IdleTimeout))
		if err := wire.WriteFrame(c, payload); err != nil {
			return
		}
	}
}

// handshake reads the Hello and answers the Welcome. False means the
// connection was rejected (or died) and must be closed.
func (s *Server) handshake(c net.Conn, br *bufio.Reader, st *session) bool {
	c.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
	frame, err := wire.ReadFrame(br)
	if err != nil {
		return false
	}
	hello, err := wire.DecodeHello(frame)
	if err != nil {
		s.badRequests.Add(1)
		wire.WriteFrame(c, wire.EncodeWelcome(wire.Welcome{
			Status: wire.StatusErr, Version: wire.Version, Msg: err.Error(),
		}))
		return false
	}
	if s.isDraining() {
		wire.WriteFrame(c, wire.EncodeWelcome(wire.Welcome{
			Status: wire.StatusDraining, Version: wire.Version, Msg: "draining",
		}))
		return false
	}
	st.tenant = hello.Tenant
	return wire.WriteFrame(c, wire.EncodeWelcome(wire.Welcome{
		Status: wire.StatusOK, Version: wire.Version,
	})) == nil
}

// deadlineFor computes the request's absolute server-side deadline.
func (s *Server) deadlineFor(req wire.Request, arrival time.Time) time.Time {
	d := s.cfg.DefaultDeadline
	if req.DeadlineMs > 0 {
		d = time.Duration(req.DeadlineMs) * time.Millisecond
	}
	return arrival.Add(d)
}

// dispatch executes one request and builds its response.
func (s *Server) dispatch(st *session, req wire.Request, arrival time.Time) wire.Response {
	deadline := s.deadlineFor(req, arrival)
	if req.Op == wire.OpBatch {
		resp := wire.Response{ID: req.ID, Status: wire.StatusOK, Sub: make([]wire.Response, len(req.Sub))}
		failed := false
		for i, sub := range req.Sub {
			if failed {
				resp.Sub[i] = wire.Response{ID: sub.ID, Status: wire.StatusErr, Msg: "not executed: earlier op in batch failed"}
				continue
			}
			resp.Sub[i] = s.execute(st, sub, deadline)
			if resp.Sub[i].Status != wire.StatusOK {
				failed = true
				resp.Status = resp.Sub[i].Status
				resp.RetryAfterMs = resp.Sub[i].RetryAfterMs
				resp.Msg = fmt.Sprintf("batch op %d (%s): %s", i, sub.Op, resp.Sub[i].Msg)
			}
		}
		return resp
	}
	return s.execute(st, req, deadline)
}

func errResponse(id uint64, status wire.Status, msg string) wire.Response {
	return wire.Response{ID: id, Status: status, Msg: msg}
}

// execute runs one non-batch op against the session's transaction.
// Failed ops abort the open transaction (releasing locks at once); the
// client resubmits the whole transaction, exactly like the in-process
// driver's lock-timeout resubmission.
func (s *Server) execute(st *session, req wire.Request, deadline time.Time) wire.Response {
	if !time.Now().Before(deadline) {
		s.deadlines.Add(1)
		s.abortTxn(st, false)
		return errResponse(req.ID, wire.StatusDeadline, "server-side deadline expired")
	}
	switch req.Op {
	case wire.OpPing:
		return wire.Response{ID: req.ID, Status: wire.StatusOK}

	case wire.OpRoots:
		var roots []oid.OID
		if s.cfg.Catalog != nil {
			roots = s.cfg.Catalog(req.Name)
		}
		if roots == nil {
			return errResponse(req.ID, wire.StatusBadRequest, fmt.Sprintf("unknown catalog entry %q", req.Name))
		}
		return wire.Response{ID: req.ID, Status: wire.StatusOK, Refs: roots}

	case wire.OpBegin:
		if st.tx != nil {
			s.badRequests.Add(1)
			return errResponse(req.ID, wire.StatusBadRequest, "transaction already open on this connection")
		}
		if s.isDraining() {
			return errResponse(req.ID, wire.StatusDraining, "draining: no new transactions")
		}
		if s.activeTxns.Load() >= int64(s.cfg.MaxActiveTxns) {
			s.shedTxns.Add(1)
			return wire.Response{ID: req.ID, Status: wire.StatusRetryAfter, RetryAfterMs: 10, Msg: "active-transaction cap"}
		}
		if ok, after := s.admit.admit(st.tenant); !ok {
			s.shedTxns.Add(1)
			ms := uint32(after / time.Millisecond)
			if ms == 0 {
				ms = 1
			}
			return wire.Response{ID: req.ID, Status: wire.StatusRetryAfter, RetryAfterMs: ms, Msg: "tenant admission rate"}
		}
		tx, err := s.cfg.DB.Begin()
		if err != nil {
			return errResponse(req.ID, wire.StatusErr, err.Error())
		}
		st.tx = tx
		s.activeTxns.Add(1)
		return wire.Response{ID: req.ID, Status: wire.StatusOK}

	case wire.OpCommit:
		if st.tx == nil {
			s.badRequests.Add(1)
			return errResponse(req.ID, wire.StatusBadRequest, "no open transaction")
		}
		err := st.tx.Commit()
		st.tx = nil
		s.activeTxns.Add(-1)
		if err != nil {
			s.aborted.Add(1)
			return errResponse(req.ID, wire.StatusErr, err.Error())
		}
		s.committed.Add(1)
		return wire.Response{ID: req.ID, Status: wire.StatusOK}

	case wire.OpAbort:
		if st.tx == nil {
			return wire.Response{ID: req.ID, Status: wire.StatusOK} // idempotent
		}
		s.abortTxn(st, false)
		return wire.Response{ID: req.ID, Status: wire.StatusOK}
	}

	// Object ops below all require an open transaction.
	if st.tx == nil {
		s.badRequests.Add(1)
		return errResponse(req.ID, wire.StatusBadRequest, fmt.Sprintf("%s without an open transaction", req.Op))
	}
	resp := wire.Response{ID: req.ID, Status: wire.StatusOK}
	var err error
	switch req.Op {
	case wire.OpRead:
		mode := lock.Shared
		if req.Mode != 0 {
			mode = lock.Exclusive
		}
		if err = st.tx.Lock(req.OID, mode); err == nil {
			var obj object.Object
			if obj, err = st.tx.Read(req.OID); err == nil {
				resp.Payload, resp.Refs = obj.Payload, obj.Refs
			}
		}
	case wire.OpCreate:
		var o oid.OID
		if req.Mode != 0 {
			o, err = st.tx.CreateDense(req.Part, req.Payload, req.Refs)
		} else {
			o, err = st.tx.Create(req.Part, req.Payload, req.Refs)
		}
		resp.OID = o
	case wire.OpUpdate:
		err = st.tx.UpdatePayload(req.OID, req.Payload)
	case wire.OpInsertRef:
		err = st.tx.InsertRef(req.OID, req.OID2)
	case wire.OpDeleteRef:
		err = st.tx.DeleteRef(req.OID, req.OID2)
	case wire.OpRetargetRef:
		err = st.tx.RetargetRef(req.OID, req.OID2, req.OID3)
	case wire.OpDelete:
		err = st.tx.Delete(req.OID)
	default:
		s.badRequests.Add(1)
		return errResponse(req.ID, wire.StatusBadRequest, fmt.Sprintf("unhandled op %s", req.Op))
	}
	if err != nil {
		// Any op failure aborts the transaction: its locks are released
		// now, and the client restarts the transaction from Begin.
		s.abortTxn(st, false)
		return errResponse(req.ID, wire.StatusErr, err.Error())
	}
	if s.cfg.PerOpWork != nil {
		s.cfg.PerOpWork()
	}
	return resp
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain shuts the server down gracefully: stop accepting, reject new
// transactions, stop the reorg fleet (Config.FleetStop), wait up to
// DrainTimeout for in-flight transactions to finish, then force close
// the stragglers (their transactions are aborted by the handlers'
// deferred cleanup). It returns nil when every in-flight transaction
// finished within the grace period.
func (s *Server) Drain() error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	ln := s.ln
	s.mu.Unlock()
	if !already && ln != nil {
		ln.Close()
	}
	s.stopFleet.Do(func() {
		if s.cfg.FleetStop != nil {
			s.cfg.FleetStop()
		}
	})

	deadline := time.Now().Add(s.cfg.DrainTimeout)
	for time.Now().Before(deadline) {
		if s.activeTxns.Load() == 0 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	forced := s.activeTxns.Load()

	s.mu.Lock()
	s.drained = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	if forced > 0 {
		return fmt.Errorf("server: drain timeout: force-aborted %d in-flight transaction(s)", forced)
	}
	return nil
}

// Close force-closes everything immediately (a Drain with no grace).
func (s *Server) Close() {
	s.mu.Lock()
	s.draining = true
	s.drained = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
}

// StatsSnapshot is the JSON-marshalable server state published on the
// "server" expvar and stamped into netload reports.
type StatsSnapshot struct {
	LiveConns   int64  `json:"live_conns"`
	QueuedConns int64  `json:"queued_conns"`
	ActiveTxns  int64  `json:"active_txns"`
	Accepted    uint64 `json:"accepted_conns"`
	ShedConns   uint64 `json:"shed_conns"`
	ShedTxns    uint64 `json:"shed_txns"`
	Committed   uint64 `json:"committed_txns"`
	Aborted     uint64 `json:"aborted_txns"`
	// Orphans counts transactions aborted because their connection died
	// (dropped socket, idle timeout, injected fault) — the cleanup path
	// the chaos cell exercises.
	Orphans      uint64                 `json:"orphaned_txns_aborted"`
	Deadlines    uint64                 `json:"deadline_expirations"`
	BadRequests  uint64                 `json:"bad_requests"`
	AcceptFaults uint64                 `json:"accept_faults"`
	Draining     bool                   `json:"draining"`
	Tenants      map[string]TenantStats `json:"tenants"`
}

// StatsSnapshot returns the current counters.
func (s *Server) StatsSnapshot() StatsSnapshot {
	return StatsSnapshot{
		LiveConns:    s.liveConns.Load(),
		QueuedConns:  s.queued.Load(),
		ActiveTxns:   s.activeTxns.Load(),
		Accepted:     s.accepted.Load(),
		ShedConns:    s.shedConns.Load(),
		ShedTxns:     s.shedTxns.Load(),
		Committed:    s.committed.Load(),
		Aborted:      s.aborted.Load(),
		Orphans:      s.orphans.Load(),
		Deadlines:    s.deadlines.Load(),
		BadRequests:  s.badRequests.Load(),
		AcceptFaults: s.acceptFaults.Load(),
		Draining:     s.isDraining(),
		Tenants:      s.admit.stats(),
	}
}
