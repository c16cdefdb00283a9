// Package client is the wire-protocol client: a connection pool over
// one server address, stateless request retry with exponential backoff
// plus seeded jitter, deadline propagation, and a transaction handle
// that pins one pooled connection for its lifetime (the server drives
// one db.Txn per connection, so a transaction and a connection are
// one-to-one while it is open).
//
// Retry discipline. Only stateless requests (Ping, Roots, Begin) are
// retried automatically: they execute no transactional work, so a
// duplicate is harmless, and the request ID is reused across attempts
// so both sides can attribute the retries. Transactional ops are NOT
// retried — a connection failure mid-transaction loses the server-side
// transaction (the server aborts it as an orphan), and the caller
// resubmits the whole transaction exactly like the in-process driver
// resubmits on a lock-timeout abort. A commit whose response was lost
// returns ErrCommitUnknown: the commit may or may not have applied, and
// only an application-level read can tell.
//
// Write-behind. Update, InsertRef, DeleteRef, RetargetRef and Delete
// are answered only "ok", so they do no I/O: each takes its request ID,
// joins the transaction's queue and returns nil at once. The next call
// that needs an answer — Read, Create, Batch or Commit — sends the queue
// followed by itself as one OpBatch frame. The server runs the entries
// in submission order (so a transaction reads its own writes) and stops
// at the first failure. A queued op that fails is reported by that
// flushing call as ErrAborted, with a message naming the op: the server
// has aborted the transaction and answered the flushing op "not
// executed", and the connection, still in protocol sync, goes back to
// the pool. Commit sends [queued…, Commit], so a connection lost on that
// frame still returns ErrCommitUnknown. Abort drops the queue unsent, as
// does a connection failure. When the next op would take the batch past
// wire.MaxFrame, the queue is first sent alone, and its failure is raised
// by the call that triggered the send; an op no frame can carry fails at
// once and ends the transaction. Begin stays synchronous.
//
// RETRY_AFTER handling. A shed response (or handshake) carries the
// server's backoff hint; the retry sleeps hint plus jitter. Begin does
// not sleep — it surfaces *ShedError so load drivers can count sheds
// and restart their latency clock, which is what keeps the measured
// p99 covering admitted requests.
package client

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/object"
	"repro/internal/oid"
	"repro/internal/wire"
)

// Client errors.
var (
	// ErrShed reports a request shed by admission control; errors.Is
	// matches it against *ShedError.
	ErrShed = errors.New("client: shed by server (retry after)")
	// ErrDraining reports a server refusing new work for shutdown.
	ErrDraining = errors.New("client: server draining")
	// ErrRejected reports a handshake rejection (version mismatch etc.).
	ErrRejected = errors.New("client: handshake rejected")
	// ErrAborted reports a transaction aborted server-side (lock
	// timeout, deadline, op failure); resubmit the transaction.
	ErrAborted = errors.New("client: transaction aborted by server")
	// ErrCommitUnknown reports a commit whose outcome was lost with the
	// connection: it may or may not have applied.
	ErrCommitUnknown = errors.New("client: commit outcome unknown (connection lost)")
	// ErrTxnDone reports use of a finished transaction handle.
	ErrTxnDone = errors.New("client: transaction already finished")
	// ErrClosed reports use of a closed client.
	ErrClosed = errors.New("client: closed")
)

// ShedError carries the server's RETRY_AFTER hint.
type ShedError struct {
	After time.Duration
	Msg   string
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("client: shed by server: %s (retry after %s)", e.Msg, e.After)
}

func (e *ShedError) Unwrap() error { return ErrShed }

// Config configures a Client.
type Config struct {
	// Addr is the server address ("host:port"). Required.
	Addr string
	// Tenant names this client's admission-control tenant.
	Tenant string
	// PoolSize caps pooled idle connections (default 4). More
	// connections are dialed on demand; extras are closed on release.
	PoolSize int
	// DialTimeout bounds connection establishment (default 2s).
	DialTimeout time.Duration
	// RequestTimeout is the per-request deadline, propagated to the
	// server as DeadlineMs and enforced locally as a socket deadline
	// with slack (default 5s).
	RequestTimeout time.Duration
	// MaxRetries bounds automatic retries of stateless requests
	// (default 4).
	MaxRetries int
	// BackoffBase and BackoffMax shape the exponential backoff between
	// retries (defaults 2ms and 250ms); jitter of ±50% is applied from
	// the seeded RNG.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed seeds the jitter RNG (default 1), keeping retry schedules
	// reproducible under the test harnesses.
	Seed int64
}

func (c *Config) defaults() {
	if c.PoolSize <= 0 {
		c.PoolSize = 4
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 4
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 2 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 250 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// conn is one established, handshaken connection. Frames are written
// straight to the socket (wire.WriteFrame already makes each one a
// single Write); reads go through br.
type conn struct {
	c  net.Conn
	br *bufio.Reader
}

func (cn *conn) close() { cn.c.Close() }

// roundTrip sends one request and reads one response, under deadline.
func (cn *conn) roundTrip(req wire.Request, timeout time.Duration) (wire.Response, error) {
	payload, err := wire.EncodeRequest(req)
	if err != nil {
		return wire.Response{}, err
	}
	// Slack past the propagated deadline: the server answers
	// StatusDeadline itself when the budget expires, so the socket
	// deadline only catches a dead peer.
	cn.c.SetDeadline(time.Now().Add(timeout + 2*time.Second))
	if err := wire.WriteFrame(cn.c, payload); err != nil {
		return wire.Response{}, err
	}
	frame, err := wire.ReadFrame(cn.br)
	if err != nil {
		return wire.Response{}, err
	}
	resp, err := wire.DecodeResponse(frame)
	if err != nil {
		return wire.Response{}, err
	}
	if resp.ID != req.ID {
		return wire.Response{}, fmt.Errorf("client: response ID %d for request %d (stream desync)", resp.ID, req.ID)
	}
	if req.Op == wire.OpBatch {
		// Callers index the sub-responses by sub-request, so a batch
		// answer of any other shape is a desync too.
		if len(resp.Sub) != len(req.Sub) {
			return wire.Response{}, fmt.Errorf("client: batch %d answered with %d sub-responses for %d sub-requests (stream desync)", req.ID, len(resp.Sub), len(req.Sub))
		}
		for i := range req.Sub {
			if resp.Sub[i].ID != req.Sub[i].ID {
				return wire.Response{}, fmt.Errorf("client: batch %d sub-response %d has ID %d for sub-request %d (stream desync)", req.ID, i, resp.Sub[i].ID, req.Sub[i].ID)
			}
		}
	}
	return resp, nil
}

// Client is a pooled wire-protocol client for one server.
type Client struct {
	cfg Config

	mu     sync.Mutex
	idle   []*conn
	rng    *rand.Rand
	closed bool

	nextID atomic.Uint64

	// Sheds counts RETRY_AFTER answers observed (handshake + Begin).
	sheds atomic.Uint64
	// Retries counts automatic stateless-request retries.
	retries atomic.Uint64
}

// Dial creates a client and validates the address by establishing (and
// pooling) one connection.
func Dial(cfg Config) (*Client, error) {
	if cfg.Addr == "" {
		return nil, errors.New("client: Config.Addr is required")
	}
	cfg.defaults()
	c := &Client{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	cn, err := c.dialConn()
	if err != nil {
		return nil, err
	}
	c.put(cn)
	return c, nil
}

// Sheds returns how many RETRY_AFTER answers this client has seen.
func (c *Client) Sheds() uint64 { return c.sheds.Load() }

// Retries returns how many automatic retries this client has issued.
func (c *Client) Retries() uint64 { return c.retries.Load() }

// dialConn establishes and handshakes one connection.
func (c *Client) dialConn() (*conn, error) {
	nc, err := net.DialTimeout("tcp", c.cfg.Addr, c.cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	cn := &conn{c: nc, br: bufio.NewReader(nc)}
	nc.SetDeadline(time.Now().Add(c.cfg.DialTimeout + c.cfg.RequestTimeout))
	if err := wire.WriteFrame(nc, wire.EncodeHello(wire.Hello{
		Magic: wire.Magic, Version: wire.Version, Tenant: c.cfg.Tenant,
	})); err != nil {
		nc.Close()
		return nil, err
	}
	frame, err := wire.ReadFrame(cn.br)
	if err != nil {
		nc.Close()
		return nil, err
	}
	wl, err := wire.DecodeWelcome(frame)
	if err != nil {
		nc.Close()
		return nil, err
	}
	switch wl.Status {
	case wire.StatusOK:
		nc.SetDeadline(time.Time{})
		return cn, nil
	case wire.StatusRetryAfter:
		nc.Close()
		c.sheds.Add(1)
		return nil, &ShedError{After: time.Duration(wl.RetryAfterMs) * time.Millisecond, Msg: wl.Msg}
	case wire.StatusDraining:
		nc.Close()
		return nil, ErrDraining
	default:
		nc.Close()
		return nil, fmt.Errorf("%w: %s", ErrRejected, wl.Msg)
	}
}

// get returns a pooled or freshly dialed connection.
func (c *Client) get() (*conn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if n := len(c.idle); n > 0 {
		cn := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return cn, nil
	}
	c.mu.Unlock()
	return c.dialConn()
}

// put returns a healthy connection to the pool.
func (c *Client) put(cn *conn) {
	c.mu.Lock()
	if !c.closed && len(c.idle) < c.cfg.PoolSize {
		c.idle = append(c.idle, cn)
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	cn.close()
}

// Close closes the client and its pooled connections. Transactions
// still holding connections fail on next use.
func (c *Client) Close() {
	c.mu.Lock()
	c.closed = true
	idle := c.idle
	c.idle = nil
	c.mu.Unlock()
	for _, cn := range idle {
		cn.close()
	}
}

// id assigns the next request ID.
func (c *Client) id() uint64 { return c.nextID.Add(1) }

// sleepBackoff sleeps the retry backoff for attempt (0-based) plus the
// server hint, with ±50% seeded jitter.
func (c *Client) sleepBackoff(attempt int, hint time.Duration) {
	d := c.cfg.BackoffBase << attempt
	if d > c.cfg.BackoffMax {
		d = c.cfg.BackoffMax
	}
	c.mu.Lock()
	jitter := 0.5 + c.rng.Float64()
	c.mu.Unlock()
	time.Sleep(hint + time.Duration(float64(d)*jitter))
}

// deadlineMs is the propagated per-request deadline field.
func (c *Client) deadlineMs() uint32 {
	return uint32(c.cfg.RequestTimeout / time.Millisecond)
}

// do executes one stateless request with automatic retry: connection
// failures discard the connection and retry with backoff (the request
// ID is reused, so the server sees the same logical request), and
// RETRY_AFTER responses sleep the hint. Used for Ping/Roots; Begin has
// its own path so callers can observe sheds.
func (c *Client) do(req wire.Request) (wire.Response, error) {
	var lastErr error
	for attempt := 0; attempt <= c.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
		}
		cn, err := c.get()
		if err != nil {
			var shed *ShedError
			if errors.As(err, &shed) {
				lastErr = err
				c.sleepBackoff(attempt, shed.After)
				continue
			}
			if errors.Is(err, ErrClosed) || errors.Is(err, ErrDraining) || errors.Is(err, ErrRejected) {
				return wire.Response{}, err
			}
			lastErr = err
			c.sleepBackoff(attempt, 0)
			continue
		}
		resp, err := cn.roundTrip(req, c.cfg.RequestTimeout)
		if err != nil {
			cn.close()
			lastErr = err
			c.sleepBackoff(attempt, 0)
			continue
		}
		switch resp.Status {
		case wire.StatusRetryAfter:
			c.put(cn)
			c.sheds.Add(1)
			hint := time.Duration(resp.RetryAfterMs) * time.Millisecond
			lastErr = &ShedError{After: hint, Msg: resp.Msg}
			c.sleepBackoff(attempt, hint)
			continue
		default:
			c.put(cn)
			return resp, nil
		}
	}
	return wire.Response{}, fmt.Errorf("client: %s gave up after %d retries: %w", req.Op, c.cfg.MaxRetries, lastErr)
}

// Ping round-trips a no-op request.
func (c *Client) Ping() error {
	resp, err := c.do(wire.Request{ID: c.id(), Op: wire.OpPing, DeadlineMs: c.deadlineMs()})
	if err != nil {
		return err
	}
	if resp.Status != wire.StatusOK {
		return fmt.Errorf("client: ping: %s: %s", resp.Status, resp.Msg)
	}
	return nil
}

// Roots resolves a named root set from the server's catalog.
func (c *Client) Roots(name string) ([]oid.OID, error) {
	resp, err := c.do(wire.Request{ID: c.id(), Op: wire.OpRoots, Name: name, DeadlineMs: c.deadlineMs()})
	if err != nil {
		return nil, err
	}
	if resp.Status != wire.StatusOK {
		return nil, fmt.Errorf("client: roots %q: %s: %s", name, resp.Status, resp.Msg)
	}
	return resp.Refs, nil
}

// Txn is an open server-side transaction pinned to one connection.
// Result-less ops wait in its queue until the next call that needs an
// answer (see "Write-behind" in the package comment).
type Txn struct {
	c    *Client
	cn   *conn
	done bool
	// queue holds the write-behind ops not yet sent, in submission
	// order; queueBytes is their encoded size as batch sub-requests.
	queue      []wire.Request
	queueBytes int
}

// Begin opens a transaction. A shed Begin returns *ShedError without
// sleeping — load drivers count it and restart their latency clock;
// BeginRetry is the convenience loop for callers that just want a
// transaction.
func (c *Client) Begin() (*Txn, error) {
	cn, err := c.get()
	if err != nil {
		return nil, err
	}
	resp, err := cn.roundTrip(wire.Request{ID: c.id(), Op: wire.OpBegin, DeadlineMs: c.deadlineMs()}, c.cfg.RequestTimeout)
	if err != nil {
		cn.close()
		return nil, err
	}
	switch resp.Status {
	case wire.StatusOK:
		return &Txn{c: c, cn: cn}, nil
	case wire.StatusRetryAfter:
		c.put(cn)
		c.sheds.Add(1)
		return nil, &ShedError{After: time.Duration(resp.RetryAfterMs) * time.Millisecond, Msg: resp.Msg}
	case wire.StatusDraining:
		c.put(cn)
		return nil, ErrDraining
	default:
		c.put(cn)
		return nil, fmt.Errorf("client: begin: %s: %s", resp.Status, resp.Msg)
	}
}

// BeginRetry is Begin with the shed backoff applied, up to MaxRetries.
func (c *Client) BeginRetry() (*Txn, error) {
	var lastErr error
	for attempt := 0; attempt <= c.cfg.MaxRetries; attempt++ {
		tx, err := c.Begin()
		if err == nil {
			return tx, nil
		}
		lastErr = err
		var shed *ShedError
		switch {
		case errors.As(err, &shed):
			c.sleepBackoff(attempt, shed.After)
		case errors.Is(err, ErrDraining), errors.Is(err, ErrClosed), errors.Is(err, ErrRejected):
			return nil, err
		default:
			c.sleepBackoff(attempt, 0)
		}
	}
	return nil, fmt.Errorf("client: begin gave up after %d retries: %w", c.cfg.MaxRetries, lastErr)
}

// finish releases the transaction's connection and drops its queue;
// broken tells whether the connection is still protocol-clean enough to
// pool.
func (t *Txn) finish(broken bool) {
	t.done = true
	t.queue, t.queueBytes = nil, 0
	if broken {
		t.cn.close()
	} else {
		t.c.put(t.cn)
	}
	t.cn = nil
}

// batchOverhead is what a batch frame costs beyond its sub-requests.
var batchOverhead = wire.RequestSize(wire.Request{Op: wire.OpBatch})

// share is what req adds to a batch frame that already carries the
// queue: itself, or its sub-requests when it is a batch.
func share(req wire.Request) int {
	n := wire.RequestSize(req)
	if req.Op == wire.OpBatch {
		n -= batchOverhead
	}
	return n
}

// enqueue queues a result-less op: it takes its request ID now and
// travels in front of the next call that needs an answer.
func (t *Txn) enqueue(req wire.Request) error {
	if t.done {
		return ErrTxnDone
	}
	req.ID = t.c.id()
	n := wire.RequestSize(req)
	if batchOverhead+n > wire.MaxFrame {
		// No frame can carry it. Fail as an oversized synchronous op
		// does: drop the connection, and the server aborts the orphan.
		t.finish(true)
		return fmt.Errorf("client: %s of %s: %w", req.Op, req.OID, wire.ErrFrameTooLarge)
	}
	if err := t.makeRoom(n); err != nil {
		return err
	}
	t.queue = append(t.queue, req)
	t.queueBytes += n
	return nil
}

// makeRoom sends the queue alone when n more bytes would take the next
// batch frame past wire.MaxFrame.
func (t *Txn) makeRoom(n int) error {
	if len(t.queue) == 0 || batchOverhead+t.queueBytes+n <= wire.MaxFrame {
		return nil
	}
	_, err := t.flush(wire.Request{Op: wire.OpBatch})
	return err
}

// flush sends req with the queued ops in front of it, in one frame, and
// returns req's answer. With nothing queued req goes out as itself;
// otherwise the queue and req (or req's sub-requests) travel as one
// batch. A transport failure or a failed queued op finishes the
// transaction; a failure of req itself is left to the caller.
func (t *Txn) flush(req wire.Request) (wire.Response, error) {
	n, out := len(t.queue), req
	if n > 0 {
		out = wire.Request{ID: t.c.id(), Op: wire.OpBatch, DeadlineMs: t.c.deadlineMs()}
		if req.Op == wire.OpBatch {
			out.Sub = append(t.queue, req.Sub...)
		} else {
			out.Sub = append(t.queue, req)
		}
		t.queue, t.queueBytes = t.queue[:0], 0
	}
	resp, err := t.cn.roundTrip(out, t.c.cfg.RequestTimeout)
	if err != nil {
		// Connection lost (or desynced) mid-transaction: the server
		// aborts the orphan.
		t.finish(true)
		return wire.Response{}, err
	}
	if n == 0 {
		return resp, nil
	}
	ans := wire.Response{ID: req.ID, Status: resp.Status, RetryAfterMs: resp.RetryAfterMs, Sub: resp.Sub[n:]}
	if req.Op != wire.OpBatch {
		ans = resp.Sub[n]
	}
	for i, sub := range resp.Sub {
		if sub.Status == wire.StatusOK {
			continue
		}
		if i < n {
			// The server aborted the transaction at a queued op and
			// answered req "not executed"; the stream is still in sync.
			q := out.Sub[i]
			t.finish(false)
			return ans, fmt.Errorf("%w: queued %s of %s: %s: %s", ErrAborted, q.Op, q.OID, sub.Status, sub.Msg)
		}
		if req.Op == wire.OpBatch {
			ans.Msg = fmt.Sprintf("batch op %d (%s): %s", i-n, out.Sub[i].Op, sub.Msg)
		}
		break
	}
	return ans, nil
}

// op runs one request that needs an answer, flushing the queue with it.
// No automatic retry (see the package comment); any failure ends the
// transaction, except that a successful Commit leaves finishing to
// Commit.
func (t *Txn) op(req wire.Request) (wire.Response, error) {
	if t.done {
		return wire.Response{}, ErrTxnDone
	}
	req.ID = t.c.id()
	req.DeadlineMs = t.c.deadlineMs()
	if err := t.makeRoom(share(req)); err != nil {
		return wire.Response{}, err
	}
	resp, err := t.flush(req)
	if err != nil {
		if req.Op == wire.OpCommit && !errors.Is(err, ErrAborted) {
			// The commit went out and its answer did not come back.
			err = fmt.Errorf("%w: %v", ErrCommitUnknown, err)
		}
		return resp, err
	}
	if resp.Status != wire.StatusOK {
		// The server aborted the transaction (op failure, deadline) or
		// rejected the request; either way this handle is finished. The
		// connection itself is still in protocol sync — pool it.
		t.finish(false)
		return resp, fmt.Errorf("%w: %s: %s", ErrAborted, resp.Status, resp.Msg)
	}
	return resp, nil
}

// Read locks (shared, or exclusive when excl) and reads one object.
func (t *Txn) Read(o oid.OID, excl bool) (object.Object, error) {
	var mode uint8
	if excl {
		mode = 1
	}
	resp, err := t.op(wire.Request{Op: wire.OpRead, OID: o, Mode: mode})
	if err != nil {
		return object.Object{}, err
	}
	return object.Object{Payload: resp.Payload, Refs: resp.Refs}, nil
}

// Create creates an object in part.
func (t *Txn) Create(part oid.PartitionID, payload []byte, refs []oid.OID) (oid.OID, error) {
	resp, err := t.op(wire.Request{Op: wire.OpCreate, Part: part, Payload: payload, Refs: refs})
	if err != nil {
		return oid.Nil, err
	}
	return resp.OID, nil
}

// Update rewrites an object's payload (write-behind). The payload is
// copied, so the caller may reuse it at once.
func (t *Txn) Update(o oid.OID, payload []byte) error {
	return t.enqueue(wire.Request{Op: wire.OpUpdate, OID: o, Payload: bytes.Clone(payload)})
}

// InsertRef adds a reference o → child (write-behind).
func (t *Txn) InsertRef(o, child oid.OID) error {
	return t.enqueue(wire.Request{Op: wire.OpInsertRef, OID: o, OID2: child})
}

// DeleteRef removes one reference o → child (write-behind).
func (t *Txn) DeleteRef(o, child oid.OID) error {
	return t.enqueue(wire.Request{Op: wire.OpDeleteRef, OID: o, OID2: child})
}

// RetargetRef swings one reference o → from to o → to (write-behind).
func (t *Txn) RetargetRef(o, from, to oid.OID) error {
	return t.enqueue(wire.Request{Op: wire.OpRetargetRef, OID: o, OID2: from, OID3: to})
}

// Delete removes an object (write-behind).
func (t *Txn) Delete(o oid.OID) error {
	return t.enqueue(wire.Request{Op: wire.OpDelete, OID: o})
}

// Batch sends several ops in one frame, behind the queued ones (the
// server executes in order, stopping at the first failure). Sub-request
// IDs are assigned here.
func (t *Txn) Batch(subs []wire.Request) ([]wire.Response, error) {
	if t.done {
		return nil, ErrTxnDone
	}
	for i := range subs {
		subs[i].ID = t.c.id()
	}
	// Sub-responses are returned alongside an abort error so callers can
	// see which op failed and which were never executed.
	resp, err := t.op(wire.Request{Op: wire.OpBatch, Sub: subs})
	return resp.Sub, err
}

// Commit sends the queued ops and the commit in one frame. A lost
// response returns ErrCommitUnknown: the commit may have applied.
func (t *Txn) Commit() error {
	_, err := t.op(wire.Request{Op: wire.OpCommit})
	if err == nil {
		t.finish(false)
	}
	return err
}

// Abort rolls the transaction back, dropping the queue unsent. Safe on
// a finished handle.
func (t *Txn) Abort() error {
	if t.done {
		return nil
	}
	t.queue, t.queueBytes = nil, 0
	req := wire.Request{ID: t.c.id(), Op: wire.OpAbort, DeadlineMs: t.c.deadlineMs()}
	resp, err := t.cn.roundTrip(req, t.c.cfg.RequestTimeout)
	if err != nil {
		t.finish(true)
		return nil // the server aborts the orphan anyway
	}
	t.finish(false)
	if resp.Status != wire.StatusOK {
		return fmt.Errorf("client: abort: %s: %s", resp.Status, resp.Msg)
	}
	return nil
}
