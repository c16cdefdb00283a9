package server_test

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/fault"
	"repro/internal/server"
	"repro/internal/wire"
)

// countingListener hands out conns that count the server's Read and
// Write calls — one call is one read(2)/write(2) on a TCP conn — and
// record the payload size of every frame the server reads.
type countingListener struct {
	net.Listener
	reads, writes atomic.Int64

	mu     sync.Mutex
	frames []int // incoming frame payload sizes, Hello included
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l}, nil
}

// countingWorld is a world whose listener counts frames and syscalls.
func countingWorld(t *testing.T) (*world, *countingListener) {
	t.Helper()
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &countingListener{Listener: inner}
	return newWorldOn(t, server.Config{}, ln), ln
}

// frameSizes returns the payload sizes of the frames read so far.
func (l *countingListener) frameSizes() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]int(nil), l.frames...)
}

type countingConn struct {
	net.Conn
	l *countingListener

	// The frame scanner: hdr collects a length prefix, body counts the
	// payload bytes still to come.
	hdr  []byte
	body int
}

// Calls are counted on entry, so a response the client has already
// received is always counted.
func (c *countingConn) Read(p []byte) (int, error) {
	c.l.reads.Add(1)
	n, err := c.Conn.Read(p)
	c.scan(p[:n])
	return n, err
}

// scan splits the incoming byte stream into frames.
func (c *countingConn) scan(b []byte) {
	for len(b) > 0 {
		if c.body > 0 {
			k := min(c.body, len(b))
			c.body -= k
			b = b[k:]
			continue
		}
		k := min(4-len(c.hdr), len(b))
		c.hdr = append(c.hdr, b[:k]...)
		b = b[k:]
		if len(c.hdr) == 4 {
			c.body = int(binary.LittleEndian.Uint32(c.hdr))
			c.hdr = c.hdr[:0]
			c.l.mu.Lock()
			c.l.frames = append(c.l.frames, c.body)
			c.l.mu.Unlock()
		}
	}
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.l.writes.Add(1)
	return c.Conn.Write(p)
}

// TestOneSyscallPerFrame pins the framing rule: the server answers each
// frame with exactly one Write (the Welcome included), and its buffered
// reader needs at most one Read per incoming frame (plus the Read the
// request loop is parked in). The fault points still fire per frame,
// not per syscall. It also pins the client's write-behind: a transaction
// of Begin, Read, Update and Commit is three frames, because the Update
// travels in one batch frame with the Commit.
func TestOneSyscallPerFrame(t *testing.T) {
	reg := fault.NewRegistry(1) // nothing armed: counts hits only
	defer fault.Install(reg)()

	w, ln := countingWorld(t)
	cl := w.client(t, client.Config{PoolSize: 1})

	const k = 25
	for i := 0; i < k; i++ {
		tx, err := cl.Begin()
		if err != nil {
			t.Fatalf("Begin: %v", err)
		}
		if _, err := tx.Read(w.root, true); err != nil {
			t.Fatalf("Read: %v", err)
		}
		if err := tx.Update(w.root, []byte{byte(i)}); err != nil {
			t.Fatalf("Update: %v", err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("Commit: %v", err)
		}
	}

	const requests = 3 * k      // Begin, Read, [Update, Commit]
	const frames = 1 + requests // plus the Hello/Welcome
	if got := ln.writes.Load(); got != frames {
		t.Errorf("server Writes = %d for %d outgoing frames, want exactly one per frame", got, frames)
	}
	if got := ln.reads.Load(); got < frames || got > frames+1 {
		t.Errorf("server Reads = %d for %d incoming frames, want %d..%d", got, frames, frames, frames+1)
	}
	if got := len(ln.frameSizes()); got != frames {
		t.Errorf("server read %d frames, want %d", got, frames)
	}

	// Per-frame fault points: stall and read run once before each read
	// (the loop may already sit at the next one), conn-drop twice and
	// stall and write once around each response.
	for _, c := range []struct {
		point    string
		min, max int
	}{
		{fault.NetRead, requests, requests + 1},
		{fault.NetStall, 2 * requests, 2*requests + 1},
		{fault.NetConnDrop, 2 * requests, 2 * requests},
		{fault.NetWrite, requests, requests},
	} {
		if got := reg.Hits(c.point); got < c.min || got > c.max {
			t.Errorf("%s hits = %d after %d requests, want %d..%d", c.point, got, requests, c.min, c.max)
		}
	}
}

// rawConn dials the server and returns the conn plus a buffered reader
// over it.
func rawConn(t *testing.T, w *world) (net.Conn, *bufio.Reader) {
	t.Helper()
	c, err := net.Dial("tcp", w.addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetDeadline(time.Now().Add(10 * time.Second))
	return c, bufio.NewReader(c)
}

func frameBytes(t *testing.T, payload []byte) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := wire.WriteFrame(&b, payload); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func requestFrame(t *testing.T, r wire.Request) []byte {
	t.Helper()
	p, err := wire.EncodeRequest(r)
	if err != nil {
		t.Fatal(err)
	}
	return frameBytes(t, p)
}

var helloPayload = wire.EncodeHello(wire.Hello{Magic: wire.Magic, Version: wire.Version, Tenant: "raw"})

func readWelcome(t *testing.T, br *bufio.Reader) {
	t.Helper()
	frame, err := wire.ReadFrame(br)
	if err != nil {
		t.Fatalf("reading Welcome: %v", err)
	}
	wl, err := wire.DecodeWelcome(frame)
	if err != nil || wl.Status != wire.StatusOK {
		t.Fatalf("Welcome = %+v, %v; want StatusOK", wl, err)
	}
}

func readResponse(t *testing.T, br *bufio.Reader, wantID uint64) wire.Response {
	t.Helper()
	frame, err := wire.ReadFrame(br)
	if err != nil {
		t.Fatalf("reading response %d: %v", wantID, err)
	}
	resp, err := wire.DecodeResponse(frame)
	if err != nil {
		t.Fatalf("decoding response %d: %v", wantID, err)
	}
	if resp.ID != wantID || resp.Status != wire.StatusOK {
		t.Fatalf("response = {ID %d, %s %q}, want {ID %d, ok}", resp.ID, resp.Status, resp.Msg, wantID)
	}
	return resp
}

// TestCoalescedFramesServedInOrder sends the Hello and a whole
// transaction in one Write: the handshake's read-ahead must hand the
// request bytes to the request loop intact and in order.
func TestCoalescedFramesServedInOrder(t *testing.T) {
	w := newWorld(t, server.Config{})
	c, br := rawConn(t, w)

	reqs := []wire.Request{
		{ID: 1, Op: wire.OpPing},
		{ID: 2, Op: wire.OpBegin},
		{ID: 3, Op: wire.OpRead, OID: w.root, Mode: 1},
		{ID: 4, Op: wire.OpUpdate, OID: w.root, Payload: []byte("coalesced")},
		{ID: 5, Op: wire.OpCommit},
		{ID: 6, Op: wire.OpRoots, Name: "root"},
	}
	buf := frameBytes(t, helloPayload)
	for _, r := range reqs {
		buf = append(buf, requestFrame(t, r)...)
	}
	if _, err := c.Write(buf); err != nil {
		t.Fatal(err)
	}

	readWelcome(t, br)
	for _, r := range reqs {
		resp := readResponse(t, br, r.ID)
		if r.Op == wire.OpRoots && (len(resp.Refs) != 1 || resp.Refs[0] != w.root) {
			t.Fatalf("Roots = %v, want [%v]", resp.Refs, w.root)
		}
	}

	// The update committed: a fresh transaction reads it back.
	tx, err := w.d.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort()
	obj, err := tx.Read(w.root)
	if err != nil {
		t.Fatal(err)
	}
	if string(obj.Payload) != "coalesced" {
		t.Fatalf("root payload = %q, want %q", obj.Payload, "coalesced")
	}
}

// TestByteAtATimeFramesServed dribbles the Hello and a request one byte
// per Write: the buffered reader must keep reading until each frame is
// whole.
func TestByteAtATimeFramesServed(t *testing.T) {
	w := newWorld(t, server.Config{})
	c, br := rawConn(t, w)
	dribble := func(b []byte) {
		for i := range b {
			if _, err := c.Write(b[i : i+1]); err != nil {
				t.Fatal(err)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}

	dribble(frameBytes(t, helloPayload))
	readWelcome(t, br)
	dribble(requestFrame(t, wire.Request{ID: 7, Op: wire.OpRoots, Name: "root"}))
	if resp := readResponse(t, br, 7); len(resp.Refs) != 1 || resp.Refs[0] != w.root {
		t.Fatalf("Roots = %v, want [%v]", resp.Refs, w.root)
	}
}

// BenchmarkRoundTrip is one wire transaction over loopback — Begin,
// Read(excl), Update, Commit — against an in-memory database: three
// frames each way, since the Update rides in the Commit's batch. It
// reports ns/op and allocs/op and asserts no time budget.
func BenchmarkRoundTrip(b *testing.B) {
	w := newWorld(b, server.Config{})
	cl := w.client(b, client.Config{PoolSize: 1})
	payload := []byte("round-trip")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, err := cl.Begin()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tx.Read(w.root, true); err != nil {
			b.Fatal(err)
		}
		if err := tx.Update(w.root, payload); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}
