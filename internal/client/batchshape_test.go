package client

import (
	"bufio"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/oid"
	"repro/internal/wire"
)

// fakeServer accepts one connection, admits it and answers each request
// frame with answer(req). It reports on the returned channel whether the
// client closed the connection after the last answer.
func fakeServer(t *testing.T, answer func(wire.Request) wire.Response) (string, <-chan bool) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	closed := make(chan bool, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		c.SetDeadline(time.Now().Add(10 * time.Second))
		br := bufio.NewReader(c)
		if _, err := wire.ReadFrame(br); err != nil {
			return
		}
		if err := wire.WriteFrame(c, wire.EncodeWelcome(wire.Welcome{Status: wire.StatusOK, Version: wire.Version})); err != nil {
			return
		}
		for {
			frame, err := wire.ReadFrame(br)
			if err != nil {
				closed <- true
				return
			}
			req, err := wire.DecodeRequest(frame)
			if err != nil {
				return
			}
			payload, err := wire.EncodeResponse(answer(req))
			if err != nil {
				return
			}
			if err := wire.WriteFrame(c, payload); err != nil {
				return
			}
		}
	}()
	return ln.Addr().String(), closed
}

// TestBatchResponseShapeChecked: a batch answer whose sub-responses do
// not match the sub-requests one for one — too few, or with a wrong ID —
// is a stream desync. The client must report it, close the connection
// and never hand the caller a short slice to index.
func TestBatchResponseShapeChecked(t *testing.T) {
	o := oid.New(1, 1, 1)
	for _, c := range []struct {
		name   string
		mangle func([]wire.Response) []wire.Response
		run    func(*Txn) error
	}{
		{"short-batch", func(s []wire.Response) []wire.Response { return s[:len(s)-1] }, func(tx *Txn) error {
			subs, err := tx.Batch([]wire.Request{{Op: wire.OpRead, OID: o}, {Op: wire.OpRead, OID: o}})
			if err == nil {
				_ = subs[1] // what a caller does with a clean answer
			}
			return err
		}},
		{"short-pipelined", func(s []wire.Response) []wire.Response { return s[:len(s)-1] }, func(tx *Txn) error {
			if err := tx.Update(o, []byte("x")); err != nil {
				return err
			}
			_, err := tx.Read(o, true)
			return err
		}},
		{"sub-id-mismatch", func(s []wire.Response) []wire.Response { s[0].ID++; return s }, func(tx *Txn) error {
			if err := tx.Update(o, []byte("x")); err != nil {
				return err
			}
			return tx.Commit()
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			addr, closed := fakeServer(t, func(req wire.Request) wire.Response {
				resp := wire.Response{ID: req.ID, Status: wire.StatusOK}
				if req.Op == wire.OpBatch {
					for _, sub := range req.Sub {
						resp.Sub = append(resp.Sub, wire.Response{ID: sub.ID, Status: wire.StatusOK})
					}
					resp.Sub = c.mangle(resp.Sub)
				}
				return resp
			})
			cl, err := Dial(Config{Addr: addr, PoolSize: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			tx, err := cl.Begin()
			if err != nil {
				t.Fatal(err)
			}
			err = c.run(tx)
			if err == nil || !strings.Contains(err.Error(), "stream desync") {
				t.Fatalf("mismatched batch answer: %v, want a stream-desync error", err)
			}
			if errors.Is(err, ErrAborted) {
				t.Fatalf("desync reported as a server abort: %v", err)
			}
			if _, err := tx.Read(o, false); !errors.Is(err, ErrTxnDone) {
				t.Fatalf("transaction after desync: %v, want ErrTxnDone", err)
			}
			select {
			case <-closed:
			case <-time.After(5 * time.Second):
				t.Fatal("client kept the desynced connection open")
			}
		})
	}
}
