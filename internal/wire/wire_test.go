package wire

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/oid"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("ab"), 5000)}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatalf("WriteFrame(%d bytes): %v", len(p), err)
		}
	}
	for _, p := range payloads {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame mismatch: got %d bytes, want %d", len(got), len(p))
		}
	}
}

func TestFrameTooLarge(t *testing.T) {
	if err := WriteFrame(&bytes.Buffer{}, make([]byte, MaxFrame+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("WriteFrame oversize: %v, want ErrFrameTooLarge", err)
	}
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := ReadFrame(&buf); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("ReadFrame oversize header: %v, want ErrFrameTooLarge", err)
	}
}

func TestHandshakeRoundTrip(t *testing.T) {
	h := Hello{Magic: Magic, Version: Version, Tenant: "gold"}
	got, err := DecodeHello(EncodeHello(h))
	if err != nil {
		t.Fatalf("DecodeHello: %v", err)
	}
	if got != h {
		t.Fatalf("hello round trip: got %+v, want %+v", got, h)
	}

	if _, err := DecodeHello(EncodeHello(Hello{Magic: 123, Version: Version})); !errors.Is(err, ErrMagic) {
		t.Fatalf("bad magic: %v, want ErrMagic", err)
	}
	if _, err := DecodeHello(EncodeHello(Hello{Magic: Magic, Version: Version + 7})); !errors.Is(err, ErrVersion) {
		t.Fatalf("bad version: %v, want ErrVersion", err)
	}

	w := Welcome{Status: StatusRetryAfter, Version: Version, RetryAfterMs: 25, Msg: "shed"}
	gw, err := DecodeWelcome(EncodeWelcome(w))
	if err != nil {
		t.Fatalf("DecodeWelcome: %v", err)
	}
	if gw != w {
		t.Fatalf("welcome round trip: got %+v, want %+v", gw, w)
	}
}

func reqEqual(a, b Request) bool {
	if a.ID != b.ID || a.Op != b.Op || a.DeadlineMs != b.DeadlineMs ||
		a.OID != b.OID || a.OID2 != b.OID2 || a.OID3 != b.OID3 ||
		a.Part != b.Part || a.Mode != b.Mode || a.Name != b.Name ||
		!bytes.Equal(a.Payload, b.Payload) || len(a.Refs) != len(b.Refs) ||
		len(a.Sub) != len(b.Sub) {
		return false
	}
	for i := range a.Refs {
		if a.Refs[i] != b.Refs[i] {
			return false
		}
	}
	for i := range a.Sub {
		if !reqEqual(a.Sub[i], b.Sub[i]) {
			return false
		}
	}
	return true
}

// goldenRequests and goldenResponses are the round-trip cases; they also
// seed the fuzz targets.
var goldenRequests = []Request{
	{ID: 1, Op: OpPing},
	{ID: 2, Op: OpRoots, Name: "roots/3", DeadlineMs: 250},
	{ID: 3, Op: OpRead, OID: oid.New(4, 7, 2), Mode: 1},
	{ID: 4, Op: OpCreate, Part: 9, Payload: []byte("hello"), Refs: []oid.OID{oid.New(1, 1, 1), oid.New(2, 2, 2)}},
	{ID: 5, Op: OpRetargetRef, OID: oid.New(1, 2, 3), OID2: oid.New(4, 5, 6), OID3: oid.New(7, 8, 9)},
	{ID: 6, Op: OpBatch, Sub: []Request{
		{ID: 7, Op: OpRead, OID: oid.New(3, 3, 3)},
		{ID: 8, Op: OpUpdate, OID: oid.New(3, 3, 3), Payload: []byte("new")},
	}},
	// The frames a write-behind client sends: queued writes in front of
	// the op that needs an answer, a Read or the Commit.
	{ID: 11, Op: OpBatch, DeadlineMs: 5000, Sub: []Request{
		{ID: 9, Op: OpUpdate, OID: oid.New(2, 4, 6), Payload: []byte("p00-c0001 v3..")},
		{ID: 10, Op: OpRead, OID: oid.New(2, 4, 7), Mode: 1},
	}},
	{ID: 16, Op: OpBatch, DeadlineMs: 5000, Sub: []Request{
		{ID: 12, Op: OpUpdate, OID: oid.New(2, 4, 6), Payload: []byte("a")},
		{ID: 13, Op: OpInsertRef, OID: oid.New(2, 4, 6), OID2: oid.New(2, 4, 7)},
		{ID: 14, Op: OpUpdate, OID: oid.New(2, 4, 7), Payload: []byte("b")},
		{ID: 15, Op: OpCommit},
	}},
}

var goldenResponses = []Response{
	{ID: 1, Status: StatusOK},
	{ID: 2, Status: StatusErr, Msg: "lock: wait timed out"},
	{ID: 3, Status: StatusRetryAfter, RetryAfterMs: 40},
	{ID: 4, Status: StatusOK, OID: oid.New(2, 5, 1), Payload: []byte("obj"), Refs: []oid.OID{oid.New(9, 9, 9)}},
	{ID: 5, Status: StatusOK, Sub: []Response{
		{ID: 6, Status: StatusOK, Payload: []byte("a")},
		{ID: 7, Status: StatusErr, Msg: "x"},
	}},
	// Answers to write-behind frames: a queued write then its Read, and
	// a batch that failed at entry 0 with the rest "not executed".
	{ID: 11, Status: StatusOK, Sub: []Response{
		{ID: 9, Status: StatusOK},
		{ID: 10, Status: StatusOK, Payload: []byte("p00-c0002 v1.."), Refs: []oid.OID{oid.New(2, 4, 6)}},
	}},
	{ID: 16, Status: StatusErr, Msg: "batch op 0 (update): object not found", Sub: []Response{
		{ID: 12, Status: StatusErr, Msg: "object not found"},
		{ID: 13, Status: StatusErr, Msg: "not executed: earlier op in batch failed"},
		{ID: 14, Status: StatusErr, Msg: "not executed: earlier op in batch failed"},
		{ID: 15, Status: StatusErr, Msg: "not executed: earlier op in batch failed"},
	}},
}

func respEqual(a, b Response) bool {
	if a.ID != b.ID || a.Status != b.Status || a.RetryAfterMs != b.RetryAfterMs ||
		a.OID != b.OID || a.Msg != b.Msg || !bytes.Equal(a.Payload, b.Payload) ||
		len(a.Refs) != len(b.Refs) || len(a.Sub) != len(b.Sub) {
		return false
	}
	for i := range a.Refs {
		if a.Refs[i] != b.Refs[i] {
			return false
		}
	}
	for i := range a.Sub {
		if !respEqual(a.Sub[i], b.Sub[i]) {
			return false
		}
	}
	return true
}

func TestRequestRoundTrip(t *testing.T) {
	for _, r := range goldenRequests {
		b, err := EncodeRequest(r)
		if err != nil {
			t.Fatalf("EncodeRequest(%s): %v", r.Op, err)
		}
		got, err := DecodeRequest(b)
		if err != nil {
			t.Fatalf("DecodeRequest(%s): %v", r.Op, err)
		}
		if !reqEqual(got, r) {
			t.Fatalf("request round trip (%s): got %+v, want %+v", r.Op, got, r)
		}
	}
}

func TestRequestRejectsNestedBatch(t *testing.T) {
	r := Request{Op: OpBatch, Sub: []Request{{Op: OpBatch, Sub: []Request{{Op: OpPing}}}}}
	if _, err := EncodeRequest(r); !errors.Is(err, ErrMalformed) {
		t.Fatalf("nested batch encode: %v, want ErrMalformed", err)
	}
	if _, err := DecodeRequest(nestedEmptyBatch(t)); !errors.Is(err, ErrMalformed) {
		t.Fatalf("nested empty batch decode: %v, want ErrMalformed", err)
	}
}

// nestedEmptyBatch is a batch whose one sub-request is an empty batch —
// bytes the encoder refuses to produce, so they are patched in.
func nestedEmptyBatch(t testing.TB) []byte {
	b, err := EncodeRequest(Request{ID: 1, Op: OpBatch, Sub: []Request{{ID: 2, Op: OpPing}}})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := EncodeRequest(Request{ID: 2, Op: OpPing})
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-len(sub)+8] = byte(OpBatch) // the sub's Op follows its 8-byte ID
	return b
}

func TestResponseRoundTrip(t *testing.T) {
	for _, r := range goldenResponses {
		b, err := EncodeResponse(r)
		if err != nil {
			t.Fatalf("EncodeResponse: %v", err)
		}
		got, err := DecodeResponse(b)
		if err != nil {
			t.Fatalf("DecodeResponse: %v", err)
		}
		if !respEqual(got, r) {
			t.Fatalf("response round trip: got %+v, want %+v", got, r)
		}
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	b, err := EncodeRequest(Request{ID: 9, Op: OpCreate, Payload: []byte("payload"), Refs: []oid.OID{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	// Every strict prefix must fail cleanly, never panic or succeed.
	for n := 0; n < len(b); n++ {
		if _, err := DecodeRequest(b[:n]); err == nil {
			t.Fatalf("DecodeRequest accepted a %d-byte truncation of %d bytes", n, len(b))
		}
	}
	// Trailing garbage must be rejected too.
	if _, err := DecodeRequest(append(b, 0)); err == nil {
		t.Fatal("DecodeRequest accepted trailing bytes")
	}
}
