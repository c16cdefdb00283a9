package wire

import (
	"testing"

	"repro/internal/oid"
)

// TestReqSizeMatchesEncoder pins the frame-size arithmetic to the
// encoder over every golden message: RequestSize (and responseSize) is
// the encoded length, and a batch is one fixed header plus its
// sub-messages.
func TestReqSizeMatchesEncoder(t *testing.T) {
	for _, r := range goldenRequests {
		b, err := EncodeRequest(r)
		if err != nil {
			t.Fatal(err)
		}
		if got := RequestSize(r); got != len(b) {
			t.Fatalf("RequestSize(%s, %d subs) = %d, encoder wrote %d", r.Op, len(r.Sub), got, len(b))
		}
		if cap(b) != len(b) {
			t.Fatalf("EncodeRequest(%s) buffer cap %d, len %d", r.Op, cap(b), len(b))
		}
		if len(r.Sub) == 0 {
			continue
		}
		want := RequestSize(Request{Op: OpBatch})
		for _, sub := range r.Sub {
			want += RequestSize(sub)
		}
		if len(b) != want {
			t.Fatalf("batch of %d: encoder wrote %d, header plus subs is %d", len(r.Sub), len(b), want)
		}
	}
	for _, r := range goldenResponses {
		b, err := EncodeResponse(r)
		if err != nil {
			t.Fatal(err)
		}
		if got := responseSize(r); got != len(b) || cap(b) != len(b) {
			t.Fatalf("responseSize(%d subs) = %d, encoder wrote %d (cap %d)", len(r.Sub), got, len(b), cap(b))
		}
	}
}

// batch5 is a write-behind frame: four queued writes in front of the
// Commit, and its answer.
var (
	batch5Req = Request{ID: 20, Op: OpBatch, DeadlineMs: 5000, Sub: []Request{
		{ID: 21, Op: OpUpdate, OID: oid.New(2, 4, 6), Payload: []byte("p00-c0001 v3..")},
		{ID: 22, Op: OpInsertRef, OID: oid.New(2, 4, 6), OID2: oid.New(2, 4, 7)},
		{ID: 23, Op: OpUpdate, OID: oid.New(2, 4, 7), Payload: []byte("p00-c0002 v9..")},
		{ID: 24, Op: OpCreate, Part: 2, Payload: []byte("new"), Refs: []oid.OID{oid.New(2, 4, 6)}},
		{ID: 25, Op: OpCommit},
	}}
	batch5Resp = Response{ID: 20, Status: StatusOK, Sub: []Response{
		{ID: 21, Status: StatusOK},
		{ID: 22, Status: StatusOK},
		{ID: 23, Status: StatusOK},
		{ID: 24, Status: StatusOK, OID: oid.New(2, 5, 1)},
		{ID: 25, Status: StatusOK},
	}}
)

// TestBatchEncodeAllocatesOnce checks that a batch frame is encoded into
// a single allocation on both ends, not regrown once per sub-message.
func TestBatchEncodeAllocatesOnce(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() {
		if _, err := EncodeRequest(batch5Req); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("EncodeRequest(5-sub batch): %v allocs, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := EncodeResponse(batch5Resp); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("EncodeResponse(5-sub batch): %v allocs, want 1", n)
	}
}
