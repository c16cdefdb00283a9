// Package wire defines the client/server protocol of the database: a
// length-prefixed binary framing, a version handshake, and fixed-layout
// request/response messages carrying client-assigned request IDs.
//
// Framing. Every message travels as one frame: a 4-byte little-endian
// payload length followed by the payload, capped at MaxFrame. Frames
// are self-delimiting, so a connection can pipeline many requests
// before reading responses; the server answers in arrival order and
// echoes each request's ID, which is what lets a client match retries
// to responses after a reconnect.
//
// Handshake. The first frame on a connection is a Hello (magic,
// protocol version, tenant name); the server answers with a Welcome
// that accepts, rejects the version, or sheds the connection with a
// retry-after hint before any request is read. Admission control
// therefore happens before the server commits any per-connection
// resources beyond the accept itself.
//
// Transactions. A connection carries at most one open transaction at a
// time, mirroring the db.Txn rule that one goroutine drives one
// transaction. Any op error aborts the open transaction server-side
// (releasing its locks immediately) and the client must Begin anew —
// the same resubmit discipline the in-process workload driver uses.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/oid"
)

// Protocol constants.
const (
	// Magic opens every Hello frame ("ODBR": object database
	// reorganization).
	Magic uint32 = 0x4f444252
	// Version is the protocol version this build speaks. The handshake
	// requires an exact match: the protocol has no optional fields yet,
	// so any mismatch means the peer serializes differently.
	Version uint32 = 1
	// MaxFrame bounds one frame's payload; larger frames indicate a
	// corrupt or hostile peer and kill the connection.
	MaxFrame = 1 << 20
)

// Op identifies a request operation.
type Op uint8

// Request operations. OpRead both locks (per Request.Mode) and reads
// the object, matching how every consumer of db.Txn pairs the two.
const (
	OpPing Op = iota
	OpRoots
	OpBegin
	OpCommit
	OpAbort
	OpRead
	OpCreate
	OpUpdate
	OpInsertRef
	OpDeleteRef
	OpRetargetRef
	OpDelete
	OpBatch
	opMax
)

func (o Op) String() string {
	switch o {
	case OpPing:
		return "ping"
	case OpRoots:
		return "roots"
	case OpBegin:
		return "begin"
	case OpCommit:
		return "commit"
	case OpAbort:
		return "abort"
	case OpRead:
		return "read"
	case OpCreate:
		return "create"
	case OpUpdate:
		return "update"
	case OpInsertRef:
		return "insert-ref"
	case OpDeleteRef:
		return "delete-ref"
	case OpRetargetRef:
		return "retarget-ref"
	case OpDelete:
		return "delete"
	case OpBatch:
		return "batch"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Status classifies a response.
type Status uint8

// Response statuses.
const (
	// StatusOK is a successful op.
	StatusOK Status = iota
	// StatusErr is an op failure; if a transaction was open it has been
	// aborted server-side and its locks are released. Msg carries the
	// cause.
	StatusErr
	// StatusRetryAfter sheds the request under overload: nothing was
	// executed, and RetryAfterMs hints when to try again.
	StatusRetryAfter
	// StatusDeadline reports the request's server-side deadline expired
	// before (or while) executing; an open transaction is aborted.
	StatusDeadline
	// StatusDraining rejects new transactions while the server drains
	// for shutdown. In-flight transactions may still commit.
	StatusDraining
	// StatusBadRequest reports a malformed or out-of-protocol request
	// (e.g. Begin with a transaction already open).
	StatusBadRequest
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusErr:
		return "err"
	case StatusRetryAfter:
		return "retry-after"
	case StatusDeadline:
		return "deadline"
	case StatusDraining:
		return "draining"
	case StatusBadRequest:
		return "bad-request"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// Wire errors.
var (
	// ErrFrameTooLarge reports a frame above MaxFrame.
	ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrame")
	// ErrMalformed reports a message that failed to decode.
	ErrMalformed = errors.New("wire: malformed message")
	// ErrVersion reports a handshake version mismatch.
	ErrVersion = errors.New("wire: protocol version mismatch")
	// ErrMagic reports a Hello without the protocol magic.
	ErrMagic = errors.New("wire: bad magic (not a protocol peer)")
)

// Hello is the client's first frame.
type Hello struct {
	Magic   uint32
	Version uint32
	Tenant  string
}

// Welcome answers a Hello. OK means admitted; otherwise Status is
// StatusRetryAfter (shed at the door, RetryAfterMs hints the backoff),
// StatusDraining, or StatusErr (version/magic rejection, Msg explains).
type Welcome struct {
	Status       Status
	Version      uint32
	RetryAfterMs uint32
	Msg          string
}

// Request is one operation. Fields are op-dependent; unused fields ride
// along zeroed (objects are ~100 bytes, so the fixed layout costs less
// than a tag-length scheme would save).
//
//	OpPing:        —
//	OpRoots:       Name (catalog key, e.g. "roots/3")
//	OpBegin:       —
//	OpCommit:      —
//	OpAbort:       —
//	OpRead:        OID, Mode (0 shared, 1 exclusive)
//	OpCreate:      Part, Payload, Refs, Mode&createDense for dense placement
//	OpUpdate:      OID, Payload
//	OpInsertRef:   OID, OID2 (child)
//	OpDeleteRef:   OID, OID2 (child)
//	OpRetargetRef: OID, OID2 (from), OID3 (to)
//	OpDelete:      OID
//	OpBatch:       Sub (no nesting)
type Request struct {
	// ID is assigned by the client and echoed in the response. A retry
	// of the same logical request reuses the ID, so duplicated work is
	// attributable in traces on both ends.
	ID uint64
	Op Op
	// DeadlineMs is the server-side deadline budget for this request,
	// in milliseconds from its arrival; 0 uses the server default.
	DeadlineMs uint32
	OID        oid.OID
	OID2       oid.OID
	OID3       oid.OID
	Part       oid.PartitionID
	// Mode is the lock mode for OpRead (0 shared, 1 exclusive) and the
	// placement flag for OpCreate (CreateDense when 1).
	Mode    uint8
	Payload []byte
	Refs    []oid.OID
	Name    string
	Sub     []Request
}

// Response answers one Request.
type Response struct {
	ID           uint64
	Status       Status
	RetryAfterMs uint32
	OID          oid.OID // created OID for OpCreate
	Payload      []byte  // object payload for OpRead
	Refs         []oid.OID
	Msg          string
	Sub          []Response // per-sub results for OpBatch
}

// WriteFrame writes one length-prefixed frame with a single Write: the
// header and payload go out together, so on a socket a frame costs one
// write(2) and the peer never wakes for a lone header segment.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return ErrFrameTooLarge
	}
	buf := make([]byte, 4, 4+len(payload))
	binary.LittleEndian.PutUint32(buf, uint32(len(payload)))
	_, err := w.Write(append(buf, payload...))
	return err
}

// ReadFrame reads one length-prefixed frame. It issues two reads (header,
// then payload), so a socket reader should sit behind a bufio.Reader to
// pay one read(2) per frame, or fewer when frames arrive together.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// --- binary encoding helpers ---

func appendU8(b []byte, v uint8) []byte   { return append(b, v) }
func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

func appendBytes(b, p []byte) []byte {
	b = appendU32(b, uint32(len(p)))
	return append(b, p...)
}

func appendString(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

func appendRefs(b []byte, refs []oid.OID) []byte {
	b = appendU32(b, uint32(len(refs)))
	for _, r := range refs {
		b = appendU64(b, uint64(r))
	}
	return b
}

// dec is a bounds-checked little-endian reader over one frame.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail() {
	if d.err == nil {
		d.err = ErrMalformed
	}
}

func (d *dec) u8() uint8 {
	if d.err != nil || d.off+1 > len(d.b) {
		d.fail()
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *dec) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *dec) u64() uint64 {
	if d.err != nil || d.off+8 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *dec) bytes() []byte {
	n := int(d.u32())
	if d.err != nil || n < 0 || d.off+n > len(d.b) {
		d.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]byte, n)
	copy(out, d.b[d.off:])
	d.off += n
	return out
}

func (d *dec) str() string {
	n := int(d.u32())
	if d.err != nil || n < 0 || d.off+n > len(d.b) {
		d.fail()
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}

func (d *dec) refs() []oid.OID {
	n := int(d.u32())
	// Each ref is 8 bytes; reject counts the remaining frame cannot hold
	// before allocating.
	if d.err != nil || n < 0 || d.off+8*n > len(d.b) {
		d.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]oid.OID, n)
	for i := range out {
		out[i] = oid.OID(d.u64())
	}
	return out
}

func (d *dec) done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(d.b)-d.off)
	}
	return nil
}

// --- Hello / Welcome ---

// EncodeHello serializes a Hello payload.
func EncodeHello(h Hello) []byte {
	b := make([]byte, 0, 12+len(h.Tenant))
	b = appendU32(b, h.Magic)
	b = appendU32(b, h.Version)
	b = appendString(b, h.Tenant)
	return b
}

// DecodeHello parses a Hello payload and validates magic and version.
func DecodeHello(b []byte) (Hello, error) {
	d := &dec{b: b}
	h := Hello{Magic: d.u32(), Version: d.u32(), Tenant: d.str()}
	if err := d.done(); err != nil {
		return Hello{}, err
	}
	if h.Magic != Magic {
		return h, ErrMagic
	}
	if h.Version != Version {
		return h, fmt.Errorf("%w: peer %d, this build %d", ErrVersion, h.Version, Version)
	}
	return h, nil
}

// EncodeWelcome serializes a Welcome payload.
func EncodeWelcome(w Welcome) []byte {
	b := make([]byte, 0, 13+len(w.Msg))
	b = appendU8(b, uint8(w.Status))
	b = appendU32(b, w.Version)
	b = appendU32(b, w.RetryAfterMs)
	b = appendString(b, w.Msg)
	return b
}

// DecodeWelcome parses a Welcome payload.
func DecodeWelcome(b []byte) (Welcome, error) {
	d := &dec{b: b}
	w := Welcome{
		Status:       Status(d.u8()),
		Version:      d.u32(),
		RetryAfterMs: d.u32(),
		Msg:          d.str(),
	}
	return w, d.done()
}

// --- Request / Response ---

// requestFixed and responseFixed are the encoded sizes of a Request and
// a Response whose variable-length fields and Sub are all empty.
const (
	requestFixed  = 8 + 1 + 4 + 3*8 + 4 + 1 + 4 + 4 + 4 + 4 // ID Op Deadline OIDs Part Mode, 4 lengths
	responseFixed = 8 + 1 + 4 + 8 + 4 + 4 + 4 + 4           // ID Status RetryAfter OID, 4 lengths
)

// RequestSize is len(EncodeRequest(r)) for a request the encoder
// accepts: the fixed layout, the variable-length fields, and every
// sub-request.
func RequestSize(r Request) int {
	n := requestFixed + len(r.Payload) + 8*len(r.Refs) + len(r.Name)
	for _, sub := range r.Sub {
		n += RequestSize(sub)
	}
	return n
}

// responseSize is len(EncodeResponse(r)) for a response the encoder
// accepts.
func responseSize(r Response) int {
	n := responseFixed + len(r.Payload) + 8*len(r.Refs) + len(r.Msg)
	for _, sub := range r.Sub {
		n += responseSize(sub)
	}
	return n
}

func appendRequest(b []byte, r Request, depth int) ([]byte, error) {
	if r.Op >= opMax {
		return nil, fmt.Errorf("%w: op %d", ErrMalformed, r.Op)
	}
	if depth > 0 && r.Op == OpBatch {
		return nil, fmt.Errorf("%w: nested batch", ErrMalformed)
	}
	b = appendU64(b, r.ID)
	b = appendU8(b, uint8(r.Op))
	b = appendU32(b, r.DeadlineMs)
	b = appendU64(b, uint64(r.OID))
	b = appendU64(b, uint64(r.OID2))
	b = appendU64(b, uint64(r.OID3))
	b = appendU32(b, uint32(r.Part))
	b = appendU8(b, r.Mode)
	b = appendBytes(b, r.Payload)
	b = appendRefs(b, r.Refs)
	b = appendString(b, r.Name)
	b = appendU32(b, uint32(len(r.Sub)))
	var err error
	for _, sub := range r.Sub {
		if b, err = appendRequest(b, sub, depth+1); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// EncodeRequest serializes a Request payload into one exactly-sized
// allocation. Batches may not nest.
func EncodeRequest(r Request) ([]byte, error) {
	return appendRequest(make([]byte, 0, RequestSize(r)), r, 0)
}

func decodeRequest(d *dec, depth int) Request {
	r := Request{
		ID:         d.u64(),
		Op:         Op(d.u8()),
		DeadlineMs: d.u32(),
		OID:        oid.OID(d.u64()),
		OID2:       oid.OID(d.u64()),
		OID3:       oid.OID(d.u64()),
		Part:       oid.PartitionID(d.u32()),
		Mode:       d.u8(),
		Payload:    d.bytes(),
		Refs:       d.refs(),
		Name:       d.str(),
	}
	// A sub-request may not itself be a batch, even an empty one: the
	// encoder refuses to nest, so the decoder must too.
	if r.Op >= opMax || (depth > 0 && r.Op == OpBatch) {
		d.fail()
		return r
	}
	n := int(d.u32())
	// A sub-request is at least requestFixed bytes; bound n by the
	// remaining frame.
	if d.err != nil || n < 0 || n > (len(d.b)-d.off)/requestFixed+1 {
		if n != 0 {
			d.fail()
		}
		return r
	}
	if n > 0 {
		if depth > 0 || r.Op != OpBatch {
			d.fail()
			return r
		}
		r.Sub = make([]Request, n)
		for i := range r.Sub {
			r.Sub[i] = decodeRequest(d, depth+1)
		}
	}
	return r
}

// DecodeRequest parses a Request payload.
func DecodeRequest(b []byte) (Request, error) {
	d := &dec{b: b}
	r := decodeRequest(d, 0)
	return r, d.done()
}

func appendResponse(b []byte, r Response, depth int) ([]byte, error) {
	if depth > 0 && len(r.Sub) > 0 {
		return nil, fmt.Errorf("%w: nested batch response", ErrMalformed)
	}
	b = appendU64(b, r.ID)
	b = appendU8(b, uint8(r.Status))
	b = appendU32(b, r.RetryAfterMs)
	b = appendU64(b, uint64(r.OID))
	b = appendBytes(b, r.Payload)
	b = appendRefs(b, r.Refs)
	b = appendString(b, r.Msg)
	b = appendU32(b, uint32(len(r.Sub)))
	var err error
	for _, sub := range r.Sub {
		if b, err = appendResponse(b, sub, depth+1); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// EncodeResponse serializes a Response payload into one exactly-sized
// allocation.
func EncodeResponse(r Response) ([]byte, error) {
	return appendResponse(make([]byte, 0, responseSize(r)), r, 0)
}

func decodeResponse(d *dec, depth int) Response {
	r := Response{
		ID:           d.u64(),
		Status:       Status(d.u8()),
		RetryAfterMs: d.u32(),
		OID:          oid.OID(d.u64()),
		Payload:      d.bytes(),
		Refs:         d.refs(),
		Msg:          d.str(),
	}
	n := int(d.u32())
	// A sub-response is at least responseFixed bytes.
	if d.err != nil || n < 0 || n > (len(d.b)-d.off)/responseFixed+1 {
		if n != 0 {
			d.fail()
		}
		return r
	}
	if n > 0 {
		if depth > 0 {
			d.fail()
			return r
		}
		r.Sub = make([]Response, n)
		for i := range r.Sub {
			r.Sub[i] = decodeResponse(d, depth+1)
		}
	}
	return r
}

// DecodeResponse parses a Response payload.
func DecodeResponse(b []byte) (Response, error) {
	d := &dec{b: b}
	r := decodeResponse(d, 0)
	return r, d.done()
}
