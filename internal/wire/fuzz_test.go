package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

// allocSlack absorbs the fuzzing engine's own allocations in an
// allocation measurement.
const allocSlack = 64 << 10

// allocated returns the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func goldenFrames(t testing.TB) [][]byte {
	var out [][]byte
	for _, r := range goldenRequests {
		b, err := EncodeRequest(r)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	for _, r := range goldenResponses {
		b, err := EncodeResponse(r)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return append(out,
		EncodeHello(Hello{Magic: Magic, Version: Version, Tenant: "gold"}),
		EncodeWelcome(Welcome{Status: StatusRetryAfter, Version: Version, RetryAfterMs: 25, Msg: "shed"}))
}

// FuzzReadFrame feeds arbitrary bytes through a bufio.Reader, the way
// the server reads a connection, and checks every frame against a
// direct parse of the same bytes: frames come out whole and in order, a
// header over MaxFrame gives ErrFrameTooLarge, and no frame allocates
// more than MaxFrame.
func FuzzReadFrame(f *testing.F) {
	var stream bytes.Buffer
	for _, p := range goldenFrames(f) {
		var one bytes.Buffer
		if err := WriteFrame(&one, p); err != nil {
			f.Fatal(err)
		}
		f.Add(one.Bytes())
		f.Add(one.Bytes()[:one.Len()-1]) // truncated body
		stream.Write(one.Bytes())
	}
	f.Add(stream.Bytes())
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add(binary.LittleEndian.AppendUint32(nil, MaxFrame+1))
	f.Add(binary.LittleEndian.AppendUint32(nil, MaxFrame))
	f.Add([]byte{1, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		rest := data
		for {
			var frame []byte
			var err error
			if n := allocated(func() { frame, err = ReadFrame(br) }); n > MaxFrame+allocSlack {
				t.Fatalf("ReadFrame allocated %d bytes, MaxFrame is %d", n, MaxFrame)
			}
			switch {
			case len(rest) == 0:
				if err != io.EOF {
					t.Fatalf("at end of input: %v, want io.EOF", err)
				}
				return
			case len(rest) < 4:
				if err != io.ErrUnexpectedEOF {
					t.Fatalf("%d-byte header: %v, want io.ErrUnexpectedEOF", len(rest), err)
				}
				return
			}
			n := binary.LittleEndian.Uint32(rest)
			switch {
			case n > MaxFrame:
				if !errors.Is(err, ErrFrameTooLarge) {
					t.Fatalf("header %d > MaxFrame: %v, want ErrFrameTooLarge", n, err)
				}
				return
			case uint64(len(rest)-4) < uint64(n):
				want := io.ErrUnexpectedEOF
				if len(rest) == 4 {
					want = io.EOF // io.ReadFull read no body byte
				}
				if err != want {
					t.Fatalf("frame of %d with %d body bytes: %v, want %v", n, len(rest)-4, err, want)
				}
				return
			}
			if err != nil {
				t.Fatalf("whole %d-byte frame: %v", n, err)
			}
			if !bytes.Equal(frame, rest[4:4+n]) {
				t.Fatalf("frame = %x, want %x", frame, rest[4:4+n])
			}
			rest = rest[4+n:]
		}
	})
}

// inflatedCounts returns copies of the empty message enc with, in turn,
// each length/count field at offs claiming far more elements than the
// message holds — the seeds for the decoders' allocation bound.
func inflatedCounts(enc []byte, offs ...int) [][]byte {
	var out [][]byte
	for _, off := range offs {
		b := bytes.Clone(enc)
		binary.LittleEndian.PutUint32(b[off:], 1<<18)
		out = append(out, b)
	}
	return out
}

// checkDecodeAlloc fails if decoding b allocated more than a fixed
// multiple of len(b): a length or count field must never make a decoder
// allocate beyond what the frame itself can hold.
func checkDecodeAlloc(t *testing.T, b []byte, n uint64) {
	t.Helper()
	if limit := 8*uint64(len(b)) + allocSlack; n > limit {
		t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(b), n, limit)
	}
}

// FuzzDecodeRequest: no panic, allocation bounded by the input, and a
// successful decode re-encodes to the same bytes, which decode equal.
func FuzzDecodeRequest(f *testing.F) {
	for _, r := range goldenRequests {
		b, err := EncodeRequest(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add(nestedEmptyBatch(f))
	// Payload length, refs count, name length and sub count follow the
	// 42-byte fixed header.
	empty, err := EncodeRequest(Request{Op: OpBatch})
	if err != nil {
		f.Fatal(err)
	}
	for _, b := range inflatedCounts(empty, 42, 46, 50, 54) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > MaxFrame {
			return // ReadFrame never yields it
		}
		var r Request
		var err error
		checkDecodeAlloc(t, b, allocated(func() { r, err = DecodeRequest(b) }))
		if err != nil {
			return
		}
		enc, err := EncodeRequest(r)
		if err != nil {
			t.Fatalf("decoded request does not re-encode: %v (%+v)", err, r)
		}
		if !bytes.Equal(enc, b) {
			t.Fatalf("re-encoding differs:\n got %x\nwant %x", enc, b)
		}
		again, err := DecodeRequest(enc)
		if err != nil || !reqEqual(again, r) {
			t.Fatalf("re-decode = %+v, %v; want %+v", again, err, r)
		}
	})
}

// FuzzDecodeResponse: the FuzzDecodeRequest properties for responses.
func FuzzDecodeResponse(f *testing.F) {
	for _, r := range goldenResponses {
		b, err := EncodeResponse(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// Payload length, refs count, message length and sub count follow
	// the 21-byte fixed header.
	empty, err := EncodeResponse(Response{})
	if err != nil {
		f.Fatal(err)
	}
	for _, b := range inflatedCounts(empty, 21, 25, 29, 33) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > MaxFrame {
			return
		}
		var r Response
		var err error
		checkDecodeAlloc(t, b, allocated(func() { r, err = DecodeResponse(b) }))
		if err != nil {
			return
		}
		enc, err := EncodeResponse(r)
		if err != nil {
			t.Fatalf("decoded response does not re-encode: %v (%+v)", err, r)
		}
		if !bytes.Equal(enc, b) {
			t.Fatalf("re-encoding differs:\n got %x\nwant %x", enc, b)
		}
		again, err := DecodeResponse(enc)
		if err != nil || !respEqual(again, r) {
			t.Fatalf("re-decode = %+v, %v; want %+v", again, err, r)
		}
	})
}
