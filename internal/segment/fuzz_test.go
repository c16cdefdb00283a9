package segment

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// fuzzPageSize keeps slots small so mutations reach every header field
// and the payload alike.
const fuzzPageSize = 64

// FuzzReadPage writes arbitrary bytes as slot 1 of a partition file and
// reads it back, twice: as they are, and with the checksum resealed so a
// mutated header reaches the flag and length checks. Each read runs into
// a fresh buffer and into a recycled one full of garbage, as a buffer
// pool's would be. ReadPage must never panic and may fail only with
// ErrAbsent or ErrTorn; a page it accepts must be exactly the slot's
// payload, with the slot's LSN; and the two buffers must agree on the
// outcome, so no stale byte survives the sparse-hole or short-read path.
func FuzzReadPage(f *testing.F) {
	seed, err := Open(f.TempDir(), fuzzPageSize)
	if err != nil {
		f.Fatal(err)
	}
	live := bytes.Clone(seed.encodeSlot(flagLive, 42, pageOf(0xAB, fuzzPageSize)))
	f.Add(live)
	f.Add(bytes.Clone(seed.encodeSlot(0, 7, nil)))
	for _, n := range []int{0, 4, hdrSize - 1, hdrSize, hdrSize + fuzzPageSize/2, len(live) - 1} {
		f.Add(live[:n])
	}
	f.Add(make([]byte, len(live)))

	d, err := Open(f.TempDir(), fuzzPageSize)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { d.Close() })
	path := filepath.Join(d.Path(), partFileName(1))
	garbage := pageOf(0x5A, d.SlotSize())
	f.Fuzz(func(t *testing.T, slot []byte) {
		check := func(slot []byte) {
			if err := os.WriteFile(path, slot, 0o644); err != nil {
				t.Fatal(err)
			}
			page, lsn, err := d.ReadPage(1, 1, make([]byte, d.SlotSize()))
			reused, rlsn, rerr := d.ReadPage(1, 1, bytes.Clone(garbage))
			if (err == nil) != (rerr == nil) || errClass(err) != errClass(rerr) || lsn != rlsn || !bytes.Equal(page, reused) {
				t.Fatalf("fresh buffer: %v lsn %d; recycled buffer: %v lsn %d (pages equal %v)",
					err, lsn, rerr, rlsn, bytes.Equal(page, reused))
			}
			if err != nil {
				if errClass(err) == nil {
					t.Fatalf("ReadPage: unexpected error %v", err)
				}
				return
			}
			if len(page) != fuzzPageSize {
				t.Fatalf("accepted page of %d bytes, want %d", len(page), fuzzPageSize)
			}
			if !bytes.Equal(page, slot[hdrSize:hdrSize+fuzzPageSize]) {
				t.Fatal("accepted page differs from the slot's payload")
			}
			if want := binary.LittleEndian.Uint64(slot[12:20]); lsn != want {
				t.Fatalf("lsn = %d, want %d", lsn, want)
			}
		}
		check(slot)
		if len(slot) >= d.slotSize {
			sealed := bytes.Clone(slot)
			binary.LittleEndian.PutUint32(sealed[4:8], crc32.Checksum(sealed[crcFrom:d.slotSize], castagnoli))
			check(sealed)
		}
	})
}

// errClass maps a ReadPage error to the sentinel it wraps: nil for
// success and for any error that is neither ErrAbsent nor ErrTorn.
func errClass(err error) error {
	for _, c := range []error{ErrAbsent, ErrTorn} {
		if errors.Is(err, c) {
			return c
		}
	}
	return nil
}
