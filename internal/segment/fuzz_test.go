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
// mutated header reaches the flag and length checks. ReadPage must never
// panic and may fail only with ErrAbsent or ErrTorn; a page it accepts
// must be exactly the slot's payload, with the slot's LSN.
func FuzzReadPage(f *testing.F) {
	seed, err := Open(f.TempDir(), fuzzPageSize)
	if err != nil {
		f.Fatal(err)
	}
	live := seed.encodeSlot(flagLive, 42, pageOf(0xAB, fuzzPageSize))
	f.Add(live)
	f.Add(seed.encodeSlot(0, 7, nil))
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
	f.Fuzz(func(t *testing.T, slot []byte) {
		check := func(slot []byte) {
			if err := os.WriteFile(path, slot, 0o644); err != nil {
				t.Fatal(err)
			}
			page, lsn, err := d.ReadPage(1, 1)
			if err != nil {
				if !errors.Is(err, ErrAbsent) && !errors.Is(err, ErrTorn) {
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
