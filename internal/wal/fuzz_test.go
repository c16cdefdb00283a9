package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"repro/internal/oid"
)

// goldenRecords are the codec's seed cases: the round-trip records, a
// randomized-shape one, and one record of every type, compensations
// included.
func goldenRecords() []*Record {
	recs := []*Record{
		{
			LSN: 42, Prev: 41, Type: RecRefUpdate, Txn: 7, CLR: true,
			OID: oid.New(1, 2, 3), Child: oid.New(4, 5, 6), Child2: oid.New(7, 8, 9),
			Before: []byte("before"), After: []byte("after"),
			UndoNxt: 40, Active: []TxnID{1, 2, 3},
		},
		{LSN: 1<<63 + 5, Prev: 9, Type: RecType(200), Txn: 1 << 40, OID: oid.OID(^uint64(0)), Child: 3, After: []byte{0}},
		{Type: RecCheckpoint, LSN: 10, Active: []TxnID{4, 5}},
		{Type: RecPartCreate, LSN: 2, OID: oid.New(3, 0, 0), Child: 1},
	}
	for typ := RecBegin; typ <= RecPartDrop; typ++ {
		r := &Record{
			LSN: LSN(100 + typ), Prev: LSN(99 + typ), Type: typ, Txn: 3,
			OID: oid.New(1, 4, oid.SlotNum(typ)), Obj: oid.New(1, 0, oid.SlotNum(typ)),
			Child: oid.New(2, 2, 2), Child2: oid.New(2, 3, 3),
			Before: []byte("before-image"), After: []byte("after-image"),
		}
		recs = append(recs, r)
		if c := r.Compensation(); c != nil {
			c.LSN, c.Txn, c.Prev = r.LSN+50, r.Txn, r.LSN
			recs = append(recs, c)
		}
	}
	return recs
}

// frame wraps body in a valid record header, so a mutated body reaches
// the structural decoder instead of stopping at the checksum.
func frame(body []byte) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, recMagic)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(body)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(body))
	return append(buf, body...)
}

// FuzzDecodeRecord feeds arbitrary bytes to Decode twice: as they are,
// and as the body of a correctly framed record. Decode must never panic
// and may fail only with ErrCorrupt (ErrTorn wraps it); a record it
// accepts must re-encode to exactly the bytes it consumed, and
// computing its compensation must not panic either.
func FuzzDecodeRecord(f *testing.F) {
	for _, r := range goldenRecords() {
		b := Encode(r)
		f.Add(b)
		f.Add(b[:len(b)-1]) // torn tail
		f.Add(encodeBody(r))
	}
	f.Add([]byte{})
	f.Add([]byte{0x47, 0x4f, 0x52})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, frame(data)} {
			r, n, err := Decode(in)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("Decode error %v is not ErrCorrupt", err)
				}
				continue
			}
			if n < recHeaderBytes || n > len(in) {
				t.Fatalf("Decode consumed %d of %d bytes", n, len(in))
			}
			if re := Encode(r); !bytes.Equal(re, in[:n]) {
				t.Fatalf("re-encode differs:\n  in  %x\n  out %x", in[:n], re)
			}
			r.Compensation()
		}
	})
}
