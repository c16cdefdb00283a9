package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/oid"
)

// snapshotHeader is the serialized snapshot header: magic, page size,
// fill factor and partition count.
func snapshotHeader(nParts uint32) []byte {
	b := binary.LittleEndian.AppendUint32(nil, snapMagic)
	b = binary.LittleEndian.AppendUint32(b, 8192)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(DefaultFillFactor))
	return binary.LittleEndian.AppendUint32(b, nParts)
}

// TestReadSnapshotCorruptCountsAllocateLittle: a partition or page count
// the input cannot hold fails with ErrBadSnapshot at the first missing
// entry, without first allocating room for the whole count.
func TestReadSnapshotCorruptCountsAllocateLittle(t *testing.T) {
	// One partition header claiming the largest page count accepted.
	part := binary.LittleEndian.AppendUint32(nil, 1) // id
	part = binary.LittleEndian.AppendUint64(part, 0) // nLive
	part = binary.LittleEndian.AppendUint64(part, 1) // cursor
	part = binary.LittleEndian.AppendUint64(part, 1) // denseFloor
	part = append(part, 0)                           // mem
	part = binary.LittleEndian.AppendUint64(part, 1<<24)
	for name, in := range map[string][]byte{
		"partitions": snapshotHeader(math.MaxUint32),
		"pages":      append(snapshotHeader(1), part...),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadSnapshot(bytes.NewReader(in))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: err = %v, want ErrBadSnapshot", name, err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
			t.Errorf("%s: a %d-byte input allocated %d bytes", name, len(in), n)
		}
	}
}

// FuzzReadSnapshot feeds arbitrary bytes to ReadSnapshot. It must never
// panic and may fail only with ErrBadSnapshot; a snapshot it accepts
// must survive WriteTo and ReadSnapshot unchanged.
func FuzzReadSnapshot(f *testing.F) {
	s := New(WithPageSize(256))
	for p := oid.PartitionID(0); p < 2; p++ {
		if err := s.CreatePartition(p); err != nil {
			f.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			if _, err := s.Allocate(p, []byte{byte(i), byte(p)}, i%3 == 0, nil); err != nil {
				f.Fatal(err)
			}
		}
	}
	for _, st := range []*Store{s, New()} {
		snap, err := st.Snapshot()
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := snap.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		whole := buf.Bytes()
		f.Add(whole)
		for _, n := range []int{0, 4, 8, 16, 20, 57, len(whole) / 2, len(whole) - 1} {
			if n <= len(whole) {
				f.Add(whole[:n])
			}
		}
	}
	f.Add(snapshotHeader(math.MaxUint32))
	f.Add([]byte("not a snapshot"))
	f.Fuzz(func(t *testing.T, in []byte) {
		snap, err := ReadSnapshot(bytes.NewReader(in))
		if err != nil {
			if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("ReadSnapshot: unexpected error %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if _, err := snap.WriteTo(&buf); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		again, err := ReadSnapshot(&buf)
		if err != nil {
			t.Fatalf("re-read of an accepted snapshot: %v", err)
		}
		if !reflect.DeepEqual(snap, again) {
			t.Fatalf("accepted snapshot does not round-trip:\n%+v\n%+v", snap, again)
		}
	})
}
