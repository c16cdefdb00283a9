package storage

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/oid"
)

// Page get/put benchmarks in both store modes, so the disk path's hit
// and miss costs enter the perf trajectory alongside the memory mode
// they must not regress. The disk cells split by pool behavior: *Hit
// keeps the working set inside the frame budget (buffer-pool overhead
// alone), *Miss makes the budget a fraction of the working set so most
// accesses fault, evict, and reread through the segment file.

// benchStore returns a store in the requested mode, pre-filled with
// enough 100-byte objects to span ~64 pages.
func benchStore(b *testing.B, disk bool, frames int) (*Store, []oid.OID) {
	b.Helper()
	var s *Store
	if disk {
		var err error
		if s, err = NewDiskBacked(b.TempDir(), frames, WithPageSize(4096)); err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { s.Close() })
	} else {
		s = New(WithPageSize(4096))
	}
	return s, benchFill(b, s, 1)
}

// benchFill creates partition part and fills it with 100-byte objects
// until it spans ~64 pages.
func benchFill(b *testing.B, s *Store, part oid.PartitionID) []oid.OID {
	b.Helper()
	if err := s.CreatePartition(part); err != nil {
		b.Fatal(err)
	}
	var oids []oid.OID
	data := make([]byte, 100)
	for len(oids) == 0 || int(oids[len(oids)-1].Page()) < 64 {
		o, err := s.Allocate(part, data, false, nil)
		if err != nil {
			b.Fatal(err)
		}
		oids = append(oids, o)
	}
	return oids
}

func benchRead(b *testing.B, s *Store, oids []oid.OID) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	order := rng.Perm(len(oids))
	buf := make([]byte, 0, 128)
	b.ReportAllocs()
	b.ResetTimer()
	var err error
	for i := 0; i < b.N; i++ {
		if buf, err = s.Read(oids[order[i%len(order)]], buf[:0]); err != nil {
			b.Fatal(err)
		}
	}
}

func benchUpdate(b *testing.B, s *Store, oids []oid.OID) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	order := rng.Perm(len(oids))
	data := make([]byte, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data[0] = byte(i)
		if err := applyUpdate(s, oids[order[i%len(order)]], data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadMemory(b *testing.B) {
	s, oids := benchStore(b, false, 0)
	benchRead(b, s, oids)
}

func BenchmarkReadDiskHit(b *testing.B) {
	s, oids := benchStore(b, true, 128) // working set fits: pure pool overhead
	benchRead(b, s, oids)
}

func BenchmarkReadDiskMiss(b *testing.B) {
	s, oids := benchStore(b, true, 8) // 8 frames vs ~64 pages: mostly faults
	benchRead(b, s, oids)
}

// BenchmarkReadDiskMissParallel gives each parallel goroutine its own
// ~64-page partition, with the pool at 1/8 of all pages: nearly every
// read faults, and faults on different partitions contend only on the
// pool's bookkeeping, never on each other's segment I/O.
func BenchmarkReadDiskMissParallel(b *testing.B) {
	procs := runtime.GOMAXPROCS(0)
	s, err := NewDiskBacked(b.TempDir(), procs*64/8, WithPageSize(4096))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	parts := make([][]oid.OID, procs)
	for i := range parts {
		parts[i] = benchFill(b, s, oid.PartitionID(i+1))
	}
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		oids := parts[int(next.Add(1)-1)%procs]
		order := rand.New(rand.NewSource(int64(len(oids)))).Perm(len(oids))
		buf := make([]byte, 0, 128)
		var err error
		for i := 0; pb.Next(); i++ {
			if buf, err = s.Read(oids[order[i%len(order)]], buf[:0]); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func BenchmarkUpdateMemory(b *testing.B) {
	s, oids := benchStore(b, false, 0)
	benchUpdate(b, s, oids)
}

func BenchmarkUpdateDiskHit(b *testing.B) {
	s, oids := benchStore(b, true, 128)
	benchUpdate(b, s, oids)
}

func BenchmarkUpdateDiskMiss(b *testing.B) {
	s, oids := benchStore(b, true, 8) // every faulting update also flushes a dirty victim
	benchUpdate(b, s, oids)
}

func BenchmarkAllocateFreeMemory(b *testing.B) {
	s := New(WithPageSize(4096))
	s.CreatePartition(0)
	data := make([]byte, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o, err := s.Allocate(0, data, false, nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := applyFree(s, o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAllocateFreeDisk(b *testing.B) {
	s, err := NewDiskBacked(b.TempDir(), 32, WithPageSize(4096))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	s.CreatePartition(0)
	data := make([]byte, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o, err := s.Allocate(0, data, false, nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := applyFree(s, o); err != nil {
			b.Fatal(err)
		}
	}
}
