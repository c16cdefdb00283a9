package lock

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/oid"
)

func BenchmarkUncontendedLockFinish(b *testing.B) {
	m := NewManager()
	o := oid.New(1, 1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txn := TxnID(i + 1)
		m.Begin(txn)
		if err := m.Lock(txn, o, Exclusive); err != nil {
			b.Fatal(err)
		}
		m.Finish(txn)
	}
}

// BenchmarkWalkShapeLockFinish is one random-walk transaction's lock
// traffic: Begin, eight locks with half of them exclusive, Finish.
func BenchmarkWalkShapeLockFinish(b *testing.B) {
	m := NewManager()
	objs := walkShapeObjs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		walkShapeTxn(m, TxnID(i+1), objs)
	}
}

func BenchmarkSharedLockFanIn(b *testing.B) {
	m := NewManager()
	o := oid.New(1, 1, 1)
	var next atomic.Uint64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			txn := TxnID(next.Add(1))
			m.Begin(txn)
			m.Lock(txn, o, Shared)
			m.Finish(txn)
		}
	})
}

// benchImpls pairs the production manager with the single-mutex oracle,
// so the scaling sweeps below report "striped" and "reference" side by
// side. These sweeps are the only striped-vs-reference micro comparison
// in the tree; which manager ships is decided end to end (perfbench).
var benchImpls = []struct {
	name string
	mk   func() lockManager
}{
	{"striped", func() lockManager { return NewManager() }},
	{"reference", func() lockManager { return newOracle() }},
}

// benchGoroutines is the concurrency axis of the scaling sweeps. Exactly g
// OS-schedulable goroutines are spawned regardless of GOMAXPROCS so the
// sweep shape is comparable across hosts (on a single-core host the higher
// points measure lock-manager overhead under goroutine multiplexing rather
// than true parallel speedup).
var benchGoroutines = []int{1, 2, 4, 8}

// runLockBench drives b.N Begin/Lock/Finish cycles split over g
// goroutines. Each goroutine works a disjoint OID pool, so all contention
// observed is on the lock manager's own structures — the axis the striped
// manager is built to scale.
func runLockBench(b *testing.B, m lockManager, g int, perTxnLocks int) {
	b.ReportAllocs()
	var wg sync.WaitGroup
	per := b.N / g
	b.ResetTimer()
	for w := 0; w < g; w++ {
		n := per
		if w == g-1 {
			n = b.N - per*(g-1)
		}
		wg.Add(1)
		go func(w, n int) {
			defer wg.Done()
			// Disjoint partitions per goroutine; a small rotating pool
			// keeps the lock table populated without unbounded growth.
			pool := make([]oid.OID, 64)
			for i := range pool {
				pool[i] = oid.New(oid.PartitionID(w+1), oid.PageNum(i/8+1), oid.SlotNum(i%8))
			}
			txn := TxnID(uint64(w)<<32 + 1)
			for i := 0; i < n; i++ {
				txn++
				m.Begin(txn)
				for l := 0; l < perTxnLocks; l++ {
					if err := m.Lock(txn, pool[(i+l)%len(pool)], Exclusive); err != nil {
						b.Error(err)
						return
					}
				}
				m.Finish(txn)
			}
		}(w, n)
	}
	wg.Wait()
}

// BenchmarkLockScaling is the headline sweep: impl × goroutines, one
// exclusive lock per transaction on disjoint objects. It asserts no
// speedup. The oracle keeps map-based lock heads and transaction state,
// so the gap between the two includes the production manager's
// allocation-free layout (DESIGN.md §5.5), not only its striping.
func BenchmarkLockScaling(b *testing.B) {
	for _, impl := range benchImpls {
		for _, g := range benchGoroutines {
			b.Run(fmt.Sprintf("impl=%s/goroutines=%d", impl.name, g), func(b *testing.B) {
				runLockBench(b, impl.mk(), g, 1)
			})
		}
	}
}

// BenchmarkLockScalingMultiLock holds 8 locks per transaction, making
// Finish's multi-bucket release path the dominant cost.
func BenchmarkLockScalingMultiLock(b *testing.B) {
	for _, impl := range benchImpls {
		for _, g := range benchGoroutines {
			b.Run(fmt.Sprintf("impl=%s/goroutines=%d", impl.name, g), func(b *testing.B) {
				runLockBench(b, impl.mk(), g, 8)
			})
		}
	}
}

// BenchmarkLockSharedHotSet has every goroutine take Shared locks on the
// same small hot set — the read-mostly traversal pattern of the paper's
// workload. Stripes do not help the hot object itself but do isolate it
// from the rest of the table.
func BenchmarkLockSharedHotSet(b *testing.B) {
	hot := make([]oid.OID, 4)
	for i := range hot {
		hot[i] = oid.New(1, 1, oid.SlotNum(i))
	}
	for _, impl := range benchImpls {
		for _, g := range benchGoroutines {
			b.Run(fmt.Sprintf("impl=%s/goroutines=%d", impl.name, g), func(b *testing.B) {
				m := impl.mk()
				var wg sync.WaitGroup
				per := b.N / g
				b.ResetTimer()
				for w := 0; w < g; w++ {
					n := per
					if w == g-1 {
						n = b.N - per*(g-1)
					}
					wg.Add(1)
					go func(w, n int) {
						defer wg.Done()
						txn := TxnID(uint64(w)<<32 + 1)
						for i := 0; i < n; i++ {
							txn++
							m.Begin(txn)
							m.Lock(txn, hot[i%len(hot)], Shared)
							m.Finish(txn)
						}
					}(w, n)
				}
				wg.Wait()
			})
		}
	}
}
