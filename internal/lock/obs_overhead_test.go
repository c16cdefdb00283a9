package lock

import (
	"sort"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/oid"
)

// lockCycleNs runs n Begin/Lock/Finish cycles on the given locking
// function and returns ns per cycle.
func lockCycleNs(m *Manager, n int, step func(txn TxnID, o oid.OID)) float64 {
	pool := make([]oid.OID, 64)
	for i := range pool {
		pool[i] = oid.New(1, oid.PageNum(i/8+1), oid.SlotNum(i%8))
	}
	txn := TxnID(1)
	start := time.Now()
	for i := 0; i < n; i++ {
		txn++
		m.Begin(txn)
		step(txn, pool[i%len(pool)])
		m.Finish(txn)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// TestDisabledTracingOverhead is the observability budget: with no
// tracer installed, Manager.Lock may cost at most 2% (or 10 ns absolute
// — whichever is larger, to stay robust on fast machines) over calling
// the undecorated acquire path directly. The guarded path's entire disabled cost
// is one fault-point check plus one atomic tracer load; this test keeps
// anyone from accidentally adding a time.Now() or allocation to it.
//
// A and B rounds are interleaved so frequency scaling and background
// load hit both sides alike, and the medians are compared. The whole
// comparison retries a few times before failing: this is a guardrail
// against systematic regressions, not a precision benchmark.
func TestDisabledTracingOverhead(t *testing.T) {
	if raceEnabled {
		t.Skip("timing budget is meaningless under the race detector")
	}
	if testing.Short() {
		t.Skip("timing rounds")
	}
	if obs.Enabled() {
		t.Fatal("a tracer is installed; the disabled-path budget needs a quiet process")
	}

	m := NewManager()
	wrapped := func(txn TxnID, o oid.OID) { m.Lock(txn, o, Exclusive) }
	direct := func(txn TxnID, o oid.OID) { m.acquire(txn, o, Exclusive, m.timeout) }

	const (
		cycles = 200_000
		rounds = 7
	)
	median := func(xs []float64) float64 {
		sort.Float64s(xs)
		return xs[len(xs)/2]
	}

	var overhead float64
	for attempt := 1; ; attempt++ {
		lockCycleNs(m, cycles, wrapped) // warm up both paths
		lockCycleNs(m, cycles, direct)
		var a, b []float64
		for r := 0; r < rounds; r++ {
			a = append(a, lockCycleNs(m, cycles, wrapped))
			b = append(b, lockCycleNs(m, cycles, direct))
		}
		wrappedNs, directNs := median(a), median(b)
		overhead = wrappedNs - directNs
		if overhead <= directNs*0.02 || overhead <= 10 {
			t.Logf("attempt %d: wrapped %.1f ns/op, direct %.1f ns/op (Δ %.2f ns)",
				attempt, wrappedNs, directNs, overhead)
			return
		}
		t.Logf("attempt %d: wrapped %.1f ns/op, direct %.1f ns/op (Δ %.2f ns) — over budget",
			attempt, wrappedNs, directNs, overhead)
		if attempt == 3 {
			t.Fatalf("disabled tracing costs %.2f ns/op over 3 attempts; budget is 2%% or 10 ns", overhead)
		}
	}
}
