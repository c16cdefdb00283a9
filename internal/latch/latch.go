// Package latch provides short-term read/write latches keyed by OID.
//
// Latches guarantee physical consistency only: a latch is held for the
// duration of reading or writing one object's bytes and released
// immediately after, never across a wait for a lock or I/O. The fuzzy
// traversal of IRA (paper §3.4) reads the object graph under latches
// alone — no locks — which is what makes it non-blocking with respect to
// concurrent transactions.
//
// Latches are striped: an OID hashes to one of a fixed number of
// read-write stripes. Two objects on the same stripe contend with each
// other, which is harmless for correctness and keeps the structure
// allocation-free. Stripe ordering is irrelevant because callers never
// hold two latches at once.
package latch

import (
	"sync"
	"time"
	"unsafe"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/oid"
)

// fpLatchAcquire lets a fault registry stretch latch hold windows
// (KindDelay) to widen latch/traversal races. Latches have no error
// path, so error-kind firings are ignored; the delay happens inside
// Maybe before the latch is taken.
var fpLatchAcquire = fault.Point(fault.LatchAcquire)

// DefaultStripes is the stripe count used by New when 0 is requested.
const DefaultStripes = 1024

// stripe is one latch, padded past a cache line (with prefetch
// headroom) so that adjacent stripes never share a line.
type stripe struct {
	sync.RWMutex
	_ [128 - unsafe.Sizeof(sync.RWMutex{})%128]byte
}

// Table is a striped latch table. The zero value is not usable; call New.
type Table struct {
	stripes []stripe
	mask    uint64
}

// New creates a latch table with the given number of stripes, rounded up
// to a power of two. n <= 0 selects DefaultStripes.
func New(n int) *Table {
	if n <= 0 {
		n = DefaultStripes
	}
	size := 1
	for size < n {
		size <<= 1
	}
	return &Table{stripes: make([]stripe, size), mask: uint64(size - 1)}
}

// stripe maps an OID to its stripe index. OIDs of objects on the same page
// differ only in slot bits, so a multiplicative hash spreads them.
func (t *Table) stripe(o oid.OID) *stripe {
	h := uint64(o) * 0x9e3779b97f4a7c15
	h ^= h >> 32
	return &t.stripes[h&t.mask]
}

// RLatch acquires the read latch for o.
func (t *Table) RLatch(o oid.OID) {
	_ = fpLatchAcquire.Maybe()
	if obs.Enabled() {
		start := time.Now()
		t.stripe(o).RLock()
		obs.Observe(obs.LatchWait, time.Since(start))
		return
	}
	t.stripe(o).RLock()
}

// RUnlatch releases the read latch for o.
func (t *Table) RUnlatch(o oid.OID) { t.stripe(o).RUnlock() }

// Latch acquires the write latch for o.
func (t *Table) Latch(o oid.OID) {
	_ = fpLatchAcquire.Maybe()
	if obs.Enabled() {
		start := time.Now()
		t.stripe(o).Lock()
		obs.Observe(obs.LatchWait, time.Since(start))
		return
	}
	t.stripe(o).Lock()
}

// Unlatch releases the write latch for o.
func (t *Table) Unlatch(o oid.OID) { t.stripe(o).Unlock() }
