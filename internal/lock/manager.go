package lock

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/oid"
)

// Manager is the lock manager. Lock heads are spread over DefaultStripes
// hash buckets keyed by OID (the internal/latch scheme), and
// per-transaction state over a separately sharded transaction table, so
// the IRA fleet's workers and the MPL transaction threads only contend
// when they touch the same bucket.
//
// Mutex ordering (a bucket mutex is never held while taking another
// bucket mutex):
//
//	bucket.mu → txnBucket.mu   (waiter lookup during grant)
//	bucket.mu → txnState.mu    (held/everLocked bookkeeping)
//
// txnBucket.mu and txnState.mu are leaves: nothing is acquired under
// them. Finish releases its locks one bucket at a time in ascending
// bucket order, holding a single bucket mutex at any instant, so the
// split cannot deadlock.
type Manager struct {
	timeout      time.Duration
	trackHistory bool

	buckets    [DefaultStripes]bucket
	txnBuckets [DefaultStripes]txnBucket

	acquired atomic.Uint64
	waits    atomic.Uint64
	timeouts atomic.Uint64
}

// bucket owns a slice of the lock table. Padded to a cache line so
// neighbouring buckets do not false-share.
type bucket struct {
	mu    sync.Mutex
	locks map[oid.OID]*lockState
	_     [40]byte
}

// txnBucket owns a slice of the transaction table.
type txnBucket struct {
	mu   sync.Mutex
	txns map[TxnID]*txnState
	_    [40]byte
}

// txnState tracks one active transaction. Its mutex guards held and
// everLocked, which the grant path mutates from other transactions'
// goroutines; done and finishing are touched only by the owner (the
// caller contract forbids racing Finish with the txn's own Lock calls).
type txnState struct {
	mu   sync.Mutex
	held map[oid.OID]Mode
	// everLocked lists objects whose lockState.ever contains this txn,
	// so Finish can clean them up.
	everLocked map[oid.OID]struct{}
	done       chan struct{} // closed when the transaction finishes
	// finishing serializes duplicate Finish calls: the loser observes the
	// transaction as already gone.
	finishing atomic.Bool
}

func newTxnState() *txnState {
	return &txnState{
		held:       make(map[oid.OID]Mode),
		everLocked: make(map[oid.OID]struct{}),
		done:       make(chan struct{}),
	}
}

// NewManager creates a lock manager.
func NewManager(opts ...Option) *Manager {
	cfg := config{timeout: DefaultTimeout}
	for _, o := range opts {
		o(&cfg)
	}
	m := &Manager{timeout: cfg.timeout, trackHistory: cfg.trackHistory}
	for i := range m.buckets {
		m.buckets[i].locks = make(map[oid.OID]*lockState)
	}
	for i := range m.txnBuckets {
		m.txnBuckets[i].txns = make(map[TxnID]*txnState)
	}
	return m
}

// stripeHash spreads a key over the DefaultStripes buckets. OIDs of
// objects on the same page differ only in slot bits, so a multiplicative
// hash spreads them.
func stripeHash(k uint64) uint64 {
	h := k * 0x9e3779b97f4a7c15
	h ^= h >> 32
	return h & (DefaultStripes - 1)
}

// bucketIndex maps an OID to its lock-table bucket.
func bucketIndex(o oid.OID) uint64 { return stripeHash(uint64(o)) }

func (m *Manager) bucket(o oid.OID) *bucket { return &m.buckets[bucketIndex(o)] }

func (m *Manager) txnBucket(txn TxnID) *txnBucket {
	return &m.txnBuckets[stripeHash(uint64(txn))]
}

// lookupTxn fetches txn's state. The txn-bucket mutex is a leaf here, but
// note the grant path calls this while holding a lock-bucket mutex — that
// ordering (bucket.mu → txnBucket.mu) is the only nesting of the two.
func (m *Manager) lookupTxn(txn TxnID) (*txnState, bool) {
	tb := m.txnBucket(txn)
	tb.mu.Lock()
	ts, ok := tb.txns[txn]
	tb.mu.Unlock()
	return ts, ok
}

// Begin registers a transaction with the lock manager.
func (m *Manager) Begin(txn TxnID) {
	tb := m.txnBucket(txn)
	tb.mu.Lock()
	defer tb.mu.Unlock()
	if _, ok := tb.txns[txn]; ok {
		panic(fmt.Sprintf("lock: transaction %d begun twice", txn))
	}
	tb.txns[txn] = newTxnState()
}

// Finish releases every lock held by txn, clears its history entries, and
// wakes anyone waiting for the transaction to complete. It is not one
// atomic step: locks are released bucket by bucket, in ascending bucket
// order with a single bucket mutex held at a time. The externally visible
// contract is still that of one step — by the time Finish returns (and
// before done is closed) every lock is released and every history entry
// cleared.
func (m *Manager) Finish(txn TxnID) error {
	ts, ok := m.lookupTxn(txn)
	if !ok || !ts.finishing.CompareAndSwap(false, true) {
		return fmt.Errorf("%w: %d", ErrUnknownTxn, txn)
	}

	// Snapshot the lock sets. The owner is the only goroutine still
	// operating on this transaction (Finish must not race its own pending
	// Lock), so no grants can arrive after the snapshot.
	ts.mu.Lock()
	byBucket := make(map[uint64]*finishWork)
	for o := range ts.held {
		w := byBucket[bucketIndex(o)]
		if w == nil {
			w = &finishWork{}
			byBucket[bucketIndex(o)] = w
		}
		w.release = append(w.release, o)
	}
	for o := range ts.everLocked {
		w := byBucket[bucketIndex(o)]
		if w == nil {
			w = &finishWork{}
			byBucket[bucketIndex(o)] = w
		}
		w.ever = append(w.ever, o)
	}
	ts.mu.Unlock()

	idxs := make([]uint64, 0, len(byBucket))
	for i := range byBucket {
		idxs = append(idxs, i)
	}
	sort.Slice(idxs, func(a, b int) bool { return idxs[a] < idxs[b] })
	for _, i := range idxs {
		b := &m.buckets[i]
		w := byBucket[i]
		b.mu.Lock()
		for _, o := range w.release {
			m.releaseLocked(b, txn, ts, o)
		}
		for _, o := range w.ever {
			if ls, ok := b.locks[o]; ok {
				delete(ls.ever, txn)
				m.maybeReap(b, o, ls)
			}
		}
		b.mu.Unlock()
	}

	tb := m.txnBucket(txn)
	tb.mu.Lock()
	delete(tb.txns, txn)
	tb.mu.Unlock()
	close(ts.done)
	return nil
}

// finishWork is one bucket's share of a Finish.
type finishWork struct {
	release []oid.OID
	ever    []oid.OID
}

// Done returns a channel closed when txn finishes, or a closed channel if
// the transaction is already gone.
func (m *Manager) Done(txn TxnID) <-chan struct{} {
	if ts, ok := m.lookupTxn(txn); ok {
		return ts.done
	}
	ch := make(chan struct{})
	close(ch)
	return ch
}

// Holds reports the mode txn holds on o, if any.
func (m *Manager) Holds(txn TxnID, o oid.OID) (Mode, bool) {
	ts, ok := m.lookupTxn(txn)
	if !ok {
		return 0, false
	}
	ts.mu.Lock()
	mode, ok := ts.held[o]
	ts.mu.Unlock()
	return mode, ok
}

// HeldLocks returns the set of objects txn currently locks.
func (m *Manager) HeldLocks(txn TxnID) []oid.OID {
	ts, ok := m.lookupTxn(txn)
	if !ok {
		return nil
	}
	ts.mu.Lock()
	out := make([]oid.OID, 0, len(ts.held))
	for o := range ts.held {
		out = append(out, o)
	}
	ts.mu.Unlock()
	return out
}

// Stats returns a copy of the cumulative counters.
func (m *Manager) Stats() Stats {
	return Stats{
		Acquired: m.acquired.Load(),
		Waits:    m.waits.Load(),
		Timeouts: m.timeouts.Load(),
	}
}

// acquire is the locking behind Lock and LockTimeout, without the fault
// point and the tracing they add.
func (m *Manager) acquire(txn TxnID, o oid.OID, mode Mode, timeout time.Duration) error {
	ts, ok := m.lookupTxn(txn)
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownTxn, txn)
	}
	b := m.bucket(o)
	b.mu.Lock()
	ls := b.locks[o]
	if ls == nil {
		ls = newLockState()
		b.locks[o] = ls
	}
	held, holding := ls.holders[txn]
	if holding && held >= mode {
		b.mu.Unlock()
		return nil
	}
	upgrade := holding // held == Shared, mode == Exclusive
	w := &waiter{txn: txn, mode: mode, upgrade: upgrade, granted: make(chan struct{})}
	if grantable(ls, w) {
		m.grant(ls, w, ts, o)
		m.acquired.Add(1)
		b.mu.Unlock()
		return nil
	}
	enqueue(ls, w)
	m.waits.Add(1)
	b.mu.Unlock()

	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-w.granted:
		return nil
	case <-timer.C:
	}
	// Timed out — but a grant may have raced the timer.
	b.mu.Lock()
	defer b.mu.Unlock()
	select {
	case <-w.granted:
		return nil
	default:
	}
	dequeue(ls, w)
	m.maybeReap(b, o, ls)
	m.timeouts.Add(1)
	return timeoutErrorf("txn %d, %s lock on %s", txn, mode, o)
}

// Unlock releases txn's lock on o before transaction end (short-duration
// locking, paper §4.1). Under strict 2PL, callers use Finish instead.
func (m *Manager) Unlock(txn TxnID, o oid.OID) error {
	ts, ok := m.lookupTxn(txn)
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownTxn, txn)
	}
	b := m.bucket(o)
	b.mu.Lock()
	defer b.mu.Unlock()
	ls, has := b.locks[o]
	if !has {
		return fmt.Errorf("lock: txn %d does not hold %s", txn, o)
	}
	if _, holding := ls.holders[txn]; !holding {
		return fmt.Errorf("lock: txn %d does not hold %s", txn, o)
	}
	m.releaseLocked(b, txn, ts, o)
	return nil
}

// EverLockedBy returns the active transactions (excluding `exclude`) that
// have ever locked o. Requires history tracking.
func (m *Manager) EverLockedBy(o oid.OID, exclude TxnID) []TxnID {
	b := m.bucket(o)
	b.mu.Lock()
	defer b.mu.Unlock()
	ls, ok := b.locks[o]
	if !ok {
		return nil
	}
	out := make([]TxnID, 0, len(ls.ever))
	for t := range ls.ever {
		if t != exclude {
			out = append(out, t)
		}
	}
	return out
}

// ActiveTxns returns the ids of all registered transactions.
func (m *Manager) ActiveTxns() []TxnID {
	var out []TxnID
	for i := range m.txnBuckets {
		tb := &m.txnBuckets[i]
		tb.mu.Lock()
		for t := range tb.txns {
			out = append(out, t)
		}
		tb.mu.Unlock()
	}
	return out
}

// grant records the grant of w. Caller holds the bucket mutex for o;
// ts.mu is a leaf below it.
func (m *Manager) grant(ls *lockState, w *waiter, ts *txnState, o oid.OID) {
	ls.holders[w.txn] = w.mode
	ts.mu.Lock()
	ts.held[o] = w.mode
	if m.trackHistory {
		ls.ever[w.txn] = struct{}{}
		ts.everLocked[o] = struct{}{}
	}
	ts.mu.Unlock()
	close(w.granted)
}

// releaseLocked removes txn's hold on o and grants now-compatible waiters
// in FIFO order. Caller holds b's mutex.
func (m *Manager) releaseLocked(b *bucket, txn TxnID, ts *txnState, o oid.OID) {
	ls, ok := b.locks[o]
	if !ok {
		return
	}
	delete(ls.holders, txn)
	ts.mu.Lock()
	delete(ts.held, o)
	ts.mu.Unlock()
	// Grant from the head of the queue while compatible.
	for len(ls.queue) > 0 {
		w := ls.queue[0]
		if !compatible(ls, w) {
			break
		}
		ls.queue = ls.queue[1:]
		wts, ok := m.lookupTxn(w.txn)
		if !ok {
			// The waiter's transaction finished while queued. That
			// violates the caller contract (Finish must not race a
			// pending Lock), so do not fake a grant; the orphaned
			// request will time out.
			continue
		}
		m.grant(ls, w, wts, o)
		m.acquired.Add(1)
	}
	m.maybeReap(b, o, ls)
}

// maybeReap drops an empty lock head. Caller holds b's mutex.
func (m *Manager) maybeReap(b *bucket, o oid.OID, ls *lockState) {
	if reapable(ls) {
		delete(b.locks, o)
	}
}
