package lock

import (
	"cmp"
	"fmt"
	"slices"
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
//	bucket.mu → txnState.mu    (lock-set bookkeeping)
//
// txnBucket.mu and txnState.mu are leaves: nothing is acquired under
// them. Finish releases its locks one bucket at a time in ascending
// bucket order, holding a single bucket mutex at any instant, so the
// split cannot deadlock.
//
// With deadlock detection on, dlMu is taken first, and only by a request
// that has just queued:
//
//	dlMu → bucket.mu → txnBucket.mu / txnState.mu
//
// The waits-for walk under it locks one bucket at a time, like Finish.
type Manager struct {
	timeout      time.Duration
	trackHistory bool
	detect       bool

	buckets    [DefaultStripes]bucket
	txnBuckets [DefaultStripes]txnBucket

	// dlMu serializes waits-for walks, so a cycle is found by exactly
	// one walk, that of the last of its requests to queue, and loses
	// exactly one request. It also guards every txnState's wait and
	// waitObj.
	dlMu sync.Mutex

	acquired  atomic.Uint64
	waits     atomic.Uint64
	timeouts  atomic.Uint64
	deadlocks atomic.Uint64
}

// bucket owns a slice of the lock table. Padded to a cache line so
// neighbouring buckets do not false-share.
type bucket struct {
	mu    sync.Mutex
	locks map[oid.OID]*lockState
	// free holds reaped heads for reuse, at most maxFreeHeads of them,
	// so a steady stream of uncontended grants allocates no heads.
	free []*lockState
	_    [24]byte
}

// maxFreeHeads bounds each bucket's free list, so a transaction that
// released thousands of locks does not pin their heads.
const maxFreeHeads = 16

// head returns an empty lock head, reusing a reaped one if the
// bucket has one. Caller holds b's mutex.
func (b *bucket) head(history bool) *lockState {
	if n := len(b.free); n > 0 {
		ls := b.free[n-1]
		b.free[n-1] = nil
		b.free = b.free[:n-1]
		return ls
	}
	return newLockState(history)
}

// txnBucket owns a slice of the transaction table.
type txnBucket struct {
	mu   sync.Mutex
	txns map[TxnID]*txnState
	_    [40]byte
}

// txnInlineLocks is how many locks a transaction records without a map.
// A walk of the paper's workload locks at most eight objects; a
// transaction that locks more (PQR and offline quiesce, the database
// builder's glue pass) spills to a map, so it never goes quadratic.
const txnInlineLocks = 8

// historyOnly is the mode recorded for an object the transaction has
// unlocked early: it holds nothing there, but the object's head still
// names it in ever until the transaction finishes.
const historyOnly Mode = -1

// txnLock is one object a transaction has locked.
type txnLock struct {
	o    oid.OID
	mode Mode // historyOnly once unlocked early under history tracking
}

// txnState tracks one active transaction. Its mutex guards the lock set,
// which the grant path mutates from other transactions' goroutines, and
// done; finishing is touched only by the owner (the caller contract
// forbids racing Finish with the txn's own Lock calls).
type txnState struct {
	mu sync.Mutex
	// The lock set: inline[:n] until it outgrows the array, then spill
	// holds every entry and n stays 0.
	n      int
	inline [txnInlineLocks]txnLock
	spill  map[oid.OID]Mode
	// done is made by the first Done call and closed by Finish; finished
	// tells a later Done the transaction is over.
	done     chan struct{}
	finished bool
	// finishing serializes duplicate Finish calls: the loser observes the
	// transaction as already gone.
	finishing atomic.Bool
	// wait is the transaction's latest queued request, on waitObj; the
	// waits-for walk follows it while it is still in waitObj's queue.
	// Guarded by the manager's dlMu; set only under deadlock detection.
	wait    *waiter
	waitObj oid.OID
}

// lookup returns the mode recorded for o. Caller holds ts.mu.
func (ts *txnState) lookup(o oid.OID) (Mode, bool) {
	if ts.spill != nil {
		mode, ok := ts.spill[o]
		return mode, ok
	}
	for _, e := range ts.inline[:ts.n] {
		if e.o == o {
			return e.mode, true
		}
	}
	return 0, false
}

// set records mode for o. Caller holds ts.mu.
func (ts *txnState) set(o oid.OID, mode Mode) {
	if ts.spill != nil {
		ts.spill[o] = mode
		return
	}
	for i := range ts.inline[:ts.n] {
		if ts.inline[i].o == o {
			ts.inline[i].mode = mode
			return
		}
	}
	if ts.n < len(ts.inline) {
		ts.inline[ts.n] = txnLock{o, mode}
		ts.n++
		return
	}
	ts.spill = make(map[oid.OID]Mode, 2*len(ts.inline))
	for _, e := range ts.inline {
		ts.spill[e.o] = e.mode
	}
	ts.spill[o] = mode
	ts.n = 0
}

// remove forgets o. Caller holds ts.mu.
func (ts *txnState) remove(o oid.OID) {
	if ts.spill != nil {
		delete(ts.spill, o)
		return
	}
	for i := range ts.inline[:ts.n] {
		if ts.inline[i].o == o {
			ts.n--
			ts.inline[i] = ts.inline[ts.n]
			return
		}
	}
}

// appendLocks appends the lock set to dst. Caller holds ts.mu.
func (ts *txnState) appendLocks(dst []txnLock) []txnLock {
	for o, mode := range ts.spill {
		dst = append(dst, txnLock{o, mode})
	}
	return append(dst, ts.inline[:ts.n]...)
}

// closedChan is what Done returns for a transaction that is over.
var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// NewManager creates a lock manager.
func NewManager(opts ...Option) *Manager {
	cfg := config{timeout: DefaultTimeout}
	for _, o := range opts {
		o(&cfg)
	}
	m := &Manager{timeout: cfg.timeout, trackHistory: cfg.trackHistory, detect: cfg.detect}
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
	tb.txns[txn] = &txnState{}
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

	// Snapshot the lock set. The owner is the only goroutine still
	// operating on this transaction (Finish must not race its own pending
	// Lock), so no grants can arrive after the snapshot.
	var inline [txnInlineLocks]txnLock
	ts.mu.Lock()
	locks := ts.appendLocks(inline[:0])
	ts.n, ts.spill = 0, nil
	ts.mu.Unlock()

	slices.SortFunc(locks, func(a, b txnLock) int {
		return cmp.Compare(bucketIndex(a.o), bucketIndex(b.o))
	})
	for i := 0; i < len(locks); {
		bi := bucketIndex(locks[i].o)
		b := &m.buckets[bi]
		b.mu.Lock()
		for ; i < len(locks) && bucketIndex(locks[i].o) == bi; i++ {
			o := locks[i].o
			ls, ok := b.locks[o]
			if !ok {
				continue
			}
			if locks[i].mode != historyOnly {
				ls.dropHolder(txn)
				m.grantQueued(ls, o)
			}
			delete(ls.ever, txn)
			m.maybeReap(b, o, ls)
		}
		b.mu.Unlock()
	}

	tb := m.txnBucket(txn)
	tb.mu.Lock()
	delete(tb.txns, txn)
	tb.mu.Unlock()
	ts.mu.Lock()
	ts.finished = true
	if ts.done != nil {
		close(ts.done)
	}
	ts.mu.Unlock()
	return nil
}

// Done returns a channel closed when txn finishes, or a closed channel if
// the transaction is already gone.
func (m *Manager) Done(txn TxnID) <-chan struct{} {
	ts, ok := m.lookupTxn(txn)
	if !ok {
		return closedChan
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.finished {
		return closedChan
	}
	if ts.done == nil {
		ts.done = make(chan struct{})
	}
	return ts.done
}

// Holds reports the mode txn holds on o, if any.
func (m *Manager) Holds(txn TxnID, o oid.OID) (Mode, bool) {
	ts, ok := m.lookupTxn(txn)
	if !ok {
		return 0, false
	}
	ts.mu.Lock()
	mode, ok := ts.lookup(o)
	ts.mu.Unlock()
	if !ok || mode == historyOnly {
		return 0, false
	}
	return mode, true
}

// HeldLocks returns the set of objects txn currently locks.
func (m *Manager) HeldLocks(txn TxnID) []oid.OID {
	ts, ok := m.lookupTxn(txn)
	if !ok {
		return nil
	}
	ts.mu.Lock()
	var out []oid.OID
	for _, e := range ts.appendLocks(nil) {
		if e.mode != historyOnly {
			out = append(out, e.o)
		}
	}
	ts.mu.Unlock()
	return out
}

// Stats returns a copy of the cumulative counters.
func (m *Manager) Stats() Stats {
	return Stats{
		Acquired:  m.acquired.Load(),
		Waits:     m.waits.Load(),
		Timeouts:  m.timeouts.Load(),
		Deadlocks: m.deadlocks.Load(),
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
		ls = b.head(m.trackHistory)
		b.locks[o] = ls
	}
	held, holding := ls.holding(txn)
	if holding && held >= mode {
		b.mu.Unlock()
		return nil
	}
	upgrade := holding // held == Shared, mode == Exclusive
	if ls.grantable(txn, mode, upgrade) {
		m.grant(ls, txn, mode, ts, o)
		m.acquired.Add(1)
		b.mu.Unlock()
		return nil
	}
	w := &waiter{txn: txn, mode: mode, upgrade: upgrade, deadline: time.Now().Add(timeout), granted: make(chan struct{})}
	ls.enqueue(w)
	b.mu.Unlock()
	if m.detect {
		if err := m.breakCycles(ts, o, w); err != nil {
			return err
		}
	}
	m.waits.Add(1)

	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-w.granted:
		return w.err
	case <-timer.C:
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	select {
	case <-w.granted:
		return w.err // granted, or failed as a deadlock victim, as the timer fired
	default:
	}
	// w is still queued, unless its transaction was finished meanwhile (a
	// caller-contract violation); ls is then possibly stale (see
	// maybeReap) and is left alone.
	blockers := ls.blockers(w, nil)
	if slices.Contains(ls.queue, w) {
		m.withdraw(b, ls, o, w)
	}
	m.timeouts.Add(1)
	return waitErrorf(ErrTimeout, txn, mode, o, blockers)
}

// withdraw takes queued request w off o's queue and grants the waiters
// its leaving unblocks. Caller holds b's mutex.
func (m *Manager) withdraw(b *bucket, ls *lockState, o oid.OID, w *waiter) {
	ls.dequeue(w)
	m.grantQueued(ls, o)
	m.maybeReap(b, o, ls)
}

// breakCycles records ts's request w on o, which has just queued, as the
// transaction's wait, and fails one request of every waits-for cycle it
// closed: the member with the earliest deadline, the one the timeout
// would have failed first. It returns w's error if w was that member.
func (m *Manager) breakCycles(ts *txnState, o oid.OID, w *waiter) error {
	m.dlMu.Lock()
	defer m.dlMu.Unlock()
	ts.wait, ts.waitObj = w, o
	for {
		vo, v := m.cycleVictim(o, w)
		if v == nil {
			return nil
		}
		// A victim granted since the walk read it is no victim; the
		// cycle is gone, and the next walk shows what is left.
		if err := m.fail(vo, v); err != nil && v == w {
			return err
		}
	}
}

// cycleVictim walks the waits-for graph from request w on o. If the
// walk leads back to w's transaction, it returns, of the requests on
// some cycle through it, the one with the earliest deadline and the
// object that request waits for. An edge runs from each queued
// request's transaction to its blockers; a transaction's out-edges are
// those of its latest request, and none once that request has left its
// queue. The walk locks one bucket at a time. Caller holds dlMu.
func (m *Manager) cycleVictim(o oid.OID, w *waiter) (oid.OID, *waiter) {
	// nodes[0] is w's transaction; the others are added as the walk
	// reaches them. out holds the indexes of a node's blockers.
	type node struct {
		txn TxnID
		o   oid.OID
		w   *waiter // nil for a transaction that is not waiting
		out []int
	}
	nodes := []node{{txn: w.txn, o: o, w: w}}
	var ids [16]TxnID
	for i := 0; i < len(nodes); i++ {
		if i > 0 {
			if ts, ok := m.lookupTxn(nodes[i].txn); ok && ts.wait != nil {
				nodes[i].o, nodes[i].w = ts.waitObj, ts.wait
			}
		}
		if nodes[i].w == nil {
			continue
		}
		for _, t := range m.appendBlockers(ids[:0], nodes[i].o, nodes[i].w) {
			j := slices.IndexFunc(nodes, func(n node) bool { return n.txn == t })
			if j < 0 {
				j = len(nodes)
				nodes = append(nodes, node{txn: t})
			}
			nodes[i].out = append(nodes[i].out, j)
		}
	}
	// onCycle[i]: node i leads back to node 0, so with the walk from
	// node 0 to it, it is on a cycle through w's transaction.
	onCycle := make([]bool, len(nodes))
	for changed := true; changed; {
		changed = false
		for i := range nodes {
			if !onCycle[i] && slices.ContainsFunc(nodes[i].out, func(j int) bool { return j == 0 || onCycle[j] }) {
				onCycle[i], changed = true, true
			}
		}
	}
	if !onCycle[0] {
		return oid.Nil, nil
	}
	v := 0
	for i := range nodes {
		if onCycle[i] && nodes[i].w.deadline.Before(nodes[v].w.deadline) {
			v = i
		}
	}
	return nodes[v].o, nodes[v].w
}

// appendBlockers appends the blockers of request w on o to dst, under
// o's bucket mutex alone.
func (m *Manager) appendBlockers(dst []TxnID, o oid.OID, w *waiter) []TxnID {
	b := m.bucket(o)
	b.mu.Lock()
	if ls := b.locks[o]; ls != nil {
		dst = ls.blockers(w, dst)
	}
	b.mu.Unlock()
	return dst
}

// fail fails request v on o as a deadlock victim, if it is still queued:
// it leaves the queue, the waiters behind it that it was blocking are
// granted, and its Lock call returns the ErrDeadlock error fail returns.
// A request no longer queued is left alone and fail returns nil. Caller
// holds dlMu.
func (m *Manager) fail(o oid.OID, v *waiter) error {
	b := m.bucket(o)
	b.mu.Lock()
	defer b.mu.Unlock()
	ls := b.locks[o]
	if ls == nil || !slices.Contains(ls.queue, v) {
		return nil
	}
	v.err = waitErrorf(ErrDeadlock, v.txn, v.mode, o, ls.blockers(v, nil))
	m.withdraw(b, ls, o, v)
	close(v.granted)
	m.deadlocks.Add(1)
	return v.err
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
	if _, holding := ls.holding(txn); !holding {
		return fmt.Errorf("lock: txn %d does not hold %s", txn, o)
	}
	ls.dropHolder(txn)
	ts.mu.Lock()
	if m.trackHistory {
		ts.set(o, historyOnly)
	} else {
		ts.remove(o)
	}
	ts.mu.Unlock()
	m.grantQueued(ls, o)
	m.maybeReap(b, o, ls)
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

// grant records txn's grant of mode on o. Caller holds the bucket mutex
// for o; ts.mu is a leaf below it.
func (m *Manager) grant(ls *lockState, txn TxnID, mode Mode, ts *txnState, o oid.OID) {
	ls.setHolder(txn, mode)
	if ls.ever != nil {
		ls.ever[txn] = struct{}{}
	}
	ts.mu.Lock()
	ts.set(o, mode)
	ts.mu.Unlock()
}

// grantQueued grants now-compatible waiters from the head of o's queue in
// FIFO order. Caller holds the bucket mutex for o.
func (m *Manager) grantQueued(ls *lockState, o oid.OID) {
	for len(ls.queue) > 0 {
		w := ls.queue[0]
		if !ls.compatible(w.txn, w.mode) {
			break
		}
		ls.queue = slices.Delete(ls.queue, 0, 1)
		wts, ok := m.lookupTxn(w.txn)
		if !ok {
			// The waiter's transaction finished while queued. That
			// violates the caller contract (Finish must not race a
			// pending Lock), so do not fake a grant; the orphaned
			// request will time out.
			continue
		}
		m.grant(ls, w.txn, w.mode, wts, o)
		close(w.granted)
		m.acquired.Add(1)
	}
}

// maybeReap drops o's head if it is empty and puts it on the bucket's
// free list. ls may be stale: a waiter that timed out after its
// transaction was finished (a caller-contract violation) can hold a head
// that was reaped and since reused, so only the head o maps to now is
// ever dropped. Caller holds b's mutex.
func (m *Manager) maybeReap(b *bucket, o oid.OID, ls *lockState) {
	if b.locks[o] != ls || !ls.reapable() {
		return
	}
	delete(b.locks, o)
	if len(b.free) < maxFreeHeads {
		ls.holders = ls.inline[:0]
		b.free = append(b.free, ls)
	}
}
