package lock

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/oid"
)

// reference is the original lock manager: all state guarded by a single
// mutex, waits on per-request channels outside the critical section. It
// is retained as the semantic oracle that the striped Manager is
// property-tested against (TestStripedMatchesReference) and benchmarked
// against (BenchmarkLockScaling*); production code cannot reach it. It
// shares no lock-head code with the Manager: its heads keep holders and
// history in maps and its compatibility check is its own, so the
// equivalence property compares two independent implementations.
type reference struct {
	timeout      time.Duration
	trackHistory bool
	detect       bool

	mu    sync.Mutex
	locks map[oid.OID]*refHead
	txns  map[TxnID]*refTxnState
	stats Stats
}

// refTxnState tracks one active transaction; everything is guarded by the
// manager's single mutex.
type refTxnState struct {
	held       map[oid.OID]Mode
	everLocked map[oid.OID]struct{}
	done       chan struct{} // closed when the transaction finishes
	// wait is the transaction's latest queued request, on waitObj.
	wait    *waiter
	waitObj oid.OID
}

func newReference(cfg config) *reference {
	return &reference{
		timeout:      cfg.timeout,
		trackHistory: cfg.trackHistory,
		detect:       cfg.detect,
		locks:        make(map[oid.OID]*refHead),
		txns:         make(map[TxnID]*refTxnState),
	}
}

func (m *reference) Timeout() time.Duration { return m.timeout }

func (m *reference) Begin(txn TxnID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.txns[txn]; ok {
		panic(fmt.Sprintf("lock: transaction %d begun twice", txn))
	}
	m.txns[txn] = &refTxnState{
		held:       make(map[oid.OID]Mode),
		everLocked: make(map[oid.OID]struct{}),
		done:       make(chan struct{}),
	}
}

func (m *reference) Finish(txn TxnID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	ts, ok := m.txns[txn]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownTxn, txn)
	}
	for o := range ts.held {
		m.releaseLocked(txn, o)
	}
	for o := range ts.everLocked {
		if ls, ok := m.locks[o]; ok {
			delete(ls.ever, txn)
			m.maybeReap(o, ls)
		}
	}
	delete(m.txns, txn)
	close(ts.done)
	return nil
}

func (m *reference) Done(txn TxnID) <-chan struct{} {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ts, ok := m.txns[txn]; ok {
		return ts.done
	}
	ch := make(chan struct{})
	close(ch)
	return ch
}

func (m *reference) Holds(txn TxnID, o oid.OID) (Mode, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ts, ok := m.txns[txn]
	if !ok {
		return 0, false
	}
	mode, ok := ts.held[o]
	return mode, ok
}

func (m *reference) HeldLocks(txn TxnID) []oid.OID {
	m.mu.Lock()
	defer m.mu.Unlock()
	ts, ok := m.txns[txn]
	if !ok {
		return nil
	}
	out := make([]oid.OID, 0, len(ts.held))
	for o := range ts.held {
		out = append(out, o)
	}
	return out
}

func (m *reference) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

func (m *reference) Lock(txn TxnID, o oid.OID, mode Mode) error {
	return m.LockTimeout(txn, o, mode, m.timeout)
}

func (m *reference) LockTimeout(txn TxnID, o oid.OID, mode Mode, timeout time.Duration) error {
	m.mu.Lock()
	ts, ok := m.txns[txn]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrUnknownTxn, txn)
	}
	ls := m.locks[o]
	if ls == nil {
		ls = newRefHead()
		m.locks[o] = ls
	}
	held, holding := ls.holders[txn]
	if holding && held >= mode {
		m.mu.Unlock()
		return nil
	}
	upgrade := holding // held == Shared, mode == Exclusive
	w := &waiter{txn: txn, mode: mode, upgrade: upgrade, deadline: time.Now().Add(timeout), granted: make(chan struct{})}
	if ls.grantable(w) {
		m.grant(ls, w, ts, o)
		m.stats.Acquired++
		m.mu.Unlock()
		return nil
	}
	ls.enqueue(w)
	if m.detect {
		ts.wait, ts.waitObj = w, o
		for {
			v, vo := m.cycleVictim(w, o)
			if v == nil {
				break
			}
			m.fail(v, vo)
			if v == w {
				m.mu.Unlock()
				return w.err
			}
		}
	}
	m.stats.Waits++
	m.mu.Unlock()

	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-w.granted:
		return w.err
	case <-timer.C:
	}
	// Timed out — but a grant, or a failure as a deadlock victim, may
	// have raced the timer.
	m.mu.Lock()
	defer m.mu.Unlock()
	select {
	case <-w.granted:
		return w.err
	default:
	}
	blockers := ls.blockers(w)
	m.withdraw(ls, o, w)
	m.stats.Timeouts++
	return waitErrorf(ErrTimeout, txn, mode, o, blockers)
}

// cycleVictim returns, if the waits-for graph leads from request w on o
// back to w's transaction, the request with the earliest deadline among
// those on a cycle through it, and its object. It computes the set of
// transactions reachable from w's and keeps those that reach back.
// Caller holds m.mu.
func (m *reference) cycleVictim(w *waiter, o oid.OID) (*waiter, oid.OID) {
	type req struct {
		w *waiter
		o oid.OID
	}
	reqs := map[TxnID]req{w.txn: {w, o}}
	edges := map[TxnID][]TxnID{}
	var visit func(t TxnID)
	visit = func(t TxnID) {
		r := reqs[t]
		ls, ok := m.locks[r.o]
		if !ok {
			return
		}
		for _, b := range ls.blockers(r.w) {
			edges[t] = append(edges[t], b)
			if _, seen := reqs[b]; seen {
				continue
			}
			reqs[b] = req{}
			if ts, ok := m.txns[b]; ok && ts.wait != nil {
				reqs[b] = req{ts.wait, ts.waitObj}
				visit(b)
			}
		}
	}
	visit(w.txn)
	back := map[TxnID]bool{}
	for changed := true; changed; {
		changed = false
		for t, bs := range edges {
			for _, b := range bs {
				if !back[t] && (b == w.txn || back[b]) {
					back[t], changed = true, true
				}
			}
		}
	}
	if !back[w.txn] {
		return nil, oid.Nil
	}
	v := reqs[w.txn]
	for t := range back {
		if r := reqs[t]; r.w.deadline.Before(v.w.deadline) {
			v = r
		}
	}
	return v.w, v.o
}

// fail fails queued request v on o as a deadlock victim. Caller holds
// m.mu.
func (m *reference) fail(v *waiter, o oid.OID) {
	ls := m.locks[o]
	v.err = waitErrorf(ErrDeadlock, v.txn, v.mode, o, ls.blockers(v))
	m.withdraw(ls, o, v)
	close(v.granted)
	m.stats.Deadlocks++
}

// withdraw takes w off o's queue and grants the waiters behind it that
// its leaving unblocks. Caller holds m.mu.
func (m *reference) withdraw(ls *refHead, o oid.OID, w *waiter) {
	if m.locks[o] != ls {
		return // a reaped head; w is in no queue
	}
	ls.dequeue(w)
	m.grantQueued(ls, o)
	m.maybeReap(o, ls)
}

func (m *reference) Unlock(txn TxnID, o oid.OID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	ts, ok := m.txns[txn]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownTxn, txn)
	}
	if _, ok := ts.held[o]; !ok {
		return fmt.Errorf("lock: txn %d does not hold %s", txn, o)
	}
	m.releaseLocked(txn, o)
	return nil
}

func (m *reference) EverLockedBy(o oid.OID, exclude TxnID) []TxnID {
	m.mu.Lock()
	defer m.mu.Unlock()
	ls, ok := m.locks[o]
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

func (m *reference) ActiveTxns() []TxnID {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]TxnID, 0, len(m.txns))
	for t := range m.txns {
		out = append(out, t)
	}
	return out
}

// grant records the grant of w. Caller holds m.mu.
func (m *reference) grant(ls *refHead, w *waiter, ts *refTxnState, o oid.OID) {
	ls.holders[w.txn] = w.mode
	ts.held[o] = w.mode
	if m.trackHistory {
		ls.ever[w.txn] = struct{}{}
		ts.everLocked[o] = struct{}{}
	}
	close(w.granted)
}

// releaseLocked removes txn's hold on o and grants now-compatible waiters
// in FIFO order. Caller holds m.mu.
func (m *reference) releaseLocked(txn TxnID, o oid.OID) {
	ls, ok := m.locks[o]
	if !ok {
		return
	}
	delete(ls.holders, txn)
	ts := m.txns[txn]
	delete(ts.held, o)
	m.grantQueued(ls, o)
	m.maybeReap(o, ls)
}

// grantQueued grants waiters from the head of o's queue while they are
// compatible. Caller holds m.mu.
func (m *reference) grantQueued(ls *refHead, o oid.OID) {
	for len(ls.queue) > 0 {
		w := ls.queue[0]
		if !ls.compatible(w) {
			break
		}
		ls.queue = ls.queue[1:]
		wts, ok := m.txns[w.txn]
		if !ok {
			// The waiter's transaction finished while queued. That
			// violates the caller contract (Finish must not race a
			// pending Lock), so do not fake a grant; the orphaned
			// request will time out.
			continue
		}
		m.grant(ls, w, wts, o)
		m.stats.Acquired++
	}
}

// maybeReap drops an empty lock head, unless o has since been given a
// new one. Caller holds m.mu.
func (m *reference) maybeReap(o oid.OID, ls *refHead) {
	if m.locks[o] == ls && ls.reapable() {
		delete(m.locks, o)
	}
}

// forEachHead visits every lock head under the manager mutex.
func (m *reference) forEachHead(fn func(o oid.OID, holders map[TxnID]Mode)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for o, ls := range m.locks {
		fn(o, ls.holders)
	}
}

// refHead is the oracle's per-object lock head.
type refHead struct {
	holders map[TxnID]Mode
	queue   []*waiter
	// ever holds the active transactions that have ever locked this
	// object; entries go when the transaction finishes.
	ever map[TxnID]struct{}
}

func newRefHead() *refHead {
	return &refHead{holders: make(map[TxnID]Mode), ever: make(map[TxnID]struct{})}
}

// grantable reports whether w can be granted right now: compatible with
// all current holders and not overtaking the queue (upgrades may overtake
// non-upgrade waiters).
func (ls *refHead) grantable(w *waiter) bool {
	if !ls.compatible(w) {
		return false
	}
	if len(ls.queue) == 0 {
		return true
	}
	if w.upgrade {
		// May pass non-upgrade waiters but not earlier upgrades.
		return !ls.queue[0].upgrade
	}
	return false
}

// compatible reports whether w conflicts with no current holder.
func (ls *refHead) compatible(w *waiter) bool {
	for t, mode := range ls.holders {
		if t == w.txn {
			continue // upgrade: own shared lock is not a conflict
		}
		if w.mode == Exclusive || mode == Exclusive {
			return false
		}
	}
	return true
}

// enqueue inserts w into the wait queue: upgrades go ahead of non-upgrade
// waiters.
func (ls *refHead) enqueue(w *waiter) {
	if w.upgrade {
		pos := 0
		for pos < len(ls.queue) && ls.queue[pos].upgrade {
			pos++
		}
		ls.queue = append(ls.queue, nil)
		copy(ls.queue[pos+1:], ls.queue[pos:])
		ls.queue[pos] = w
		return
	}
	ls.queue = append(ls.queue, w)
}

// dequeue removes w from the wait queue if still present.
func (ls *refHead) dequeue(w *waiter) {
	for i, q := range ls.queue {
		if q == w {
			ls.queue = append(ls.queue[:i], ls.queue[i+1:]...)
			return
		}
	}
}

// blockers lists the transactions queued request w waits for: holders
// and waiters ahead of it whose modes conflict with its own. A request
// no longer queued waits for no one.
func (ls *refHead) blockers(w *waiter) []TxnID {
	var out []TxnID
	for i, q := range ls.queue {
		if q != w {
			continue
		}
		for t, mode := range ls.holders {
			if t != w.txn && (mode == Exclusive || w.mode == Exclusive) {
				out = append(out, t)
			}
		}
		for _, a := range ls.queue[:i] {
			if a.mode == Exclusive || w.mode == Exclusive {
				out = append(out, a.txn)
			}
		}
	}
	return out
}

// reapable reports whether an empty lock head can be dropped.
func (ls *refHead) reapable() bool {
	return len(ls.holders) == 0 && len(ls.queue) == 0 && len(ls.ever) == 0
}
