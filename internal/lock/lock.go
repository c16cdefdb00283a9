// Package lock implements the lock manager.
//
// Transactions acquire shared or exclusive locks on objects and, under
// strict two-phase locking, hold them until they complete (paper §2).
// By default deadlocks are resolved by timeout, exactly as in the paper's
// Brahmā implementation ("a lock timeout mechanism was used to handle
// deadlocks and was set to one second throughout the experiments", §5).
// WithDeadlockDetection adds a waits-for check when a request queues:
// when a cycle forms, the member whose timeout would have fired first
// fails at once with ErrDeadlock, and the timeout remains the bound on
// every wait.
//
// For the relaxed-2PL extension (paper §4.1) the manager also remembers,
// per object, every *active* transaction that has ever locked it — even if
// the lock has since been released. The reorganizer can then wait for all
// such transactions to finish, which makes transactions "behave as though
// they were following strict 2PL with respect to the reorganization
// process."
//
// There is one manager, and it is striped: lock heads live in
// DefaultStripes hash buckets keyed by OID — the same scheme as
// internal/latch — and per-transaction state lives in a separately
// sharded transaction table, so Begin/Lock/Unlock/Finish from different
// threads only contend when they touch the same bucket. The original
// single-mutex manager survives only in the package tests, as the
// semantic oracle the striped one is property-tested against.
package lock

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/oid"
)

// timeoutErrorf wraps ErrTimeout with context.
func timeoutErrorf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrTimeout}, args...)...)
}

// waitErrorf wraps sentinel (ErrTimeout or ErrDeadlock) with the request
// that failed and the transactions it was waiting for.
func waitErrorf(sentinel error, txn TxnID, mode Mode, o oid.OID, blockers []TxnID) error {
	return fmt.Errorf("%w: txn %d, %s lock on %s, blocked by txns %v", sentinel, txn, mode, o, blockers)
}

// Mode is a lock mode.
type Mode int

// Lock modes.
const (
	// Shared permits concurrent readers.
	Shared Mode = iota
	// Exclusive permits a single writer.
	Exclusive
)

func (m Mode) String() string {
	if m == Shared {
		return "S"
	}
	return "X"
}

// TxnID identifies a transaction to the lock manager.
type TxnID uint64

// DefaultTimeout is the lock wait timeout used when none is configured;
// it matches the paper's 1-second setting.
const DefaultTimeout = time.Second

// DefaultStripes is the bucket count of the lock table (and of the
// transaction table). It must be a power of two.
const DefaultStripes = 64

// Errors.
var (
	// ErrTimeout reports a lock wait that exceeded the timeout; callers
	// treat it as a deadlock and abort the transaction.
	ErrTimeout = errors.New("lock: wait timed out (presumed deadlock)")
	// ErrUnknownTxn reports an operation by a transaction that was never
	// begun or has already finished.
	ErrUnknownTxn = errors.New("lock: unknown transaction")
	// ErrDeadlock reports a request on a waits-for cycle that was chosen
	// as its victim. errors.Is(ErrDeadlock, ErrTimeout) holds, so
	// every caller that aborts and retries a timed-out transaction
	// handles a deadlock victim the same way.
	ErrDeadlock error = deadlockError{}
)

type deadlockError struct{}

func (deadlockError) Error() string        { return "lock: deadlock victim (waits-for cycle)" }
func (deadlockError) Is(target error) bool { return target == ErrTimeout }

// waiter is a queued lock request. Only a request that cannot be granted
// at once builds one; an immediate grant allocates nothing.
type waiter struct {
	txn     TxnID
	mode    Mode
	upgrade bool
	// deadline is when the request times out. Deadlock detection fails
	// the member of a cycle with the earliest deadline: the request the
	// timeout would have failed first.
	deadline time.Time
	granted  chan struct{} // closed on grant, or on failure as a deadlock victim
	// err is nil for a grant and the ErrDeadlock error for a victim. It
	// is written under the bucket mutex before granted is closed.
	err error
}

// holder is one transaction's granted mode on an object.
type holder struct {
	txn  TxnID
	mode Mode
}

// headInlineHolders is how many holders a lock head stores without a
// separate allocation. Almost every head has one holder; shared fan-in
// past this spills to the heap.
const headInlineHolders = 2

// lockState is the per-object lock head.
type lockState struct {
	// holders is scanned linearly; it starts out pointing at inline.
	holders []holder
	queue   []*waiter
	// ever holds the active transactions that have ever locked this
	// object (relaxed-2PL bookkeeping). Entries are removed when the
	// transaction finishes, not when it unlocks. Nil unless the manager
	// tracks history.
	ever   map[TxnID]struct{}
	inline [headInlineHolders]holder
}

func newLockState(history bool) *lockState {
	ls := &lockState{}
	ls.holders = ls.inline[:0]
	if history {
		ls.ever = make(map[TxnID]struct{})
	}
	return ls
}

// holding returns txn's granted mode, if it holds the lock.
func (ls *lockState) holding(txn TxnID) (Mode, bool) {
	for _, h := range ls.holders {
		if h.txn == txn {
			return h.mode, true
		}
	}
	return 0, false
}

// setHolder records txn as holding mode (a new holder or an upgrade).
func (ls *lockState) setHolder(txn TxnID, mode Mode) {
	for i := range ls.holders {
		if ls.holders[i].txn == txn {
			ls.holders[i].mode = mode
			return
		}
	}
	ls.holders = append(ls.holders, holder{txn, mode})
}

// dropHolder removes txn from the holders; their order is immaterial.
func (ls *lockState) dropHolder(txn TxnID) {
	for i, h := range ls.holders {
		if h.txn == txn {
			last := len(ls.holders) - 1
			ls.holders[i] = ls.holders[last]
			ls.holders = ls.holders[:last]
			return
		}
	}
}

// grantable reports whether txn's request for mode can be granted right
// now: compatible with all current holders and not overtaking the queue
// (upgrades may overtake non-upgrade waiters). Caller holds the bucket
// mutex guarding ls.
func (ls *lockState) grantable(txn TxnID, mode Mode, upgrade bool) bool {
	if !ls.compatible(txn, mode) {
		return false
	}
	if len(ls.queue) == 0 {
		return true
	}
	// An upgrade may pass non-upgrade waiters but not earlier upgrades.
	return upgrade && !ls.queue[0].upgrade
}

// compatible reports whether a request by txn for mode conflicts with no
// current holder (the grantable check for the waiter already at the
// queue head). Its own shared lock is no conflict for an upgrade.
func (ls *lockState) compatible(txn TxnID, mode Mode) bool {
	for _, h := range ls.holders {
		if h.txn != txn && conflicts(h.mode, mode) {
			return false
		}
	}
	return true
}

// enqueue inserts w into the wait queue: upgrades go ahead of non-upgrade
// waiters so a reader upgrading does not wait behind writers that cannot
// proceed anyway.
func (ls *lockState) enqueue(w *waiter) {
	pos := len(ls.queue)
	if w.upgrade {
		pos = 0
		for pos < len(ls.queue) && ls.queue[pos].upgrade {
			pos++
		}
	}
	ls.queue = slices.Insert(ls.queue, pos, w)
}

// dequeue removes w from the wait queue if still present.
func (ls *lockState) dequeue(w *waiter) {
	if i := slices.Index(ls.queue, w); i >= 0 {
		ls.queue = slices.Delete(ls.queue, i, i+1)
	}
}

// conflicts reports whether modes a and b cannot be held together.
func conflicts(a, b Mode) bool { return a == Exclusive || b == Exclusive }

// blockers appends to dst the transactions queued request w waits for:
// the holders whose mode conflicts with w's and the conflicting waiters
// queued ahead of it. A request no longer queued (granted, or given up)
// waits for no one. Caller holds the bucket mutex guarding ls.
func (ls *lockState) blockers(w *waiter, dst []TxnID) []TxnID {
	i := slices.Index(ls.queue, w)
	if i < 0 {
		return dst
	}
	start := len(dst)
	for _, h := range ls.holders {
		if h.txn != w.txn && conflicts(h.mode, w.mode) {
			dst = append(dst, h.txn)
		}
	}
	named := dst[start:]
	for _, q := range ls.queue[:i] {
		// An upgrade ahead is by a holder, who may be named already.
		if conflicts(q.mode, w.mode) && !(q.upgrade && slices.Contains(named, q.txn)) {
			dst = append(dst, q.txn)
		}
	}
	return dst
}

// reapable reports whether an empty lock head can be dropped.
func (ls *lockState) reapable() bool {
	return len(ls.holders) == 0 && len(ls.queue) == 0 && len(ls.ever) == 0
}

// Stats are cumulative lock-manager counters. The manager keeps them as
// atomics so Stats snapshots never contend with the grant path.
type Stats struct {
	Acquired  uint64 // locks granted
	Waits     uint64 // requests that queued, less those failed as victims at enqueue
	Timeouts  uint64 // requests whose wait exceeded the timeout
	Deadlocks uint64 // requests failed as deadlock victims (detection on)
}

// config collects option settings.
type config struct {
	timeout      time.Duration
	trackHistory bool
	detect       bool
}

// Option configures a Manager.
type Option func(*config)

// WithTimeout sets the deadlock timeout.
func WithTimeout(d time.Duration) Option {
	return func(c *config) { c.timeout = d }
}

// WithDeadlockDetection enables the waits-for check at enqueue: when a
// request that must queue closes a cycle of waiting transactions, the
// request on the cycle with the earliest deadline fails at once with
// ErrDeadlock instead of waiting out its timeout. Off, as in the paper,
// only the timeout resolves deadlocks.
func WithDeadlockDetection(on bool) Option {
	return func(c *config) { c.detect = on }
}

// WithHistory enables ever-locked tracking (needed only when transactions
// do not follow strict 2PL, paper §4.1).
func WithHistory(on bool) Option {
	return func(c *config) { c.trackHistory = on }
}

// fpLockAcquire lets a fault registry inject spurious lock timeouts:
// the request fails exactly as a deadlock victim would, exercising
// every caller's abort-and-retry path without real contention.
var fpLockAcquire = fault.Point(fault.LockAcquire)

// injectedTimeout dresses an injected fault as a lock timeout. Both
// sentinels stay matchable: callers treating it as a deadlock victim
// see ErrTimeout, while the torture harness can still tell injected
// failures apart via fault.ErrInjected.
func injectedTimeout(o oid.OID, mode Mode, ferr error) error {
	return fmt.Errorf("%w: injected while locking %s %s: %w", ErrTimeout, o, mode, ferr)
}

// Lock acquires o in the given mode for txn, waiting up to the
// configured timeout. A Shared request by a holder of Exclusive is a
// no-op; a request for Exclusive by a holder of Shared is an upgrade,
// which queues ahead of ordinary waiters.
func (m *Manager) Lock(txn TxnID, o oid.OID, mode Mode) error {
	return m.LockTimeout(txn, o, mode, m.timeout)
}

// LockTimeout is Lock with an explicit timeout. It consults the
// lock/acquire fault point first, so an armed registry can make any
// acquisition spuriously time out, and feeds the lock-acquire latency
// histogram when tracing is on; acquire does the locking itself.
func (m *Manager) LockTimeout(txn TxnID, o oid.OID, mode Mode, timeout time.Duration) error {
	if ferr := fpLockAcquire.Maybe(); ferr != nil {
		return injectedTimeout(o, mode, ferr)
	}
	if obs.Enabled() {
		start := time.Now()
		err := m.acquire(txn, o, mode, timeout)
		obs.Observe(obs.LockAcquire, time.Since(start))
		return err
	}
	return m.acquire(txn, o, mode, timeout)
}

// WaitEverLockers blocks until every active transaction that ever locked
// o (other than exclude) has finished, or the timeout expires. This is
// the §4.1 wait that restores strict-2PL behaviour with respect to the
// reorganizer when ordinary transactions release locks early.
func (m *Manager) WaitEverLockers(o oid.OID, exclude TxnID, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		lockers := m.EverLockedBy(o, exclude)
		if len(lockers) == 0 {
			return nil
		}
		// Wait for the first one; loop re-evaluates the set.
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return timeoutErrorf("waiting for historical lockers of %s", o)
		}
		timer := time.NewTimer(remaining)
		select {
		case <-m.Done(lockers[0]):
			timer.Stop()
		case <-timer.C:
			return timeoutErrorf("waiting for historical lockers of %s", o)
		}
	}
}
