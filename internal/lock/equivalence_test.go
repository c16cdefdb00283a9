package lock

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/oid"
)

// The equivalence suite drives the striped Manager and the single-mutex
// reference oracle (reference_test.go) through identical random schedules
// and requires them to grant, queue, and time out identically.
//
// Determinism argument: the schedule driver is single-threaded. A sync
// Lock that cannot be granted immediately must time out, because grants
// only ever happen inside the driver's own Finish/Unlock calls, which the
// blocked driver cannot issue. An async Lock is settled — granted,
// failed, or durably queued (the Waits counter proves it) — before the
// driver proceeds. Whether a queued waiter has since been granted is read
// from Holds, which both implementations update synchronously inside the
// releasing call, never from goroutine timing. Waiters still queued at
// the end of the script resolve during cleanup: granted in FIFO order as
// the driver finishes transactions, or timed out if they form an upgrade
// deadlock cycle. Async timeouts are staggered by op index (200 ms apart,
// far above scheduling jitter) so the order in which cycle members give
// up is schedule-determined too. With deadlock detection on, a cycle is
// broken inside the call of the request that closes it, before that
// request counts as queued, so no cycle is left for cleanup. Its victim
// has the earliest deadline: a sync request's (5 ms) is earlier than any
// async one's, and of two async requests the one sent first has the
// earlier deadline, by the 200 ms stride.

// lockManager is the surface the equivalence suite and the scaling
// benchmarks drive; the production Manager and the reference oracle both
// implement it.
type lockManager interface {
	Begin(txn TxnID)
	Finish(txn TxnID) error
	Holds(txn TxnID, o oid.OID) (Mode, bool)
	Lock(txn TxnID, o oid.OID, mode Mode) error
	LockTimeout(txn TxnID, o oid.OID, mode Mode, timeout time.Duration) error
	Unlock(txn TxnID, o oid.OID) error
	EverLockedBy(o oid.OID, exclude TxnID) []TxnID
	ActiveTxns() []TxnID
	Stats() Stats
	// forEachHead visits every live lock head and its holders under the
	// head's owning mutex.
	forEachHead(fn func(o oid.OID, holders map[TxnID]Mode))
}

var (
	_ lockManager = (*Manager)(nil)
	_ lockManager = (*reference)(nil)
)

// newOracle builds the reference oracle with the same options NewManager takes.
func newOracle(opts ...Option) *reference {
	cfg := config{timeout: DefaultTimeout}
	for _, o := range opts {
		o(&cfg)
	}
	return newReference(cfg)
}

// forEachHead visits every lock head under its bucket mutex.
func (m *Manager) forEachHead(fn func(o oid.OID, holders map[TxnID]Mode)) {
	for i := range m.buckets {
		b := &m.buckets[i]
		b.mu.Lock()
		for o, ls := range b.locks {
			holders := make(map[TxnID]Mode, len(ls.holders))
			for _, h := range ls.holders {
				holders[h.txn] = h.mode
			}
			fn(o, holders)
		}
		b.mu.Unlock()
	}
}

const (
	eqTxns        = 3
	eqObjs        = 3
	eqSyncTO      = 5 * time.Millisecond
	eqAsyncTO     = 700 * time.Millisecond
	eqAsyncStride = 200 * time.Millisecond
)

// The schedules' objects and transactions are chosen by hash so that the
// first two of each share a bucket and the third does not. The schedules
// then reach a bucket holding several lock heads, a Finish releasing
// several OIDs of one bucket in one batch, grants made while another head
// shares the bucket mutex, and two transactions sharing a txn bucket.
var (
	eqObjIDs = func() (objs [eqObjs]oid.OID) {
		k := eqPickKeys(0, func(k uint64) uint64 { return bucketIndex(oid.New(1, 1, oid.SlotNum(k))) })
		for i := range objs {
			objs[i] = oid.New(1, 1, oid.SlotNum(k[i]))
		}
		return objs
	}()
	eqTxnIDs = func() (txns [eqTxns]TxnID) {
		k := eqPickKeys(1, stripeHash)
		for i := range txns {
			txns[i] = TxnID(k[i])
		}
		return txns
	}()
)

// eqPickKeys returns three keys from first upward: first, the next key in
// first's bucket, and the next key outside it.
func eqPickKeys(first uint64, bucketOf func(uint64) uint64) [3]uint64 {
	same, other := first+1, first+1
	for bucketOf(same) != bucketOf(first) {
		same++
	}
	for bucketOf(other) == bucketOf(first) {
		other++
	}
	return [3]uint64{first, same, other}
}

type eqOpKind uint8

const (
	opBegin eqOpKind = iota
	opLockSync
	opLockAsync
	opUnlock
	opFinish
	eqOpKinds
)

type eqOp struct {
	kind eqOpKind
	txn  TxnID
	obj  oid.OID
	mode Mode
}

// eqScript is a schedule over objs; its random form implements
// quick.Generator.
type eqScript struct {
	objs []oid.OID
	ops  []eqOp
}

func (eqScript) Generate(r *rand.Rand, size int) reflect.Value {
	return reflect.ValueOf(eqRandomScript(r, eqObjIDs[:], nil))
}

// eqRandomScript appends 4–13 random ops over objs to prefix.
func eqRandomScript(r *rand.Rand, objs []oid.OID, prefix []eqOp) eqScript {
	s := eqScript{objs: objs, ops: prefix}
	for n := 4 + r.Intn(10); n > 0; n-- {
		s.ops = append(s.ops, eqOp{
			kind: eqOpKind(r.Intn(int(eqOpKinds))),
			txn:  eqTxnIDs[r.Intn(eqTxns)],
			obj:  objs[r.Intn(len(objs))],
			mode: eqRandomMode(r),
		})
	}
	return s
}

func eqRandomMode(r *rand.Rand) Mode {
	if r.Intn(2) == 0 {
		return Exclusive
	}
	return Shared
}

// eqSpillObjs are more objects than a transaction records inline, so a
// transaction that locks them all takes the spill path.
var eqSpillObjs = func() []oid.OID {
	objs := make([]oid.OID, txnInlineLocks+4)
	for i := range objs {
		objs[i] = oid.New(1, 2, oid.SlotNum(i))
	}
	return objs
}()

// eqSpillScript is a random schedule whose first transaction locks every
// object of eqSpillObjs before the random ops start.
type eqSpillScript struct{ eqScript }

func (eqSpillScript) Generate(r *rand.Rand, size int) reflect.Value {
	prefix := []eqOp{{kind: opBegin, txn: eqTxnIDs[0]}}
	for _, o := range eqSpillObjs {
		prefix = append(prefix, eqOp{kind: opLockSync, txn: eqTxnIDs[0], obj: o, mode: eqRandomMode(r)})
	}
	return reflect.ValueOf(eqSpillScript{eqRandomScript(r, eqSpillObjs, prefix)})
}

// errClass folds an error into a comparable label.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrDeadlock):
		return "deadlock"
	case errors.Is(err, ErrTimeout):
		return "timeout"
	case errors.Is(err, ErrUnknownTxn):
		return "unknown"
	default:
		return "err:" + err.Error()
	}
}

// asyncReq is one in-flight async lock request.
type asyncReq struct {
	op   int
	txn  TxnID
	obj  oid.OID
	mode Mode
	done chan error
}

// eqRun applies script to m and returns a transcript: one line per
// observable event, with async outcomes appended in op order. Two
// semantically equal managers produce equal transcripts.
func eqRun(t *testing.T, m lockManager, script eqScript) []string {
	t.Helper()
	var log []string
	active := map[TxnID]bool{}
	busy := map[TxnID]*asyncReq{}
	resolved := map[int]string{} // async op index -> outcome

	digest := func() string {
		var sb strings.Builder
		for _, tx := range eqTxnIDs {
			for _, o := range script.objs {
				if mode, ok := m.Holds(tx, o); ok {
					fmt.Fprintf(&sb, " %d:%s=%s", tx, o, mode)
				}
			}
		}
		for _, o := range script.objs {
			ever := m.EverLockedBy(o, 0)
			sort.Slice(ever, func(i, j int) bool { return ever[i] < ever[j] })
			if len(ever) > 0 {
				fmt.Fprintf(&sb, " ever(%s)=%v", o, ever)
			}
		}
		return sb.String()
	}

	// await blocks for req's goroutine to report after its outcome is
	// already decided (grant observed via Holds, or timeout fired).
	await := func(req *asyncReq) string {
		select {
		case err := <-req.done:
			delete(busy, req.txn)
			out := errClass(err)
			resolved[req.op] = out
			return out
		case <-time.After(10 * time.Second):
			t.Fatalf("async lock op %d (txn %d) decided but never reported", req.op, req.txn)
			return ""
		}
	}

	// settleGranted collects every queued waiter whose grant has already
	// happened (visible through Holds — updated synchronously inside the
	// releasing call, so this is schedule-determined, not timing-based).
	settleGranted := func() {
		for tx, req := range busy {
			if mode, ok := m.Holds(tx, req.obj); ok && mode >= req.mode {
				await(req)
			}
		}
	}

	for i, op := range script.ops {
		switch op.kind {
		case opBegin:
			if active[op.txn] {
				log = append(log, fmt.Sprintf("%02d begin skip", i))
				continue
			}
			m.Begin(op.txn)
			active[op.txn] = true
			log = append(log, fmt.Sprintf("%02d begin %d", i, op.txn))
		case opLockSync:
			if !active[op.txn] || busy[op.txn] != nil {
				log = append(log, fmt.Sprintf("%02d lock skip", i))
				continue
			}
			err := m.LockTimeout(op.txn, op.obj, op.mode, eqSyncTO)
			log = append(log, fmt.Sprintf("%02d lock %d %s %s -> %s%s",
				i, op.txn, op.obj, op.mode, errClass(err), digest()))
		case opLockAsync:
			if !active[op.txn] || busy[op.txn] != nil {
				log = append(log, fmt.Sprintf("%02d alock skip", i))
				continue
			}
			req := &asyncReq{op: i, txn: op.txn, obj: op.obj, mode: op.mode,
				done: make(chan error, 1)}
			timeout := eqAsyncTO + time.Duration(i)*eqAsyncStride
			waitsBefore := m.Stats().Waits
			go func() {
				req.done <- m.LockTimeout(req.txn, req.obj, req.mode, timeout)
			}()
			// Settle: resolved immediately, or durably queued.
			busy[op.txn] = req
			outcome := "queued"
			deadline := time.Now().Add(10 * time.Second)
			for {
				select {
				case err := <-req.done:
					delete(busy, op.txn)
					outcome = errClass(err)
					resolved[i] = outcome
				default:
				}
				if _, still := busy[op.txn]; !still || m.Stats().Waits > waitsBefore {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("async lock op %d neither queued nor resolved", i)
				}
				time.Sleep(50 * time.Microsecond)
			}
			log = append(log, fmt.Sprintf("%02d alock %d %s %s -> %s%s",
				i, op.txn, op.obj, op.mode, outcome, digest()))
		case opUnlock:
			if !active[op.txn] || busy[op.txn] != nil {
				log = append(log, fmt.Sprintf("%02d unlock skip", i))
				continue
			}
			err := m.Unlock(op.txn, op.obj)
			settleGranted()
			log = append(log, fmt.Sprintf("%02d unlock %d %s -> %s%s",
				i, op.txn, op.obj, errClass(err), digest()))
		case opFinish:
			if !active[op.txn] || busy[op.txn] != nil {
				log = append(log, fmt.Sprintf("%02d finish skip", i))
				continue
			}
			err := m.Finish(op.txn)
			delete(active, op.txn)
			settleGranted()
			log = append(log, fmt.Sprintf("%02d finish %d -> %s%s",
				i, op.txn, errClass(err), digest()))
		}
	}

	// Cleanup: finish every quiescent transaction (smallest id first);
	// queued waiters either get granted along the way — making their
	// transactions finishable — or belong to a deadlock cycle and time
	// out, earliest-issued first thanks to the staggered timeouts.
	deadline := time.Now().Add(30 * time.Second)
	for {
		settleGranted()
		// Collect timeouts that have fired.
		for _, req := range busy {
			select {
			case err := <-req.done:
				delete(busy, req.txn)
				resolved[req.op] = errClass(err)
			default:
			}
		}
		var quiescent []TxnID
		for tx := range active {
			if busy[tx] == nil {
				quiescent = append(quiescent, tx)
			}
		}
		sort.Slice(quiescent, func(i, j int) bool { return quiescent[i] < quiescent[j] })
		if len(quiescent) > 0 {
			m.Finish(quiescent[0])
			delete(active, quiescent[0])
			continue
		}
		if len(busy) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cleanup stuck with %d busy transactions", len(busy))
		}
		time.Sleep(time.Millisecond)
	}

	idxs := make([]int, 0, len(resolved))
	for i := range resolved {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		log = append(log, fmt.Sprintf("async %02d -> %s", i, resolved[i]))
	}
	return log
}

// eqMatch runs script on a fresh striped manager and a fresh oracle built
// with opts and reports whether they produced identical transcripts
// (grants, queues, timeouts, lock tables, history sets) and identical
// cumulative Stats, and both ended empty.
func eqMatch(t *testing.T, script eqScript, opts ...Option) bool {
	ref := newOracle(opts...)
	str := NewManager(opts...)

	type res struct {
		log   []string
		stats Stats
	}
	run := func(m lockManager, out chan<- res) {
		log := eqRun(t, m, script)
		out <- res{log: log, stats: m.Stats()}
	}
	refCh := make(chan res, 1)
	strCh := make(chan res, 1)
	go run(ref, refCh)
	go run(str, strCh)
	r, s := <-refCh, <-strCh

	if !reflect.DeepEqual(r.log, s.log) {
		t.Logf("reference transcript:\n  %s", strings.Join(r.log, "\n  "))
		t.Logf("striped transcript:\n  %s", strings.Join(s.log, "\n  "))
		return false
	}
	if r.stats != s.stats {
		t.Logf("stats diverged: reference=%+v striped=%+v", r.stats, s.stats)
		return false
	}
	heads := 0
	str.forEachHead(func(oid.OID, map[TxnID]Mode) { heads++ })
	ref.forEachHead(func(oid.OID, map[TxnID]Mode) { heads++ })
	if heads != 0 || len(str.ActiveTxns()) != 0 || len(ref.ActiveTxns()) != 0 {
		t.Logf("state leaked: %d heads, striped txns %v, reference txns %v",
			heads, str.ActiveTxns(), ref.ActiveTxns())
		return false
	}
	return true
}

// eqQuickCount is how many random schedules each property draws.
func eqQuickCount() int {
	if testing.Short() {
		return 8
	}
	return 30
}

// TestStripedMatchesReference is the testing/quick property: on every
// random schedule, the striped manager and the reference manager produce
// identical transcripts and identical cumulative Stats.
func TestStripedMatchesReference(t *testing.T) {
	if bucketIndex(eqObjIDs[0]) != bucketIndex(eqObjIDs[1]) ||
		bucketIndex(eqObjIDs[0]) == bucketIndex(eqObjIDs[2]) ||
		stripeHash(uint64(eqTxnIDs[0])) != stripeHash(uint64(eqTxnIDs[1])) ||
		stripeHash(uint64(eqTxnIDs[0])) == stripeHash(uint64(eqTxnIDs[2])) {
		t.Fatalf("schedule keys do not share buckets as intended: objs %v, txns %v", eqObjIDs, eqTxnIDs)
	}
	eqEachDetect(t, func(t *testing.T, detect Option) {
		prop := func(script eqScript) bool {
			return eqMatch(t, script, WithTimeout(eqSyncTO), WithHistory(true), detect)
		}
		cfg := &quick.Config{
			MaxCount: eqQuickCount(),
			Rand:     rand.New(rand.NewSource(20260806)),
		}
		if err := quick.Check(prop, cfg); err != nil {
			t.Fatal(err)
		}
	})
}

// eqEachDetect runs fn as two subtests, with deadlock detection off
// (the paper's timeout-only rule) and on.
func eqEachDetect(t *testing.T, fn func(t *testing.T, detect Option)) {
	for _, on := range []bool{false, true} {
		t.Run(fmt.Sprintf("detect=%v", on), func(t *testing.T) { fn(t, WithDeadlockDetection(on)) })
	}
}

// TestStripedMatchesReferenceSpill is the same property on schedules in
// which one transaction first locks more objects than it records inline,
// so its lock set spills to a map and the random ops then unlock, wait
// on and finish a spilled set.
func TestStripedMatchesReferenceSpill(t *testing.T) {
	for _, history := range []bool{false, true} {
		t.Run(fmt.Sprintf("history=%v", history), func(t *testing.T) {
			eqEachDetect(t, func(t *testing.T, detect Option) {
				prop := func(script eqSpillScript) bool {
					return eqMatch(t, script.eqScript, WithTimeout(eqSyncTO), WithHistory(history), detect)
				}
				cfg := &quick.Config{
					MaxCount: eqQuickCount(),
					Rand:     rand.New(rand.NewSource(20261019)),
				}
				if err := quick.Check(prop, cfg); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}

// TestStripedMatchesReferenceHeadReuse replays fixed schedules in which a
// lock head is reaped and the next head created in the same bucket is
// built from it, with waiters queued on the reused head and the objects
// locked again afterwards. eqObjIDs[0] and [1] share a bucket.
func TestStripedMatchesReferenceHeadReuse(t *testing.T) {
	t0, t1, t2 := eqTxnIDs[0], eqTxnIDs[1], eqTxnIDs[2]
	o0, o1 := eqObjIDs[0], eqObjIDs[1]
	op := func(kind eqOpKind, txn TxnID, o oid.OID, mode Mode) eqOp {
		return eqOp{kind: kind, txn: txn, obj: o, mode: mode}
	}
	begin := func(txn TxnID) eqOp { return eqOp{kind: opBegin, txn: txn} }
	finish := func(txn TxnID) eqOp { return eqOp{kind: opFinish, txn: txn} }
	schedules := map[string][]eqOp{
		"finish-then-reuse": {
			begin(t0), op(opLockSync, t0, o0, Exclusive), finish(t0),
			begin(t1), op(opLockSync, t1, o1, Shared),
			begin(t2), op(opLockAsync, t2, o1, Exclusive),
			op(opLockSync, t1, o0, Exclusive),
			finish(t1),
			begin(t0), op(opLockSync, t0, o0, Shared), op(opLockSync, t0, o1, Shared),
			finish(t2), op(opLockSync, t0, o1, Exclusive), finish(t0),
		},
		"unlock-then-reuse": {
			begin(t0), begin(t1),
			op(opLockSync, t0, o0, Shared), op(opLockSync, t1, o0, Shared),
			op(opUnlock, t0, o0, 0), op(opUnlock, t1, o0, 0),
			op(opLockSync, t1, o1, Shared), op(opLockSync, t0, o1, Shared),
			op(opLockAsync, t1, o1, Exclusive), op(opUnlock, t0, o1, 0),
			op(opLockSync, t0, o0, Exclusive), finish(t1), finish(t0),
		},
		"upgrade-on-reused": {
			begin(t0), op(opLockSync, t0, o1, Exclusive), finish(t0),
			begin(t1), begin(t2),
			op(opLockSync, t1, o0, Shared), op(opLockSync, t2, o0, Shared),
			op(opLockAsync, t1, o0, Exclusive), op(opLockSync, t2, o0, Exclusive),
			finish(t2), op(opLockSync, t1, o1, Shared), finish(t1),
		},
	}
	for name, ops := range schedules {
		for _, history := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/history=%v", name, history), func(t *testing.T) {
				eqEachDetect(t, func(t *testing.T, detect Option) {
					script := eqScript{objs: eqObjIDs[:], ops: ops}
					if !eqMatch(t, script, WithTimeout(eqSyncTO), WithHistory(history), detect) {
						t.Fatal("striped manager diverged from the reference")
					}
				})
			})
		}
	}
}

// TestStripedMatchesReferenceCycles replays fixed schedules whose last
// lock request closes a waits-for cycle: over two objects, over three
// transactions, and through a waiter queued ahead rather than a holder.
// With detection on, both managers fail the request with the earliest
// deadline at once: the closing sync request, or in "async-close" the
// older of two async ones; with it off, both time it out.
func TestStripedMatchesReferenceCycles(t *testing.T) {
	t0, t1, t2 := eqTxnIDs[0], eqTxnIDs[1], eqTxnIDs[2]
	o0, o1, o2 := eqObjIDs[0], eqObjIDs[1], eqObjIDs[2]
	op := func(kind eqOpKind, txn TxnID, o oid.OID, mode Mode) eqOp {
		return eqOp{kind: kind, txn: txn, obj: o, mode: mode}
	}
	begin := func(txn TxnID) eqOp { return eqOp{kind: opBegin, txn: txn} }
	finish := func(txn TxnID) eqOp { return eqOp{kind: opFinish, txn: txn} }
	schedules := map[string][]eqOp{
		"two-objects": {
			begin(t0), begin(t1),
			op(opLockSync, t0, o0, Exclusive), op(opLockSync, t1, o1, Exclusive),
			op(opLockAsync, t0, o1, Exclusive), op(opLockSync, t1, o0, Exclusive),
			finish(t1), finish(t0),
		},
		"three-txns": {
			begin(t0), begin(t1), begin(t2),
			op(opLockSync, t0, o0, Exclusive), op(opLockSync, t1, o1, Shared), op(opLockSync, t2, o2, Exclusive),
			op(opLockAsync, t0, o1, Exclusive), op(opLockAsync, t1, o2, Shared),
			op(opLockSync, t2, o0, Shared), finish(t2),
		},
		"async-close": {
			begin(t0), begin(t1),
			op(opLockSync, t0, o0, Exclusive), op(opLockSync, t1, o1, Exclusive),
			op(opLockAsync, t0, o1, Exclusive), op(opLockAsync, t1, o0, Exclusive),
		},
		"through-waiter": {
			begin(t0), begin(t1), begin(t2),
			op(opLockSync, t0, o0, Shared), op(opLockSync, t2, o1, Exclusive),
			op(opLockAsync, t1, o0, Exclusive), op(opLockAsync, t2, o0, Shared),
			op(opLockSync, t0, o1, Shared), finish(t0),
		},
	}
	for name, ops := range schedules {
		t.Run(name, func(t *testing.T) {
			eqEachDetect(t, func(t *testing.T, detect Option) {
				script := eqScript{objs: eqObjIDs[:], ops: ops}
				if !eqMatch(t, script, WithTimeout(eqSyncTO), WithHistory(true), detect) {
					t.Fatal("striped manager diverged from the reference")
				}
			})
		})
	}
}

// TestStripedFinishSpansBuckets pins the cross-bucket Finish path: one
// transaction locks objects chosen by bucketIndex so that several share
// each bucket and together they span more than one, with queued waiters
// on several of them; Finish must release everything and wake all
// waiters.
func TestStripedFinishSpansBuckets(t *testing.T) {
	const (
		n         = 32
		nBuckets  = 4
		perBucket = n / nBuckets
	)
	var objs []oid.OID
	inBucket := map[uint64]int{}
	for slot := 0; len(objs) < n; slot++ {
		o := oid.New(1, 1, oid.SlotNum(slot))
		b := bucketIndex(o)
		if _, seen := inBucket[b]; !seen && len(inBucket) == nBuckets {
			continue
		}
		if inBucket[b] < perBucket {
			inBucket[b]++
			objs = append(objs, o)
		}
	}
	if len(inBucket) < 2 {
		t.Fatalf("objects span %d buckets, want at least 2", len(inBucket))
	}

	m := NewManager(WithTimeout(2*time.Second), WithHistory(true))
	m.Begin(1)
	for _, o := range objs {
		if err := m.Lock(1, o, Exclusive); err != nil {
			t.Fatal(err)
		}
	}
	// Queue a waiter on every fourth object.
	errs := make(chan error, n/4)
	for i := 0; i < n; i += 4 {
		tx := TxnID(100 + i)
		m.Begin(tx)
		go func(tx TxnID, o oid.OID) {
			errs <- m.LockTimeout(tx, o, Shared, 5*time.Second)
		}(tx, objs[i])
	}
	// Wait until all are queued.
	for deadline := time.Now().Add(5 * time.Second); m.Stats().Waits < n/4; {
		if time.Now().After(deadline) {
			t.Fatalf("waiters not queued: stats=%+v", m.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if err := m.Finish(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n/4; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("waiter after Finish: %v", err)
		}
	}
	if got := len(m.HeldLocks(1)); got != 0 {
		t.Fatalf("finished txn still holds %d locks", got)
	}
	// Duplicate Finish must report unknown, not panic or double-release.
	if err := m.Finish(1); !errors.Is(err, ErrUnknownTxn) {
		t.Fatalf("second Finish: %v", err)
	}
	// History for finished txn 1 must be gone everywhere.
	for _, o := range objs {
		for _, tx := range m.EverLockedBy(o, 0) {
			if tx == 1 {
				t.Fatalf("history for finished txn survived on %s", o)
			}
		}
	}
}
