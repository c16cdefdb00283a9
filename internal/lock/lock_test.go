package lock

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/oid"
)

var testOID = oid.New(1, 1, 1)

func newMgr(opts ...Option) *Manager {
	return NewManager(append([]Option{WithTimeout(200 * time.Millisecond)}, opts...)...)
}

func TestSharedLocksCompatible(t *testing.T) {
	t.Run("striped", func(t *testing.T) {
		m := newMgr()
		m.Begin(1)
		m.Begin(2)
		if err := m.Lock(1, testOID, Shared); err != nil {
			t.Fatal(err)
		}
		if err := m.Lock(2, testOID, Shared); err != nil {
			t.Fatalf("second shared lock blocked: %v", err)
		}
	})
}

func TestExclusiveExcludes(t *testing.T) {
	t.Run("striped", func(t *testing.T) {
		m := newMgr()
		m.Begin(1)
		m.Begin(2)
		if err := m.Lock(1, testOID, Exclusive); err != nil {
			t.Fatal(err)
		}
		if err := m.Lock(2, testOID, Shared); !errors.Is(err, ErrTimeout) {
			t.Fatalf("shared vs exclusive: %v", err)
		}
		if err := m.Lock(2, testOID, Exclusive); !errors.Is(err, ErrTimeout) {
			t.Fatalf("exclusive vs exclusive: %v", err)
		}
		st := m.Stats()
		if st.Timeouts != 2 {
			t.Fatalf("Timeouts = %d, want 2", st.Timeouts)
		}
	})
}

func TestFinishReleasesAndWakes(t *testing.T) {
	m := newMgr()
	m.Begin(1)
	m.Begin(2)
	m.Lock(1, testOID, Exclusive)
	got := make(chan error, 1)
	go func() { got <- m.LockTimeout(2, testOID, Exclusive, 5*time.Second) }()
	time.Sleep(20 * time.Millisecond)
	if err := m.Finish(1); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("waiter not granted after Finish: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter stuck after Finish")
	}
	if mode, ok := m.Holds(2, testOID); !ok || mode != Exclusive {
		t.Fatalf("Holds(2) = %v,%v", mode, ok)
	}
}

func TestReentrantAndNoDowngrade(t *testing.T) {
	m := newMgr()
	m.Begin(1)
	if err := m.Lock(1, testOID, Exclusive); err != nil {
		t.Fatal(err)
	}
	// Re-request X and S: both no-ops.
	if err := m.Lock(1, testOID, Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(1, testOID, Shared); err != nil {
		t.Fatal(err)
	}
	if mode, _ := m.Holds(1, testOID); mode != Exclusive {
		t.Fatalf("mode downgraded to %v", mode)
	}
}

func TestUpgrade(t *testing.T) {
	m := newMgr()
	m.Begin(1)
	m.Lock(1, testOID, Shared)
	if err := m.Lock(1, testOID, Exclusive); err != nil {
		t.Fatalf("sole-holder upgrade failed: %v", err)
	}
	if mode, _ := m.Holds(1, testOID); mode != Exclusive {
		t.Fatalf("mode = %v after upgrade", mode)
	}
}

func TestUpgradeWaitsForOtherReaders(t *testing.T) {
	m := newMgr()
	m.Begin(1)
	m.Begin(2)
	m.Lock(1, testOID, Shared)
	m.Lock(2, testOID, Shared)
	got := make(chan error, 1)
	go func() { got <- m.LockTimeout(1, testOID, Exclusive, 5*time.Second) }()
	time.Sleep(20 * time.Millisecond)
	select {
	case err := <-got:
		t.Fatalf("upgrade granted while another reader holds S: %v", err)
	default:
	}
	m.Finish(2)
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("upgrade failed after reader finished: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("upgrade stuck")
	}
}

func TestUpgradeJumpsQueue(t *testing.T) {
	m := newMgr()
	m.Begin(1) // reader that will upgrade
	m.Begin(2) // writer waiting
	m.Lock(1, testOID, Shared)
	writerGot := make(chan error, 1)
	go func() { writerGot <- m.LockTimeout(2, testOID, Exclusive, 5*time.Second) }()
	time.Sleep(20 * time.Millisecond)
	// Upgrade should succeed immediately: txn 1 is the sole holder and
	// upgrades pass queued writers.
	if err := m.LockTimeout(1, testOID, Exclusive, time.Second); err != nil {
		t.Fatalf("upgrade stuck behind queued writer: %v", err)
	}
	m.Finish(1)
	if err := <-writerGot; err != nil {
		t.Fatalf("queued writer: %v", err)
	}
	m.Finish(2)
}

func TestUpgradeDeadlockResolvedByTimeout(t *testing.T) {
	m := newMgr()
	m.Begin(1)
	m.Begin(2)
	m.Lock(1, testOID, Shared)
	m.Lock(2, testOID, Shared)
	errs := make(chan error, 2)
	go func() { errs <- m.Lock(1, testOID, Exclusive) }()
	go func() { errs <- m.Lock(2, testOID, Exclusive) }()
	timedOut := 0
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if errors.Is(err, ErrTimeout) {
				timedOut++
			}
		case <-time.After(5 * time.Second):
			t.Fatal("upgrade deadlock not resolved")
		}
	}
	if timedOut == 0 {
		t.Fatal("both upgrades succeeded in a deadlock")
	}
}

func TestFIFOPreventsWriterStarvation(t *testing.T) {
	m := NewManager(WithTimeout(5 * time.Second))
	m.Begin(1)
	m.Lock(1, testOID, Shared)
	// Writer queues.
	m.Begin(2)
	writerGot := make(chan error, 1)
	go func() { writerGot <- m.Lock(2, testOID, Exclusive) }()
	time.Sleep(20 * time.Millisecond)
	// Late reader must queue behind the writer, not share with txn 1.
	m.Begin(3)
	readerGot := make(chan error, 1)
	go func() { readerGot <- m.Lock(3, testOID, Shared) }()
	time.Sleep(20 * time.Millisecond)
	select {
	case <-readerGot:
		t.Fatal("late reader overtook queued writer")
	default:
	}
	m.Finish(1)
	if err := <-writerGot; err != nil {
		t.Fatalf("writer: %v", err)
	}
	m.Finish(2)
	if err := <-readerGot; err != nil {
		t.Fatalf("reader after writer: %v", err)
	}
}

func TestUnlockBeforeFinish(t *testing.T) {
	m := newMgr()
	m.Begin(1)
	m.Begin(2)
	m.Lock(1, testOID, Exclusive)
	if err := m.Unlock(1, testOID); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(2, testOID, Exclusive); err != nil {
		t.Fatalf("lock after early unlock: %v", err)
	}
	if err := m.Unlock(1, testOID); err == nil {
		t.Fatal("double unlock succeeded")
	}
}

func TestUnknownTxn(t *testing.T) {
	m := newMgr()
	if err := m.Lock(99, testOID, Shared); !errors.Is(err, ErrUnknownTxn) {
		t.Fatalf("err = %v", err)
	}
	if err := m.Finish(99); !errors.Is(err, ErrUnknownTxn) {
		t.Fatalf("Finish: %v", err)
	}
}

func TestHistoryTracking(t *testing.T) {
	m := newMgr(WithHistory(true))
	m.Begin(1)
	m.Begin(2)
	m.Lock(1, testOID, Shared)
	m.Unlock(1, testOID) // released early, but txn 1 still active
	lockers := m.EverLockedBy(testOID, 0)
	if len(lockers) != 1 || lockers[0] != 1 {
		t.Fatalf("EverLockedBy = %v, want [1]", lockers)
	}
	// Excluding txn 1 empties the set.
	if got := m.EverLockedBy(testOID, 1); len(got) != 0 {
		t.Fatalf("EverLockedBy excluding self = %v", got)
	}
	m.Finish(1)
	if got := m.EverLockedBy(testOID, 0); len(got) != 0 {
		t.Fatalf("history survived Finish: %v", got)
	}
}

func TestWaitEverLockers(t *testing.T) {
	m := newMgr(WithHistory(true))
	m.Begin(1)
	m.Lock(1, testOID, Shared)
	m.Unlock(1, testOID)
	done := make(chan error, 1)
	go func() { done <- m.WaitEverLockers(testOID, 0, 5*time.Second) }()
	time.Sleep(20 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("WaitEverLockers returned while historical locker active")
	default:
	}
	m.Finish(1)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("WaitEverLockers stuck after Finish")
	}
}

func TestWaitEverLockersTimeout(t *testing.T) {
	m := newMgr(WithHistory(true))
	m.Begin(1)
	m.Lock(1, testOID, Shared)
	if err := m.WaitEverLockers(testOID, 0, 50*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want timeout", err)
	}
}

// TestNoLostUpdatesUnderX hammers one object with exclusive-lock-protected
// read-modify-write cycles from many goroutines; any mutual-exclusion bug
// loses increments.
func TestNoLostUpdatesUnderX(t *testing.T) {
	for _, detect := range []bool{false, true} {
		t.Run(fmt.Sprintf("detect=%v", detect), func(t *testing.T) {
			m := NewManager(WithTimeout(10*time.Second), WithDeadlockDetection(detect))
			var counter int64
			var next atomic.Uint64
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 200; i++ {
						txn := TxnID(next.Add(1))
						m.Begin(txn)
						if err := m.Lock(txn, testOID, Exclusive); err != nil {
							t.Errorf("lock: %v", err)
							m.Finish(txn)
							return
						}
						c := atomic.LoadInt64(&counter)
						time.Sleep(time.Microsecond)
						atomic.StoreInt64(&counter, c+1)
						m.Finish(txn)
					}
				}()
			}
			wg.Wait()
			if counter != 1600 {
				t.Fatalf("counter = %d, want 1600", counter)
			}
			if st := m.Stats(); st.Deadlocks != 0 {
				t.Fatalf("stats %+v: deadlock victims on a single object", st)
			}
		})
	}
}

// TestInvariantNoIncompatibleHolders randomly locks/unlocks and validates
// that the holder set never contains an X holder together with any other
// holder.
func TestInvariantNoIncompatibleHolders(t *testing.T) {
	t.Run("striped", func(t *testing.T) {
		m := newMgr(WithTimeout(50 * time.Millisecond))
		objs := []oid.OID{oid.New(0, 1, 0), oid.New(0, 1, 1), oid.New(0, 1, 2)}
		var wg sync.WaitGroup
		var violation atomic.Bool
		var next atomic.Uint64
		for g := 0; g < 12; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(g)))
				for i := 0; i < 300; i++ {
					txn := TxnID(next.Add(1))
					m.Begin(txn)
					for _, o := range objs {
						mode := Shared
						if rng.Intn(2) == 0 {
							mode = Exclusive
						}
						if err := m.Lock(txn, o, mode); err != nil {
							break
						}
					}
					// Validate holder compatibility. forEachHead holds
					// the owning mutex, so each head is a consistent view.
					m.forEachHead(func(_ oid.OID, hs map[TxnID]Mode) {
						var xHolders, holders int
						for _, md := range hs {
							holders++
							if md == Exclusive {
								xHolders++
							}
						}
						if xHolders > 0 && holders > 1 {
							violation.Store(true)
						}
					})
					m.Finish(txn)
				}
			}(g)
		}
		wg.Wait()
		if violation.Load() {
			t.Fatal("incompatible holders coexisted")
		}
		// All lock heads should be reaped once everything finishes.
		n := 0
		m.forEachHead(func(oid.OID, map[TxnID]Mode) { n++ })
		if n != 0 {
			t.Fatalf("%d lock heads leaked", n)
		}
	})
}

func TestDoneChannel(t *testing.T) {
	m := newMgr()
	m.Begin(1)
	ch := m.Done(1)
	select {
	case <-ch:
		t.Fatal("Done closed while txn active")
	default:
	}
	m.Finish(1)
	select {
	case <-ch:
	case <-time.After(time.Second):
		t.Fatal("Done not closed by Finish")
	}
	// Unknown txn: closed channel.
	select {
	case <-m.Done(42):
	case <-time.After(time.Second):
		t.Fatal("Done(unknown) not closed")
	}
}

func TestActiveTxns(t *testing.T) {
	m := newMgr()
	m.Begin(5)
	m.Begin(6)
	active := m.ActiveTxns()
	if len(active) != 2 {
		t.Fatalf("ActiveTxns = %v", active)
	}
	m.Finish(5)
	if got := m.ActiveTxns(); len(got) != 1 || got[0] != 6 {
		t.Fatalf("ActiveTxns after finish = %v", got)
	}
}

// sameBucketOID returns an object of partition 2, page 1 whose lock head
// lives in o's bucket. Its slot is past o's if o is on that page too, so
// chained calls return distinct objects.
func sameBucketOID(o oid.OID) oid.OID {
	slot := oid.SlotNum(0)
	if o.Partition() == 2 && o.Page() == 1 {
		slot = o.Slot() + 1
	}
	for ; ; slot++ {
		c := oid.New(2, 1, slot)
		if bucketIndex(c) == bucketIndex(o) {
			return c
		}
	}
}

// TestTimedOutWaiterReapsOnlyItsOwnHead: T2 queues on o and is finished
// while queued (a caller-contract violation). T1's Finish then drops
// T2's orphaned waiter and reaps o's head, and T3 locks o on a new head.
// When T2's timer fires, the stale head it still points at must not take
// T3's live head with it; otherwise T4 is granted X beside T3. In the
// "recycled" case another object of the bucket first takes the reaped
// head and hands it back empty, so the stale head is an empty head on
// the free list when the timer fires.
func TestTimedOutWaiterReapsOnlyItsOwnHead(t *testing.T) {
	for _, recycled := range []bool{false, true} {
		t.Run(map[bool]string{false: "fresh", true: "recycled"}[recycled], func(t *testing.T) {
			m := NewManager(WithTimeout(20 * time.Millisecond))
			for txn := TxnID(1); txn <= 4; txn++ {
				m.Begin(txn)
			}
			if err := m.Lock(1, testOID, Exclusive); err != nil {
				t.Fatal(err)
			}
			stale := make(chan error, 1)
			go func() { stale <- m.LockTimeout(2, testOID, Exclusive, 250*time.Millisecond) }()
			for deadline := time.Now().Add(5 * time.Second); m.Stats().Waits < 1; {
				if time.Now().After(deadline) {
					t.Fatal("T2 never queued")
				}
				time.Sleep(time.Millisecond)
			}
			m.Finish(2)
			m.Finish(1)
			other := sameBucketOID(testOID)
			if recycled {
				if err := m.Lock(4, other, Exclusive); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.Lock(3, testOID, Exclusive); err != nil {
				t.Fatalf("T3 on a released object: %v", err)
			}
			if recycled {
				if err := m.Unlock(4, other); err != nil {
					t.Fatal(err)
				}
			}
			if err := <-stale; !errors.Is(err, ErrTimeout) {
				t.Fatalf("orphaned T2 request: %v, want a timeout", err)
			}
			if err := m.Lock(4, testOID, Exclusive); !errors.Is(err, ErrTimeout) {
				t.Fatalf("T4's X lock beside T3's: %v, want a timeout", err)
			}
			if mode, ok := m.Holds(3, testOID); !ok || mode != Exclusive {
				t.Fatalf("Holds(3) = %v,%v", mode, ok)
			}
		})
	}
}

// TestNoConflictingGrantsUnderHeadReuse has goroutines lock and upgrade
// random objects of one bucket with timeouts short enough that many
// requests give up, so heads are reaped, recycled and abandoned by
// timed-out waiters all the time. Each goroutine records what it holds
// in per-object counters (after a grant, and before Finish releases), so
// the counters never overstate the real holders: an exclusive holder
// that sees another holder of the same object is a conflicting grant,
// whichever head it was made on.
func TestNoConflictingGrantsUnderHeadReuse(t *testing.T) {
	objs := []oid.OID{testOID}
	for len(objs) < 4 {
		objs = append(objs, sameBucketOID(objs[len(objs)-1]))
	}
	var shared, exclusive [4]atomic.Int32
	var violations atomic.Int32
	check := func(i int) {
		if x := exclusive[i].Load(); x > 1 || (x == 1 && shared[i].Load() > 0) {
			violations.Add(1)
		}
	}
	m := NewManager(WithTimeout(200 * time.Microsecond))
	var next atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 1000; i++ {
				txn := TxnID(next.Add(1))
				m.Begin(txn)
				held := map[int]Mode{}
				for k := 0; k < 3; k++ {
					j := rng.Intn(len(objs))
					mode := Mode(rng.Intn(2))
					if m.Lock(txn, objs[j], mode) != nil {
						break
					}
					switch prev, ok := held[j]; {
					case !ok && mode == Shared:
						shared[j].Add(1)
						held[j] = Shared
					case !ok:
						exclusive[j].Add(1)
						held[j] = Exclusive
					case prev == Shared && mode == Exclusive:
						exclusive[j].Add(1)
						shared[j].Add(-1)
						held[j] = Exclusive
					}
					check(j)
				}
				for j, mode := range held {
					if mode == Shared {
						shared[j].Add(-1)
					} else {
						exclusive[j].Add(-1)
					}
				}
				m.Finish(txn)
			}
		}(g)
	}
	wg.Wait()
	if n := violations.Load(); n > 0 {
		t.Fatalf("%d conflicting grants", n)
	}
	n := 0
	m.forEachHead(func(oid.OID, map[TxnID]Mode) { n++ })
	if n != 0 {
		t.Fatalf("%d lock heads leaked", n)
	}
	if st := m.Stats(); st.Timeouts == 0 {
		t.Fatalf("no request timed out (stats %+v); the schedule never abandoned a head", st)
	}
}
