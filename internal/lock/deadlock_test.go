package lock

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/oid"
)

// deadlockTimeout is long enough that a test finishing in time proves
// the cycle was broken by detection, not by the timeout.
const deadlockTimeout = 10 * time.Second

// awaitWaits blocks until m counts n queued requests.
func awaitWaits(t *testing.T, m *Manager, n uint64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); m.Stats().Waits < n; {
		if time.Now().After(deadline) {
			t.Fatalf("requests never queued: stats %+v", m.Stats())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestDeadlockCycleResolvedAtOnce builds a two-transaction cycle over two
// objects and an S→X upgrade cycle on one. Transaction 1 queues first;
// transaction 2's request closes the cycle. The victim is the member
// whose timeout would fire first: transaction 1, unless transaction 2
// asks for a shorter timeout. It fails at once with ErrDeadlock (also an
// ErrTimeout) naming its blocker; it is the only victim, the survivor
// is granted once the victim finishes, and no timeout is counted.
func TestDeadlockCycleResolvedAtOnce(t *testing.T) {
	o1, o2 := oid.New(1, 1, 1), oid.New(1, 1, 2)
	cases := []struct {
		name string
		// hold is what each transaction holds before the cycle closes,
		// in mode holdMd; want is what each then requests in X.
		hold   [2][]oid.OID
		holdMd Mode
		want   [2]oid.OID
		// closerTimeout is transaction 2's timeout; victim is 1 or 2.
		closerTimeout time.Duration
		victim        int
	}{
		{"two-objects", [2][]oid.OID{{o1}, {o2}}, Exclusive, [2]oid.OID{o2, o1}, deadlockTimeout, 1},
		{"upgrade", [2][]oid.OID{{o1}, {o1}}, Shared, [2]oid.OID{o1, o1}, deadlockTimeout, 1},
		{"closer-times-out-first", [2][]oid.OID{{o1}, {o2}}, Exclusive, [2]oid.OID{o2, o1}, deadlockTimeout / 2, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// The resolution is timed on the fastest of three rounds, so
			// one descheduling of the test goroutine cannot fail it.
			best := time.Hour
			for round := 0; round < 3; round++ {
				m := NewManager(WithTimeout(deadlockTimeout), WithDeadlockDetection(true))
				m.Begin(1)
				m.Begin(2)
				for i, objs := range c.hold {
					for _, o := range objs {
						if err := m.Lock(TxnID(i+1), o, c.holdMd); err != nil {
							t.Fatal(err)
						}
					}
				}
				var errs [2]chan error
				for i := range errs {
					errs[i] = make(chan error, 1)
				}
				go func() { errs[0] <- m.Lock(1, c.want[0], Exclusive) }()
				awaitWaits(t, m, 1)
				start := time.Now()
				go func() { errs[1] <- m.LockTimeout(2, c.want[1], Exclusive, c.closerTimeout) }()

				v := c.victim - 1
				err := <-errs[v]
				if d := time.Since(start); d < best {
					best = d
				}
				if !errors.Is(err, ErrDeadlock) || !errors.Is(err, ErrTimeout) {
					t.Fatalf("victim's request: %v, want ErrDeadlock (an ErrTimeout)", err)
				}
				if want := fmt.Sprintf("X lock on %s, blocked by txns [%d]", c.want[v], 2-v); !strings.Contains(err.Error(), want) {
					t.Fatalf("error %q does not name %q", err, want)
				}
				if err := m.Finish(TxnID(c.victim)); err != nil {
					t.Fatal(err)
				}
				if err := <-errs[1-v]; err != nil {
					t.Fatalf("surviving request after the victim finished: %v", err)
				}
				if st := m.Stats(); st.Deadlocks != 1 || st.Timeouts != 0 {
					t.Fatalf("stats %+v, want one deadlock and no timeout", st)
				}
				m.Finish(TxnID(2 - v))
			}
			if best >= time.Millisecond {
				t.Fatalf("cycle resolved after %v at best, want < 1ms", best)
			}
		})
	}
}

// TestDeadlockConcurrentCloseOneVictim has both members of a cycle
// request at the same instant, round after round: the walks are
// serialized, so exactly one of them is the victim and the other is
// granted once the victim finishes.
func TestDeadlockConcurrentCloseOneVictim(t *testing.T) {
	o1, o2 := oid.New(1, 1, 1), oid.New(1, 2, 1)
	for round := 0; round < 50; round++ {
		m := NewManager(WithTimeout(deadlockTimeout), WithDeadlockDetection(true))
		m.Begin(1)
		m.Begin(2)
		if err := m.Lock(1, o1, Exclusive); err != nil {
			t.Fatal(err)
		}
		if err := m.Lock(2, o2, Exclusive); err != nil {
			t.Fatal(err)
		}
		var start sync.WaitGroup
		start.Add(1)
		errs := [2]chan error{make(chan error, 1), make(chan error, 1)}
		for i, o := range []oid.OID{o2, o1} {
			go func(txn TxnID, o oid.OID, out chan<- error) {
				start.Wait()
				err := m.Lock(txn, o, Exclusive)
				if err != nil {
					m.Finish(txn) // the victim aborts
				}
				out <- err
			}(TxnID(i+1), o, errs[i])
		}
		start.Done()
		victims := 0
		for i := range errs {
			select {
			case err := <-errs[i]:
				if errors.Is(err, ErrDeadlock) {
					victims++
				} else if err != nil {
					t.Fatalf("round %d: txn %d: %v", round, i+1, err)
				}
			case <-time.After(deadlockTimeout / 2):
				t.Fatalf("round %d: cycle not resolved", round)
			}
		}
		if st := m.Stats(); victims != 1 || st.Deadlocks != 1 || st.Timeouts != 0 {
			t.Fatalf("round %d: %d victims, stats %+v; want exactly one", round, victims, st)
		}
	}
}

// TestTimeoutNamesBlockers: a timed-out request names the object, the
// mode and the transactions it waited for, and counts as a timeout, not
// a deadlock.
func TestTimeoutNamesBlockers(t *testing.T) {
	m := NewManager(WithTimeout(5*time.Millisecond), WithDeadlockDetection(true))
	for txn := TxnID(1); txn <= 3; txn++ {
		m.Begin(txn)
	}
	m.Lock(1, testOID, Shared)
	m.Lock(2, testOID, Shared)
	err := m.Lock(3, testOID, Exclusive)
	if !errors.Is(err, ErrTimeout) || errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want a plain timeout", err)
	}
	msg := err.Error()
	if !strings.Contains(msg, "X lock on "+testOID.String()) ||
		!(strings.Contains(msg, "blocked by txns [1 2]") || strings.Contains(msg, "blocked by txns [2 1]")) {
		t.Fatalf("error %q does not name the object, mode and blockers", msg)
	}
	if st := m.Stats(); st.Timeouts != 1 || st.Deadlocks != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestWithdrawnWaiterUnblocksFollowers: a request that leaves the queue
// (deadlock victim or timeout) from ahead of compatible waiters lets them
// be granted at once, not at the holder's next release — otherwise they
// wait for a holder that may be waiting for them, a cycle no graph
// edge shows.
func TestWithdrawnWaiterUnblocksFollowers(t *testing.T) {
	for _, detect := range []bool{false, true} {
		t.Run(fmt.Sprintf("detect=%v", detect), func(t *testing.T) {
			m := NewManager(WithTimeout(deadlockTimeout), WithDeadlockDetection(detect))
			for txn := TxnID(1); txn <= 3; txn++ {
				m.Begin(txn)
			}
			if err := m.Lock(1, testOID, Shared); err != nil {
				t.Fatal(err)
			}
			writer := make(chan error, 1)
			go func() { writer <- m.LockTimeout(2, testOID, Exclusive, 50*time.Millisecond) }()
			awaitWaits(t, m, 1)
			reader := make(chan error, 1)
			go func() { reader <- m.Lock(3, testOID, Shared) }()
			awaitWaits(t, m, 2)
			if err := <-writer; !errors.Is(err, ErrTimeout) {
				t.Fatalf("writer: %v, want a timeout", err)
			}
			select {
			case err := <-reader:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("reader still queued after the writer ahead of it left")
			}
		})
	}
}

// TestNoPhantomDeadlocksUnderHeadChurn hammers objects of one bucket with
// timeouts short enough that heads are reaped, recycled and abandoned all
// the time. Every transaction locks its objects in ascending order and
// never upgrades, so no waits-for cycle can exist: any deadlock victim is
// a phantom, such as an edge from a request that was already granted.
func TestNoPhantomDeadlocksUnderHeadChurn(t *testing.T) {
	objs := []oid.OID{testOID}
	for len(objs) < 4 {
		objs = append(objs, sameBucketOID(objs[len(objs)-1]))
	}
	m := NewManager(WithTimeout(200*time.Microsecond), WithDeadlockDetection(true))
	var next atomic.Uint64
	var wg sync.WaitGroup
	// On a loaded host the goroutines may barely overlap, so each keeps
	// going past its 1000 transactions until some request has timed out,
	// or the budget runs out.
	budget := time.Now().Add(10 * time.Second)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 1000 || (m.Stats().Timeouts == 0 && time.Now().Before(budget)); i++ {
				txn := TxnID(next.Add(1))
				m.Begin(txn)
				for j := range objs {
					if rng.Intn(2) == 0 {
						continue
					}
					err := m.Lock(txn, objs[j], Mode(rng.Intn(2)))
					if errors.Is(err, ErrDeadlock) {
						t.Errorf("phantom deadlock: %v", err)
					}
					if err != nil {
						break
					}
				}
				m.Finish(txn)
			}
		}(g)
	}
	wg.Wait()
	st := m.Stats()
	if st.Deadlocks != 0 {
		t.Fatalf("stats %+v: deadlock victims in a deadlock-free schedule", st)
	}
	if st.Timeouts == 0 {
		t.Fatalf("no request timed out (stats %+v); the schedule never abandoned a head", st)
	}
	n := 0
	m.forEachHead(func(oid.OID, map[TxnID]Mode) { n++ })
	if n != 0 {
		t.Fatalf("%d lock heads leaked", n)
	}
}
