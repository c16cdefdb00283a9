package db

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/lock"
	"repro/internal/oid"
)

// TestDeadlockModes has two clients update one object each and then the
// other's. With TimeoutDeadlocks set, as in DefaultConfig, the cycle is
// broken only when the first waiter's LockTimeout fires; cleared, that
// same waiter fails as soon as the second update closes the cycle.
// Either way the first waiter is the victim, its error is an ErrTimeout,
// it aborts and the survivor commits.
func TestDeadlockModes(t *testing.T) {
	const timeout = 500 * time.Millisecond
	for _, timeoutOnly := range []bool{true, false} {
		t.Run(fmt.Sprintf("TimeoutDeadlocks=%v", timeoutOnly), func(t *testing.T) {
			t.Setenv("REORG_MODE", "fidelity")
			cfg := testConfig()
			cfg.LockTimeout = timeout
			cfg.TimeoutDeadlocks = timeoutOnly
			d := Open(cfg)
			t.Cleanup(d.Close)
			if err := d.CreatePartition(1); err != nil {
				t.Fatal(err)
			}
			setup := mustBegin(t, d)
			var objs [2]oid.OID
			for i := range objs {
				o, err := setup.Create(1, []byte("v0"), nil)
				if err != nil {
					t.Fatal(err)
				}
				objs[i] = o
			}
			if err := setup.Commit(); err != nil {
				t.Fatal(err)
			}

			type outcome struct {
				err        error
				start, end time.Time // of the failing or succeeding update
			}
			var txns [2]*Txn
			for i := range txns {
				txns[i] = mustBegin(t, d)
				if err := txns[i].UpdatePayload(objs[i], []byte("v1")); err != nil {
					t.Fatal(err)
				}
			}
			// cross updates the other client's object, then aborts on
			// failure or commits.
			cross := func(i int, out chan<- outcome) {
				start := time.Now()
				err := txns[i].UpdatePayload(objs[1-i], []byte("v2"))
				end := time.Now()
				if err != nil {
					txns[i].Abort()
				} else if cerr := txns[i].Commit(); cerr != nil {
					err = fmt.Errorf("commit: %w", cerr)
				}
				out <- outcome{err, start, end}
			}
			outs := [2]chan outcome{make(chan outcome, 1), make(chan outcome, 1)}
			go cross(0, outs[0])
			for deadline := time.Now().Add(5 * time.Second); d.Locks().Stats().Waits < 1; {
				if time.Now().After(deadline) {
					t.Fatal("first cross update never queued")
				}
				time.Sleep(100 * time.Microsecond)
			}
			// The second update starts half a timeout later, so that under
			// the timeout its wait outlasts the first client's abort.
			time.Sleep(timeout / 2)
			closed := time.Now()
			go cross(1, outs[1])

			victims := 0
			for i := range outs {
				o := <-outs[i]
				if o.err == nil {
					continue
				}
				if !errors.Is(o.err, lock.ErrTimeout) {
					t.Fatalf("client %d: %v, want an ErrTimeout", i, o.err)
				}
				victims++
				if i != 0 {
					t.Errorf("client %d was the victim; the first waiter's timeout fires first", i)
				}
				if waited := o.end.Sub(o.start); timeoutOnly && waited < timeout {
					t.Errorf("client %d failed after %v, before LockTimeout %v", i, waited, timeout)
				}
				if after := o.end.Sub(closed); !timeoutOnly && after >= timeout/5 {
					t.Errorf("client %d failed %v after the cycle closed; detection should fail it at once", i, after)
				}
			}
			st := d.Locks().Stats()
			if victims != 1 {
				t.Fatalf("%d victims, want 1 (stats %+v)", victims, st)
			}
			if timeoutOnly && (st.Timeouts != 1 || st.Deadlocks != 0) ||
				!timeoutOnly && (st.Timeouts != 0 || st.Deadlocks != 1) {
				t.Fatalf("stats %+v", st)
			}
		})
	}
}

// TestHardwareModeDetectsDeadlocks: DefaultConfig keeps the paper's
// timeout-only rule, and REORG_MODE=hardware clears it.
func TestHardwareModeDetectsDeadlocks(t *testing.T) {
	for mode, want := range map[string]bool{"fidelity": true, "hardware": false} {
		t.Run(mode, func(t *testing.T) {
			t.Setenv("REORG_MODE", mode)
			d := Open(DefaultConfig())
			defer d.Close()
			if got := d.Config().TimeoutDeadlocks; got != want {
				t.Fatalf("TimeoutDeadlocks = %v, want %v", got, want)
			}
		})
	}
}
