package testkit

import (
	"errors"
	"testing"
	"time"

	"repro/internal/db"
	"repro/internal/lock"
	"repro/internal/oid"
	"repro/internal/workload"
)

// TestCellsBuildWhatTheyName opens a database for every cell of the
// matrix and checks it against the cell's name: the store's backing,
// the presence of the OID map, the WAL append path, the deadlock mode
// the lock manager really runs and the workload's CPU token. A cell
// that silently collapsed to memory/physical/fidelity fails here.
func TestCellsBuildWhatTheyName(t *testing.T) {
	var all []Cell
	for i := 0; i < 8; i++ {
		all = append(all, Cell{Disk: i&1 != 0, Logical: i&2 != 0, Hardware: i&4 != 0})
	}
	names := make(map[string]bool)
	Run(t, all, func(t *testing.T, c Cell) {
		if names[c.String()] {
			t.Fatalf("two cells named %s", c)
		}
		names[c.String()] = true
		cfg := db.DefaultConfig()
		cfg.FlushLatency = 0
		cfg.LockTimeout = 50 * time.Millisecond
		d := db.Open(c.Config(t, cfg))
		defer d.Close()
		if got := d.Store().DiskBacked(); got != c.Disk {
			t.Errorf("disk-backed store = %v", got)
		}
		if got := d.OIDMap() != nil; got != c.Logical {
			t.Errorf("OID map present = %v", got)
		}
		if got := d.Log().GroupAppend(); got != c.Hardware {
			t.Errorf("group-append WAL = %v", got)
		}
		if got := detectsDeadlock(t, d.Locks()); got != c.Hardware {
			t.Errorf("deadlock found on queueing = %v", got)
		}

		p := c.Params(workload.DefaultParams())
		p.NumPartitions, p.ObjectsPerPartition, p.MPL = 1, 85, 1
		w, err := workload.Build(c.Config(t, cfg), p)
		if err != nil {
			t.Fatal(err)
		}
		defer w.DB.Close()
		want := 1
		if c.Hardware {
			want = 0
		}
		if got := w.CPUTokenCapacity(); got != want {
			t.Errorf("CPU tokens = %d, want %d", got, want)
		}
	})
	for _, c := range Pairwise {
		if !names[c.String()] {
			t.Errorf("pairwise cell %s is not a matrix cell", c)
		}
	}
}

// detectsDeadlock closes a two-transaction cycle on m and reports
// whether it was broken as a deadlock rather than by the lock timeout.
func detectsDeadlock(t *testing.T, m *lock.Manager) bool {
	t.Helper()
	a, b := oid.New(1, 1, 1), oid.New(1, 1, 2)
	m.Begin(1)
	m.Begin(2)
	if err := m.Lock(1, a, lock.Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(2, b, lock.Exclusive); err != nil {
		t.Fatal(err)
	}
	var errs [2]chan error
	for i, o := range []oid.OID{b, a} {
		errs[i] = make(chan error, 1)
		go func() { errs[i] <- m.Lock(lock.TxnID(i+1), o, lock.Exclusive) }()
	}
	// The first request to fail is the victim. Under timeouts the other
	// request times out as well; under detection it is granted once the
	// victim ends.
	var first error
	victim := 0
	select {
	case first = <-errs[0]:
	case first = <-errs[1]:
		victim = 1
	}
	if first == nil {
		t.Fatal("a request of the cycle was granted before the cycle broke")
	}
	m.Finish(lock.TxnID(victim + 1))
	<-errs[1-victim]
	m.Finish(lock.TxnID(2 - victim))
	return errors.Is(first, lock.ErrDeadlock)
}
