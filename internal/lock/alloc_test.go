package lock

import (
	"fmt"
	"testing"

	"repro/internal/oid"
)

// TestGrantAllocatesNothing is the lock manager's allocation budget: a
// grant that does not wait allocates nothing, and a whole transaction of
// eight uncontended locks allocates only its transaction state.
func TestGrantAllocatesNothing(t *testing.T) {
	// Deadlock detection runs only once a request queues, so it must not
	// change the budget.
	for _, detect := range []bool{false, true} {
		t.Run(fmt.Sprintf("detect=%v", detect), func(t *testing.T) {
			grantAllocBudget(t, NewManager(WithDeadlockDetection(detect)))
		})
	}
}

func grantAllocBudget(t *testing.T, m *Manager) {
	const txn = 1
	m.Begin(txn)
	o := testOID
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name  string
		setup func()
		run   func()
	}{
		{"shared", nil, func() { must(m.Lock(txn, o, Shared)); must(m.Unlock(txn, o)) }},
		{"exclusive", nil, func() { must(m.Lock(txn, o, Exclusive)); must(m.Unlock(txn, o)) }},
		{"no-op relock", func() { must(m.Lock(txn, o, Exclusive)) }, func() {
			must(m.Lock(txn, o, Shared))
			must(m.Lock(txn, o, Exclusive))
		}},
		{"upgrade", nil, func() {
			must(m.Lock(txn, o, Shared))
			must(m.Lock(txn, o, Exclusive))
			must(m.Unlock(txn, o))
		}},
	}
	for _, c := range cases {
		if _, held := m.Holds(txn, o); held {
			must(m.Unlock(txn, o))
		}
		if c.setup != nil {
			c.setup()
		}
		if n := testing.AllocsPerRun(100, c.run); n != 0 {
			t.Errorf("%s: %v allocs per grant, want 0", c.name, n)
		}
	}

	objs := walkShapeObjs()
	next := TxnID(100)
	n := testing.AllocsPerRun(100, func() {
		next++
		walkShapeTxn(m, next, objs)
	})
	if n > 1 {
		t.Errorf("Begin + %d locks + Finish: %v allocs, want at most 1", len(objs), n)
	}
}

// walkShapeObjs are the eight objects of a walk-shaped transaction.
func walkShapeObjs() []oid.OID {
	objs := make([]oid.OID, 8)
	for i := range objs {
		objs[i] = oid.New(1, oid.PageNum(i+1), oid.SlotNum(i))
	}
	return objs
}

// walkShapeTxn runs the lock traffic of one random-walk transaction:
// Begin, objs locked with every other one exclusive, Finish.
func walkShapeTxn(m *Manager, txn TxnID, objs []oid.OID) {
	m.Begin(txn)
	for i, o := range objs {
		mode := Shared
		if i%2 == 1 {
			mode = Exclusive
		}
		if err := m.Lock(txn, o, mode); err != nil {
			panic(err)
		}
	}
	m.Finish(txn)
}
