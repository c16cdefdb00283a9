package query

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/db"
	"repro/internal/oid"
	"repro/internal/testkit"
)

// testDB opens a database with partitions 0..parts.
func testDB(t *testing.T, parts int) *db.Database {
	t.Helper()
	cfg := db.DefaultConfig()
	cfg.FlushLatency = 0
	d := db.Open(cfg)
	t.Cleanup(d.Close)
	for p := 0; p <= parts; p++ {
		if err := d.CreatePartition(oid.PartitionID(p)); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func mustCreate(t *testing.T, tx *db.Txn, part oid.PartitionID, payload string, refs ...oid.OID) oid.OID {
	t.Helper()
	o, err := tx.Create(part, []byte(payload), refs)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func runPipeline(t *testing.T, d *db.Database, build func(e *Exec) (Operator, error)) []Row {
	t.Helper()
	res, err := Run(d, Options{}, build)
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows
}

func TestScanEmptyPartition(t *testing.T) {
	d := testDB(t, 2)
	rows := runPipeline(t, d, func(e *Exec) (Operator, error) {
		return NewScan(2), nil
	})
	if len(rows) != 0 {
		t.Fatalf("scan of empty partition returned %d rows", len(rows))
	}
}

func TestScanReadsEveryObject(t *testing.T) {
	d := testDB(t, 1)
	tx, err := d.Begin()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{}
	for i := 0; i < 20; i++ {
		p := fmt.Sprintf("obj-%d", i)
		mustCreate(t, tx, 1, p)
		want[p]++
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	rows := runPipeline(t, d, func(e *Exec) (Operator, error) {
		return NewScan(1), nil
	})
	got := Multiset(Payloads(rows))
	if len(got) != len(want) {
		t.Fatalf("scan returned %d distinct payloads, want %d", len(got), len(want))
	}
	for p, n := range want {
		if got[p] != n {
			t.Fatalf("payload %q seen %d times, want %d", p, got[p], n)
		}
	}
}

func TestFollowRefsCycle(t *testing.T) {
	d := testDB(t, 1)
	tx, err := d.Begin()
	if err != nil {
		t.Fatal(err)
	}
	// a -> b -> c -> a: the visited set must terminate the walk and
	// emit each object exactly once at its first-reached depth.
	c := mustCreate(t, tx, 1, "c")
	b := mustCreate(t, tx, 1, "b", c)
	a := mustCreate(t, tx, 1, "a", b)
	if err := tx.InsertRef(c, a); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	rows := runPipeline(t, d, func(e *Exec) (Operator, error) {
		return NewFollowRefs([]oid.OID{a}, -1), nil
	})
	if len(rows) != 3 {
		t.Fatalf("cycle traversal returned %d rows, want 3", len(rows))
	}
	depths := map[string]int{}
	for _, r := range rows {
		depths[string(r.Obj.Payload)] = r.Depth
	}
	if depths["a"] != 0 || depths["b"] != 1 || depths["c"] != 2 {
		t.Fatalf("depths = %v, want a:0 b:1 c:2", depths)
	}
}

func TestFollowRefsZeroHops(t *testing.T) {
	d := testDB(t, 1)
	tx, err := d.Begin()
	if err != nil {
		t.Fatal(err)
	}
	leaf := mustCreate(t, tx, 1, "leaf")
	root := mustCreate(t, tx, 1, "root", leaf)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	rows := runPipeline(t, d, func(e *Exec) (Operator, error) {
		// Duplicate roots collapse; k=0 emits only the root set.
		return NewFollowRefs([]oid.OID{root, root}, 0), nil
	})
	if len(rows) != 1 || string(rows[0].Obj.Payload) != "root" {
		t.Fatalf("k=0 traversal = %v, want just the root", Payloads(rows))
	}
}

func TestFollowRefsBoundedHops(t *testing.T) {
	d := testDB(t, 1)
	tx, err := d.Begin()
	if err != nil {
		t.Fatal(err)
	}
	c := mustCreate(t, tx, 1, "c")
	b := mustCreate(t, tx, 1, "b", c)
	a := mustCreate(t, tx, 1, "a", b)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	rows := runPipeline(t, d, func(e *Exec) (Operator, error) {
		return NewFollowRefs([]oid.OID{a}, 1), nil
	})
	got := Multiset(Payloads(rows))
	if len(rows) != 2 || got["a"] != 1 || got["b"] != 1 {
		t.Fatalf("k=1 traversal = %v, want [a b]", Payloads(rows))
	}
}

func TestJoinRefNoMatches(t *testing.T) {
	d := testDB(t, 1)
	tx, err := d.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		mustCreate(t, tx, 1, fmt.Sprintf("lonely-%d", i))
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	rows := runPipeline(t, d, func(e *Exec) (Operator, error) {
		return NewJoinRef(NewScan(1)), nil
	})
	if len(rows) != 0 {
		t.Fatalf("join over refless objects returned %d rows, want 0", len(rows))
	}
}

func TestJoinRefFanout(t *testing.T) {
	d := testDB(t, 1)
	tx, err := d.Begin()
	if err != nil {
		t.Fatal(err)
	}
	x := mustCreate(t, tx, 1, "x")
	y := mustCreate(t, tx, 1, "y")
	mustCreate(t, tx, 1, "p1", x, y)
	mustCreate(t, tx, 1, "p2", x)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	rows := runPipeline(t, d, func(e *Exec) (Operator, error) {
		// x is referenced twice: a join emits it once per referencing
		// parent, unlike a traversal's visited-set dedup.
		return NewJoinRef(NewScan(1)), nil
	})
	got := Multiset(Payloads(rows))
	if got["x"] != 2 || got["y"] != 1 || len(rows) != 3 {
		t.Fatalf("join fanout = %v, want x:2 y:1", got)
	}
}

func TestFilterProjectAggregate(t *testing.T) {
	d := testDB(t, 2)
	tx, err := d.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		mustCreate(t, tx, oid.PartitionID(1+i%2), fmt.Sprintf("n-%d", i))
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	rows := runPipeline(t, d, func(e *Exec) (Operator, error) {
		var op Operator = NewScan(1)
		op = NewFilter(op, func(r Row) bool { return string(r.Obj.Payload) != "n-2" })
		op = NewProject(op, func(r Row) Row {
			r.Obj.Payload = append([]byte("part1:"), r.Obj.Payload...)
			return r
		})
		return NewAggregate(op, func(r Row) string { return string(r.Obj.Payload[:5]) }), nil
	})
	if len(rows) != 1 || rows[0].Group != "part1" || rows[0].Agg.Rows != 2 {
		t.Fatalf("aggregate = %+v, want one part1 group of 2 rows", rows)
	}
}

func TestAggregateEmptyInput(t *testing.T) {
	d := testDB(t, 1)
	rows := runPipeline(t, d, func(e *Exec) (Operator, error) {
		return NewAggregate(NewScan(1), nil), nil
	})
	if len(rows) != 0 {
		t.Fatalf("aggregate over empty input returned %d rows, want 0", len(rows))
	}
}

// spyOp records its lifecycle so tests can assert Close propagation.
type spyOp struct {
	rows    []Row
	i       int
	nextErr error
	opened  int
	closed  int
}

func (s *spyOp) Open(e *Exec) error { s.opened++; s.i = 0; return nil }
func (s *spyOp) Next() (Row, bool, error) {
	if s.nextErr != nil {
		return Row{}, false, s.nextErr
	}
	if s.i >= len(s.rows) {
		return Row{}, false, nil
	}
	r := s.rows[s.i]
	s.i++
	return r, true, nil
}
func (s *spyOp) Close() error { s.closed++; return nil }

func TestClosePropagation(t *testing.T) {
	d := testDB(t, 1)
	spy := &spyOp{rows: []Row{{}, {}, {}}}
	res, err := Run(d, Options{}, func(e *Exec) (Operator, error) {
		var op Operator = NewFilter(spy, func(Row) bool { return true })
		op = NewProject(op, func(r Row) Row { return r })
		return NewAggregate(op, nil), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("got %d rows, want 1 aggregate row", len(res.Rows))
	}
	if spy.opened != 1 || spy.closed == 0 {
		t.Fatalf("spy opened %d closed %d times, want open once and closed", spy.opened, spy.closed)
	}
}

func TestCloseReachesInputAfterError(t *testing.T) {
	d := testDB(t, 1)
	spy := &spyOp{nextErr: errors.New("boom")}
	_, err := Run(d, Options{}, func(e *Exec) (Operator, error) {
		return NewJoinRef(NewFilter(spy, func(Row) bool { return true })), nil
	})
	if err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v, want boom", err)
	}
	if spy.closed == 0 {
		t.Fatal("input operator never closed after a failed pipeline")
	}
}

// TestNoPinLeak holds the pipeline to the buffer-pool contract: after
// Close — even a mid-stream Close that abandons most of the scan — no
// page frame may remain pinned.
func TestNoPinLeak(t *testing.T) {
	cfg := db.DefaultConfig()
	cfg.FlushLatency = 0
	cfg.PageSize = 1024
	cfg = testkit.Cell{Disk: true}.Config(t, cfg)
	cfg.PoolFrames = 4
	d := db.Open(cfg)
	defer d.Close()
	for p := 0; p <= 1; p++ {
		if err := d.CreatePartition(oid.PartitionID(p)); err != nil {
			t.Fatal(err)
		}
	}
	tx, err := d.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		mustCreate(t, tx, 1, fmt.Sprintf("pin-%d", i))
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx, err = d.Begin()
	if err != nil {
		t.Fatal(err)
	}
	e := &Exec{DB: d, Tx: tx}
	op := NewJoinRef(NewScan(1))
	if err := op.Open(e); err != nil {
		t.Fatal(err)
	}
	// Abandon the scan after a few rows; Close must still release
	// everything the pipeline pinned.
	for i := 0; i < 3; i++ {
		if _, _, err := op.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if pinned := d.Store().PoolStats().Pinned; pinned != 0 {
		t.Fatalf("%d frames still pinned after Close", pinned)
	}
}

func TestRunRetriesOnRestart(t *testing.T) {
	d := testDB(t, 1)
	tx, err := d.Begin()
	if err != nil {
		t.Fatal(err)
	}
	mustCreate(t, tx, 1, "solo")
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	attempts := 0
	res, err := Run(d, Options{MaxRestarts: 5}, func(e *Exec) (Operator, error) {
		attempts++
		if attempts <= 2 {
			return &spyOp{nextErr: fmt.Errorf("%w: injected", ErrRestart)}, nil
		}
		return NewScan(1), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 3 || len(res.Rows) != 1 {
		t.Fatalf("attempts=%d rows=%d, want 3 attempts and 1 row", res.Attempts, len(res.Rows))
	}
}

func TestRunRestartBudgetExhausts(t *testing.T) {
	d := testDB(t, 1)
	_, err := Run(d, Options{MaxRestarts: 2, Backoff: 1}, func(e *Exec) (Operator, error) {
		return &spyOp{nextErr: fmt.Errorf("%w: injected", ErrRestart)}, nil
	})
	if !errors.Is(err, ErrRestartsExhausted) {
		t.Fatalf("err = %v, want ErrRestartsExhausted", err)
	}
}
