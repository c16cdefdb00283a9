package workload

import (
	"sync"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/db"
	"repro/internal/metrics"
	"repro/internal/oid"
)

func smallParams() Params {
	p := DefaultParams()
	p.NumPartitions = 3
	p.ObjectsPerPartition = 170 // two clusters of 85
	p.MPL = 6
	p.CPUPerOp = 0
	p.RefChurnProb = 0.1
	return p
}

func testDBConfig() db.Config {
	cfg := db.DefaultConfig()
	cfg.FlushLatency = 0
	cfg.LockTimeout = 100 * time.Millisecond
	return cfg
}

func buildSmall(t *testing.T) *Workload {
	t.Helper()
	w, err := Build(testDBConfig(), smallParams())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.DB.Close)
	return w
}

func TestBuildCounts(t *testing.T) {
	w := buildSmall(t)
	for pi := 1; pi <= 3; pi++ {
		st, err := w.DB.Store().PartitionStats(oid.PartitionID(pi))
		if err != nil {
			t.Fatal(err)
		}
		if st.Objects != 170 {
			t.Fatalf("partition %d has %d objects, want 170", pi, st.Objects)
		}
		if got := len(w.ClusterRoots[oid.PartitionID(pi)]); got != 2 {
			t.Fatalf("partition %d has %d cluster roots, want 2", pi, got)
		}
	}
	if len(w.RootTable) != 6 {
		t.Fatalf("root table has %d entries, want 6", len(w.RootTable))
	}
	st, _ := w.DB.Store().PartitionStats(RootPartition)
	if st.Objects != 6 {
		t.Fatalf("root partition has %d objects", st.Objects)
	}
}

func TestBuildUnevenClusterSizes(t *testing.T) {
	p := smallParams()
	p.ObjectsPerPartition = 100 // 85 + 15
	w, err := Build(testDBConfig(), p)
	if err != nil {
		t.Fatal(err)
	}
	defer w.DB.Close()
	st, _ := w.DB.Store().PartitionStats(1)
	if st.Objects != 100 {
		t.Fatalf("partition 1 has %d objects", st.Objects)
	}
	if len(w.ClusterRoots[1]) != 2 {
		t.Fatalf("cluster roots = %d", len(w.ClusterRoots[1]))
	}
}

func TestBuildIsConsistent(t *testing.T) {
	w := buildSmall(t)
	rep, err := check.Verify(w.DB, w.Roots())
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	// Everything is reachable: trees hang off cluster roots, which hang
	// off the root table.
	if len(rep.Unreachable) != 0 {
		t.Fatalf("%d unreachable objects in fresh workload", len(rep.Unreachable))
	}
	wantObjects := 3*170 + 6
	if rep.Objects != wantObjects {
		t.Fatalf("Objects = %d, want %d", rep.Objects, wantObjects)
	}
}

func TestERTSeededByRootTable(t *testing.T) {
	w := buildSmall(t)
	for pi := 1; pi <= 3; pi++ {
		e := w.DB.ERT(oid.PartitionID(pi))
		for _, root := range w.ClusterRoots[oid.PartitionID(pi)] {
			if !e.HasChild(root) {
				t.Fatalf("cluster root %v missing from partition %d ERT", root, pi)
			}
		}
	}
}

func TestGlueFactorShape(t *testing.T) {
	p := smallParams()
	p.NumPartitions = 4
	p.ObjectsPerPartition = 340
	p.GlueFactor = 0.5
	w, err := Build(testDBConfig(), p)
	if err != nil {
		t.Fatal(err)
	}
	defer w.DB.Close()
	// Count cross-partition references out of data partitions (excluding
	// the root table, which is all cross-partition by construction).
	cross, total := 0, 0
	for pi := 1; pi <= 4; pi++ {
		part := oid.PartitionID(pi)
		w.DB.Store().ForEach(part, func(o oid.OID, _ []byte) bool {
			obj, _ := w.DB.FuzzyRead(o)
			for _, c := range obj.Refs {
				total++
				if c.Partition() != part {
					cross++
				}
			}
			return true
		})
	}
	// Each node has one glue edge; tree edges are intra-partition. With
	// GlueFactor .5, about half the glue edges cross, i.e. about 25% of
	// all edges. Accept a generous band.
	frac := float64(cross) / float64(total)
	if frac < 0.15 || frac > 0.35 {
		t.Fatalf("cross-partition fraction = %.3f, want ≈ 0.25", frac)
	}
}

func TestDriverCommitsTransactions(t *testing.T) {
	w := buildSmall(t)
	rec := metrics.NewRecorder()
	d := NewDriver(w, rec)
	rec.StartWindow()
	d.Start()
	time.Sleep(300 * time.Millisecond)
	d.Stop()
	s := rec.Stop()
	if s.Commits == 0 {
		t.Fatal("no transactions committed")
	}
	if s.Throughput <= 0 || s.Mean <= 0 {
		t.Fatalf("summary = %+v", s)
	}
	// The graph must still be fully consistent after churn.
	rep, err := check.Verify(w.DB, w.Roots())
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if len(rep.Unreachable) != 0 {
		t.Fatalf("churn made %d objects unreachable", len(rep.Unreachable))
	}
}

func TestDriverWithCPUToken(t *testing.T) {
	p := smallParams()
	p.CPUPerOp = 100 * time.Microsecond
	p.MPL = 4
	w, err := Build(testDBConfig(), p)
	if err != nil {
		t.Fatal(err)
	}
	defer w.DB.Close()
	rec := metrics.NewRecorder()
	d := NewDriver(w, rec)
	rec.StartWindow()
	d.Start()
	time.Sleep(200 * time.Millisecond)
	d.Stop()
	s := rec.Stop()
	if s.Commits == 0 {
		t.Fatal("no commits with CPU token")
	}
	// 8 ops × 100µs serialized CPU bounds throughput at ~1250 tps.
	if s.Throughput > 1600 {
		t.Fatalf("throughput %.0f exceeds uniprocessor bound", s.Throughput)
	}
}

// timedBurn runs n concurrent burnCPU(d) calls against a semaphore of
// the given capacity (0 = bypass) and returns the wall-clock time.
func timedBurn(tokens, n int, d time.Duration) time.Duration {
	w := &Workload{}
	if tokens > 0 {
		w.cpu = make(chan struct{}, tokens)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.burnCPU(d)
		}()
	}
	wg.Wait()
	return time.Since(start)
}

func TestCPUTokenCapacityOneSerializes(t *testing.T) {
	// Four 20 ms burns through a capacity-1 token must take ≥ 80 ms.
	const d = 20 * time.Millisecond
	if got := timedBurn(1, 4, d); got < 4*d {
		t.Fatalf("capacity-1 burns finished in %v, want ≥ %v (token failed to serialize)", got, 4*d)
	}
}

func TestCPUTokenCapacityNAdmitsN(t *testing.T) {
	// With capacity 4, the four burns overlap: well under the serialized
	// 80 ms. The bound is generous (3×d) to tolerate scheduler noise —
	// the sleeps themselves need no spare cores to overlap.
	const d = 20 * time.Millisecond
	if got := timedBurn(4, 4, d); got >= 3*d {
		t.Fatalf("capacity-4 burns took %v, want < %v (token over-serialized)", got, 3*d)
	}
}

func TestCPUTokenBypassAdmitsAll(t *testing.T) {
	const d = 20 * time.Millisecond
	if got := timedBurn(0, 8, d); got >= 3*d {
		t.Fatalf("bypassed burns took %v, want < %v", got, 3*d)
	}
}

func TestCPUTokenCapacityReported(t *testing.T) {
	p := smallParams()
	p.CPUTokens = 3
	w, err := Build(testDBConfig(), p)
	if err != nil {
		t.Fatal(err)
	}
	defer w.DB.Close()
	if got := w.CPUTokenCapacity(); got != 3 {
		t.Fatalf("CPUTokenCapacity = %d, want 3", got)
	}
	p.CPUTokens = 0
	w2, err := Build(testDBConfig(), p)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.DB.Close()
	if got := w2.CPUTokenCapacity(); got != 0 {
		t.Fatalf("bypassed CPUTokenCapacity = %d, want 0", got)
	}
}

func TestRootsReturnsCopy(t *testing.T) {
	w := buildSmall(t)
	r := w.Roots()
	r[0] = oid.Nil
	if w.RootTable[0] == oid.Nil {
		t.Fatal("Roots aliases RootTable")
	}
}

func TestRootsOf(t *testing.T) {
	w := buildSmall(t)
	seen := map[oid.OID]bool{}
	for pi := 1; pi <= 3; pi++ {
		roots := w.RootsOf(oid.PartitionID(pi))
		if len(roots) != 2 {
			t.Fatalf("partition %d has %d persistent roots, want 2", pi, len(roots))
		}
		for _, r := range roots {
			if r.Partition() != RootPartition {
				t.Fatalf("persistent root %v not in root partition", r)
			}
			if seen[r] {
				t.Fatalf("root %v assigned to two partitions", r)
			}
			seen[r] = true
			// The root must reference a cluster root of that partition.
			obj, err := w.DB.FuzzyRead(r)
			if err != nil || len(obj.Refs) != 1 {
				t.Fatalf("root %v: %v", r, err)
			}
			if obj.Refs[0].Partition() != oid.PartitionID(pi) {
				t.Fatalf("root %v references partition %d", r, obj.Refs[0].Partition())
			}
		}
	}
}
