package harness

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/db"
	"repro/internal/oid"
	"repro/internal/reorg"
	"repro/internal/workload"
)

// tinyScale keeps harness unit tests fast: a miniature database, zero
// simulated latencies, short windows.
func tinyScale() Scale {
	p := workload.DefaultParams()
	p.NumPartitions = 3
	p.ObjectsPerPartition = 170
	p.MPL = 4
	p.CPUPerOp = 0
	return Scale{
		Name:            "tiny",
		Params:          p,
		NRDuration:      150 * time.Millisecond,
		MPLs:            []int{1, 4},
		PartitionSizes:  []int{85, 170},
		UpdateProbs:     []float64{0, 1},
		GlueFactors:     []float64{0, 0.5},
		PathLens:        []int{2, 8},
		PartitionCounts: []int{2, 3},
		WorkerCounts:    []int{1, 2},
	}
}

func tinyConfig(s System) Config {
	cfg := DefaultConfig(s)
	cfg.Params = tinyScale().Params
	cfg.DB.FlushLatency = 0
	cfg.DB.LockTimeout = 100 * time.Millisecond
	cfg.Warmup = 30 * time.Millisecond
	cfg.NRDuration = 150 * time.Millisecond
	cfg.Verify = true
	return cfg
}

func TestRunNR(t *testing.T) {
	res, err := Run(tinyConfig(NR))
	if err != nil {
		t.Fatal(err)
	}
	if res.System != NR || res.Reorg != nil {
		t.Fatalf("result = %+v", res)
	}
	if res.Summary.Commits == 0 {
		t.Fatal("NR run committed nothing")
	}
}

func TestRunIRA(t *testing.T) {
	res, err := Run(tinyConfig(IRA))
	if err != nil {
		t.Fatal(err)
	}
	if res.Reorg == nil {
		t.Fatal("no reorg stats")
	}
	if res.Reorg.Migrated != 170 {
		t.Fatalf("Migrated = %d", res.Reorg.Migrated)
	}
	if res.Summary.Commits == 0 {
		t.Fatal("no transactions committed during IRA")
	}
}

func TestRunIRATwoLock(t *testing.T) {
	res, err := Run(tinyConfig(IRATwoLock))
	if err != nil {
		t.Fatal(err)
	}
	if res.Reorg == nil || res.Reorg.Migrated != 170 {
		t.Fatalf("reorg stats = %+v", res.Reorg)
	}
}

func TestRunPQR(t *testing.T) {
	res, err := Run(tinyConfig(PQR))
	if err != nil {
		t.Fatal(err)
	}
	if res.Reorg == nil || res.Reorg.Migrated != 170 {
		t.Fatalf("reorg stats = %+v", res.Reorg)
	}
}

func TestRunWithFixedWindow(t *testing.T) {
	cfg := tinyConfig(PQR)
	cfg.Window = 400 * time.Millisecond
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Window < cfg.Window {
		t.Fatalf("window = %v, want >= %v", res.Summary.Window, cfg.Window)
	}
}

func TestExperimentRegistry(t *testing.T) {
	all := All()
	if len(all) != 16 {
		t.Fatalf("registry has %d experiments", len(all))
	}
	ids := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("malformed experiment %+v", e)
		}
		if ids[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		ids[e.ID] = true
	}
	for _, want := range []string{"table1", "fig6", "fig7", "table2", "fig8", "fig9", "fig10", "fig11"} {
		if _, ok := ByID(want); !ok {
			t.Fatalf("experiment %s missing", want)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("phantom experiment found")
	}
}

func TestTable1Output(t *testing.T) {
	var buf bytes.Buffer
	e, _ := ByID("table1")
	if err := e.Run(&buf, tinyScale()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, param := range []string{"NUMPARTITIONS", "NUMOBJS", "MPL", "OPSPERTRANS", "UPDATEPROB", "GLUEFACTOR"} {
		if !strings.Contains(out, param) {
			t.Fatalf("table1 output missing %s:\n%s", param, out)
		}
	}
}

// TestFig6TinySweep exercises the full sweep machinery end to end on the
// miniature scale (this is a functional test; the benchmark harness runs
// the meaningful scales).
func TestFig6TinySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep test skipped in -short mode")
	}
	sc := tinyScale()
	var buf bytes.Buffer
	e, _ := ByID("fig6")
	if err := e.Run(&buf, sc); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+len(sc.MPLs) {
		t.Fatalf("fig6 produced %d lines:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[0], "NR(tps)") {
		t.Fatalf("header = %q", lines[0])
	}
}

func TestRunParallel(t *testing.T) {
	dbCfg := db.DefaultConfig()
	dbCfg.FlushLatency = 0
	dbCfg.LockTimeout = 100 * time.Millisecond
	res, err := RunParallel(ParallelConfig{
		Params:  tinyScale().Params,
		DB:      dbCfg,
		Mode:    reorg.ModeIRA,
		Workers: 2,
		Warmup:  30 * time.Millisecond,
		Verify:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workers != 2 {
		t.Fatalf("Workers = %d", res.Workers)
	}
	if res.Fleet.Done != 3 || res.Fleet.Migrated != 3*170 {
		t.Fatalf("fleet stats: %+v", res.Fleet)
	}
	if len(res.PerWorker) != 2 {
		t.Fatalf("PerWorker has %d entries", len(res.PerWorker))
	}
	parts := 0
	for _, p := range res.PerWorker {
		parts += p.Partitions
	}
	if parts != 3 {
		t.Fatalf("workers completed %d partitions, want 3", parts)
	}
	if res.Summary.Commits == 0 {
		t.Fatal("no transactions committed during the fleet")
	}
}

// TestPreorgTinySweep runs the preorg experiment end to end on the
// miniature scale.
func TestPreorgTinySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep test skipped in -short mode")
	}
	sc := tinyScale()
	var buf bytes.Buffer
	e, _ := ByID("preorg")
	if err := e.Run(&buf, sc); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// Header + NR baseline + one row per worker count.
	if len(lines) != 2+len(sc.WorkerCounts) {
		t.Fatalf("preorg produced %d lines:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[0], "Workers") || !strings.Contains(lines[1], "NR") {
		t.Fatalf("unexpected output:\n%s", buf.String())
	}
}

func TestSystemString(t *testing.T) {
	for s, want := range map[System]string{NR: "NR", IRA: "IRA", IRATwoLock: "IRA-2L", PQR: "PQR"} {
		if s.String() != want {
			t.Errorf("System(%d) = %q", int(s), s.String())
		}
	}
}

// TestClusterOrderPermutation checks that the queryscan clustering order
// is a permutation of the partition's objects: every object migrates
// exactly once.
func TestClusterOrderPermutation(t *testing.T) {
	cfg := db.DefaultConfig()
	cfg.FlushLatency = 0
	p := tinyScale().Params
	p.NumPartitions = 2
	p.MPL = 1
	w, err := workload.Build(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	defer w.DB.Close()

	var objs []oid.OID
	if err := w.DB.Store().ForEach(1, func(o oid.OID, _ []byte) bool {
		objs = append(objs, o)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	out := clusterOrder(w.DB, 1)(append([]oid.OID(nil), objs...))
	if len(out) != len(objs) {
		t.Fatalf("clusterOrder returned %d objects, want %d", len(out), len(objs))
	}
	seen := make(map[oid.OID]bool, len(out))
	for _, o := range out {
		if seen[o] {
			t.Fatalf("clusterOrder duplicated %v", o)
		}
		seen[o] = true
	}
	for _, o := range objs {
		if !seen[o] {
			t.Fatalf("clusterOrder dropped %v", o)
		}
	}
}
