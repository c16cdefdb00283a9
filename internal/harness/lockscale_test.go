package harness

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/db"
	"repro/internal/reorg"
	"repro/internal/workload"
)

// lockScaleTinyScale is tinyScale with the lockscale grid filled in.
func lockScaleTinyScale() Scale {
	sc := tinyScale()
	sc.LockScaleMPLs = []int{2}
	sc.LockScaleWorkers = []int{2}
	return sc
}

func TestRunLockScaleWritesReport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_lock.json")
	var buf bytes.Buffer
	sc := lockScaleTinyScale()
	// The tiny scale is not named "quick", so RunLockScale uses sc.Params
	// as-is; shrink further for test speed.
	sc.Params.NumPartitions = 2
	sc.Params.ObjectsPerPartition = 170
	if err := RunLockScale(&buf, sc, out); err != nil {
		t.Fatalf("RunLockScale: %v\n%s", err, buf.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("report not written: %v", err)
	}
	var rep LockScaleReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if len(rep.Sweeps) != 2 { // fidelity + hardware
		t.Fatalf("sweeps = %d, want 2", len(rep.Sweeps))
	}
	for _, sweep := range rep.Sweeps {
		if sweep.Env.Mode != "fidelity" && sweep.Env.Mode != "hardware" {
			t.Errorf("sweep env mode = %q", sweep.Env.Mode)
		}
		if len(sweep.Workload) != 1 {
			t.Errorf("%s workload points = %d, want 1", sweep.Env.Mode, len(sweep.Workload))
		}
		for _, pt := range sweep.Workload {
			if pt.LocksAcquired == 0 {
				t.Errorf("workload MPL=%d workers=%d: no locks acquired", pt.MPL, pt.Workers)
			}
			if pt.Migrated == 0 {
				t.Errorf("workload MPL=%d workers=%d: no objects migrated", pt.MPL, pt.Workers)
			}
		}
		if sweep.Env.GOMAXPROCS != rep.GOMAXPROCS {
			t.Errorf("%s sweep GOMAXPROCS = %d, want the host's %d (no sweep pins it)",
				sweep.Env.Mode, sweep.Env.GOMAXPROCS, rep.GOMAXPROCS)
		}
		switch sweep.Env.Mode {
		case "fidelity":
			if sweep.Env.CPUTokens != 1 || sweep.Env.GroupCommit || sweep.Env.ReaderShards != 1 {
				t.Errorf("fidelity env = %+v", sweep.Env)
			}
			if len(sweep.Commit) != 0 {
				t.Error("fidelity sweep must not run the commit comparison")
			}
		case "hardware":
			if sweep.Env.CPUTokens != 0 || !sweep.Env.GroupCommit {
				t.Errorf("hardware env = %+v", sweep.Env)
			}
			if len(sweep.Commit) != 4 { // 2 disciplines × 2 MPLs
				t.Errorf("hardware commit points = %d, want 4", len(sweep.Commit))
			}
			if sweep.GroupCommitSpeedup <= 1.0 {
				t.Errorf("group commit speedup at MPL 8 = %.2f, want > 1.0", sweep.GroupCommitSpeedup)
			}
		}
	}
	if rep.GOMAXPROCS <= 0 || rep.NumCPU <= 0 {
		t.Errorf("host fields not recorded: %+v", rep)
	}
	if !strings.Contains(buf.String(), "workload sweep") {
		t.Errorf("summary missing workload sweep table:\n%s", buf.String())
	}
}

// TestLockScaleStressMPL16Workers8 is the ISSUE's -race stress cell: MPL 16
// transaction threads against 8 fleet reorganization workers, with the
// post-run consistency check on. Under -race this exercises every lock
// manager path (grants, waits, timeouts, multi-bucket Finish) across
// concurrently reorganizing partitions.
func TestLockScaleStressMPL16Workers8(t *testing.T) {
	if testing.Short() {
		t.Skip("stress cell skipped in -short mode")
	}
	p := workload.DefaultParams()
	p.NumPartitions = 8
	p.ObjectsPerPartition = 255
	p.MPL = 16
	p.CPUPerOp = 0
	p.ReorgCPUPerObject = 0
	dbc := db.DefaultConfig()
	dbc.FlushLatency = 0
	dbc.LockTimeout = 100 * time.Millisecond
	res, err := RunParallel(ParallelConfig{
		Params:  p,
		DB:      dbc,
		Mode:    reorg.ModeIRA,
		Workers: 8,
		Warmup:  50 * time.Millisecond,
		Drain:   50 * time.Millisecond,
		Verify:  true,
	})
	if err != nil {
		t.Fatalf("RunParallel: %v", err)
	}
	if res.Fleet.Migrated == 0 {
		t.Error("fleet migrated no objects")
	}
	if res.Fleet.Locks.Acquired == 0 {
		t.Error("lock stats not surfaced in FleetStats")
	}
	t.Logf("migrated=%d tput=%.1f locks=%+v",
		res.Fleet.Migrated, res.Summary.Throughput, res.Fleet.Locks)
}
