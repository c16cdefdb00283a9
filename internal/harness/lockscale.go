package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/db"
	"repro/internal/hwmode"
	"repro/internal/lock"
	"repro/internal/oid"
	"repro/internal/reorg"
)

// This file is the `lockscale` benchmark: the perf-trajectory harness for
// the concurrency hot paths. Per execution mode (fidelity and hardware —
// see mode.go) it measures and writes to a JSON report (BENCH_lock.json
// by default) so successive runs can be compared across commits:
//
//  1. a workload sweep — the full system (MPL transaction threads × fleet
//     reorganization workers) per grid cell, reporting transaction
//     throughput, mean and p99 response time, reorganization duration and
//     the lock manager's cumulative counters.
//  2. hardware mode only: a commit-throughput sweep — disjoint-object
//     committers at MPL 8 and 16 under WAL group commit versus the naive
//     per-commit-sync baseline. Group commit must win: every committer in
//     a flush window piggybacks on one simulated device write.
//
// The raw Begin/Lock/Finish micro comparison of the lock manager against
// its single-mutex oracle lives in internal/lock's BenchmarkLockScaling.

// LockWorkloadPoint is one cell of the workload sweep.
type LockWorkloadPoint struct {
	MPL           int     `json:"mpl"`
	Workers       int     `json:"workers"`
	Throughput    float64 `json:"throughput_tps"`
	MeanMs        float64 `json:"mean_ms"`
	P99Ms         float64 `json:"p99_ms"`
	ReorgMs       float64 `json:"reorg_ms"`
	Migrated      int     `json:"migrated"`
	LocksAcquired uint64  `json:"locks_acquired"`
	LockWaits     uint64  `json:"lock_waits"`
	LockTimeouts  uint64  `json:"lock_timeouts"`
}

// LockCommitPoint is one cell of the hardware-mode commit-throughput
// sweep: MPL disjoint-object committers under one WAL sync discipline.
type LockCommitPoint struct {
	Sync          string  `json:"sync"` // "group" or "percommit"
	MPL           int     `json:"mpl"`
	Commits       uint64  `json:"commits"`
	Seconds       float64 `json:"seconds"`
	CommitsPerSec float64 `json:"commits_per_sec"`
}

// LockScaleSweep is one execution mode's trajectory of the lockscale
// benchmark.
type LockScaleSweep struct {
	Env      BenchEnv            `json:"env"`
	Workload []LockWorkloadPoint `json:"workload"`
	// Commit and GroupCommitSpeedup are hardware mode only.
	Commit []LockCommitPoint `json:"commit,omitempty"`
	// GroupCommitSpeedup is group over percommit commits/sec at the
	// sweep's lowest MPL (8).
	GroupCommitSpeedup float64 `json:"group_commit_speedup_at_mpl8,omitempty"`
}

// LockScaleReport is the persisted shape of one lockscale run.
type LockScaleReport struct {
	Timestamp  string           `json:"timestamp"`
	Scale      string           `json:"scale"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	NumCPU     int              `json:"num_cpu"`
	Sweeps     []LockScaleSweep `json:"sweeps"`
}

// commitThroughput measures commits/sec of mpl committers over roughly d,
// each repeatedly updating its own private object — no lock conflicts, so
// the commit path (WAL append + flush wait) is the whole cost. The db
// uses the default 2 ms simulated log device: under group commit all
// committers in a window share one 2 ms write; under per-commit sync each
// commit pays its own.
func commitThroughput(groupCommit bool, mpl int, d time.Duration) (uint64, float64, error) {
	cfg := db.DefaultConfig()
	cfg.GroupCommit = groupCommit
	cfg.WALPerCommitSync = !groupCommit
	dbase := db.Open(cfg)
	defer dbase.Close()
	if err := dbase.CreatePartition(1); err != nil {
		return 0, 0, err
	}
	payload := []byte("commit-throughput-cell-payload")
	objs := make([]oid.OID, mpl)
	tx, err := dbase.Begin()
	if err != nil {
		return 0, 0, err
	}
	for i := range objs {
		if objs[i], err = tx.Create(1, payload, nil); err != nil {
			tx.Abort()
			return 0, 0, err
		}
	}
	if err := tx.Commit(); err != nil {
		return 0, 0, err
	}

	var (
		commits atomic.Uint64
		stop    atomic.Bool
		wg      sync.WaitGroup
		fail    atomic.Pointer[error]
	)
	start := time.Now()
	for c := 0; c < mpl; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for !stop.Load() {
				tx, err := dbase.Begin()
				if err != nil {
					fail.CompareAndSwap(nil, &err)
					return
				}
				if err := tx.Lock(objs[c], lock.Exclusive); err != nil {
					tx.Abort()
					fail.CompareAndSwap(nil, &err)
					return
				}
				if err := tx.UpdatePayload(objs[c], payload); err != nil {
					tx.Abort()
					fail.CompareAndSwap(nil, &err)
					return
				}
				if err := tx.Commit(); err != nil {
					fail.CompareAndSwap(nil, &err)
					return
				}
				commits.Add(1)
			}
		}(c)
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	secs := time.Since(start).Seconds()
	if e := fail.Load(); e != nil {
		return 0, 0, *e
	}
	return commits.Load(), secs, nil
}

// runLockScaleSweep runs one mode's trajectory.
func runLockScaleSweep(w io.Writer, sc Scale, mode hwmode.Mode) (LockScaleSweep, error) {
	params := sc.Params
	dbcfg := db.DefaultConfig()
	sweep := LockScaleSweep{Env: applyMode(mode, &params, &dbcfg)}
	fmt.Fprintf(w, "=== %s mode (GOMAXPROCS=%d, NumCPU=%d, cpu_tokens=%d, group_commit=%v, reader_shards=%d)\n",
		mode, sweep.Env.GOMAXPROCS, sweep.Env.NumCPU, sweep.Env.CPUTokens,
		sweep.Env.GroupCommit, sweep.Env.ReaderShards)

	// Workload sweep: MPL × fleet workers under a whole-database
	// reorganization. Quick scale shrinks the database so the sweep fits a
	// CI smoke job; the reorganizer's simulated uniprocessor charge is
	// zeroed as in the preorg experiment, since it would serialize any
	// worker pool by construction.
	params.ReorgCPUPerObject = 0
	if sc.Name == "quick" {
		params.NumPartitions = 4
		params.ObjectsPerPartition = 510
	}
	fmt.Fprintf(w, "workload sweep (MPL × fleet workers, %d partitions × %d objects)\n",
		params.NumPartitions, params.ObjectsPerPartition)
	fmt.Fprintf(w, "%-5s %-8s %10s %9s %9s %10s %10s %8s %8s\n",
		"MPL", "Workers", "tput", "mean(ms)", "p99(ms)", "reorg(ms)", "acquired", "waits", "tmouts")
	for _, mpl := range sc.LockScaleMPLs {
		for _, workers := range sc.LockScaleWorkers {
			p := params
			p.MPL = mpl
			res, err := RunParallel(ParallelConfig{
				Params:  p,
				DB:      dbcfg,
				Mode:    reorg.ModeIRA,
				Workers: workers,
				Warmup:  200 * time.Millisecond,
				Drain:   200 * time.Millisecond,
				Verify:  true,
			})
			if err != nil {
				return sweep, fmt.Errorf("lockscale %s MPL=%d workers=%d: %w", mode, mpl, workers, err)
			}
			pt := LockWorkloadPoint{
				MPL:           mpl,
				Workers:       workers,
				Throughput:    res.Summary.Throughput,
				MeanMs:        ms(res.Summary.Mean),
				P99Ms:         ms(res.Summary.P99),
				ReorgMs:       ms(res.Fleet.Duration()),
				Migrated:      res.Fleet.Migrated,
				LocksAcquired: res.Fleet.Locks.Acquired,
				LockWaits:     res.Fleet.Locks.Waits,
				LockTimeouts:  res.Fleet.Locks.Timeouts,
			}
			sweep.Workload = append(sweep.Workload, pt)
			fmt.Fprintf(w, "%-5d %-8d %10.1f %9.1f %9.1f %10.0f %10d %8d %8d\n",
				pt.MPL, pt.Workers, pt.Throughput, pt.MeanMs, pt.P99Ms, pt.ReorgMs,
				pt.LocksAcquired, pt.LockWaits, pt.LockTimeouts)
		}
	}

	// Commit-throughput sweep, hardware mode only: WAL group commit vs the
	// naive per-commit-sync baseline at MPL ≥ 8. The win does not need
	// spare cores — the 2 ms simulated device write is a sleep — so this
	// holds even on a single-CPU host.
	if mode == hwmode.Hardware {
		commitDur := 400 * time.Millisecond
		if sc.Name == "full" {
			commitDur = time.Second
		}
		perSync := map[string]map[int]float64{"group": {}, "percommit": {}}
		fmt.Fprintf(w, "\ncommit sweep (disjoint-object committers, 2 ms simulated log device, %s/point)\n", commitDur)
		fmt.Fprintf(w, "%-10s %-5s %14s\n", "sync", "MPL", "commits/sec")
		for _, discipline := range []string{"group", "percommit"} {
			for _, mpl := range []int{8, 16} {
				commits, secs, err := commitThroughput(discipline == "group", mpl, commitDur)
				if err != nil {
					return sweep, fmt.Errorf("lockscale commit sweep %s MPL=%d: %w", discipline, mpl, err)
				}
				rate := float64(commits) / secs
				perSync[discipline][mpl] = rate
				sweep.Commit = append(sweep.Commit, LockCommitPoint{
					Sync: discipline, MPL: mpl, Commits: commits, Seconds: secs, CommitsPerSec: rate,
				})
				fmt.Fprintf(w, "%-10s %-5d %14.0f\n", discipline, mpl, rate)
			}
		}
		if base := perSync["percommit"][8]; base > 0 {
			sweep.GroupCommitSpeedup = perSync["group"][8] / base
		}
		fmt.Fprintf(w, "group/percommit speedup at MPL 8: %.2fx\n", sweep.GroupCommitSpeedup)
		if sweep.GroupCommitSpeedup <= 1.0 {
			return sweep, fmt.Errorf("lockscale: group commit did not beat per-commit sync at MPL 8 (%.2fx)",
				sweep.GroupCommitSpeedup)
		}
	}
	fmt.Fprintln(w)
	return sweep, nil
}

// RunLockScale runs the sweeps for every mode in the Scale, prints a
// human-readable summary to w and writes the JSON report to outPath (""
// skips the file).
func RunLockScale(w io.Writer, sc Scale, outPath string) error {
	rep := &LockScaleReport{
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		Scale:      sc.Name,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	for _, mode := range sc.modes() {
		sweep, err := runLockScaleSweep(w, sc, mode)
		if err != nil {
			return err
		}
		rep.Sweeps = append(rep.Sweeps, sweep)
	}

	if outPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if err := os.WriteFile(outPath, data, 0o644); err != nil {
			return fmt.Errorf("lockscale: write report: %w", err)
		}
		fmt.Fprintf(w, "\nreport written to %s\n", outPath)
	}
	return nil
}
