package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/check"
	"repro/internal/db"
	"repro/internal/latch"
	"repro/internal/lock"
	"repro/internal/oid"
	"repro/internal/storage"
	"repro/internal/wal"
	"repro/internal/workload"
)

// setupRepeats is how many times a scan-disk or wire-write run builds its
// database: setup_s is the median build time, and the last build is the
// one measured. reorg-oltp builds once per round instead.
const setupRepeats = 5

// lockTimeout replaces the paper's 1 s deadlock timeout. Every deadlock
// between the reorganizer and a client stalls both for the timeout, so
// at 1 s a handful of deadlocks decide how long a pass takes; at 20 ms
// they cost little and vary little.
const lockTimeout = 20 * time.Millisecond

// dbConfig pins every db.Config field. The log device is in memory and
// FlushLatency is 0: commits never wait for a simulated or real flush,
// so the benchmark measures the program rather than the disk's fsync.
func dbConfig(groupCommit bool) db.Config {
	return db.Config{
		PageSize:         8192,
		FillFactor:       storage.DefaultFillFactor,
		LockTimeout:      lockTimeout,
		FlushLatency:     0,
		Strict2PL:        true,
		LatchStripes:     latch.DefaultStripes,
		LogDir:           "",
		LogSegmentBytes:  0,
		DiskBacked:       false,
		DataDir:          "",
		PoolFrames:       0,
		GroupCommit:      groupCommit,
		WALPerCommitSync: false,
		ReaderShards:     1,
		LogicalOIDs:      false,
		PhysicalOIDs:     true,
	}
}

// params pins every workload.Params field. The simulated-CPU charges
// are 0: the benchmark measures real work, not spins and sleeps.
func params(seed int64, partitions, objects int) workload.Params {
	return workload.Params{
		NumPartitions:       partitions,
		ObjectsPerPartition: objects,
		MPL:                 clients,
		OpsPerTrans:         8,
		UpdateProb:          0.5,
		GlueFactor:          0.05,
		ClusterSize:         85,
		PayloadSize:         64,
		RefChurnProb:        0.05,
		CPUPerOp:            0,
		ReorgCPUPerObject:   0,
		CPUTokens:           0,
		Seed:                seed,
	}
}

// buildRepeated runs build setupRepeats times, recording each duration
// in o.setups, and returns the last database; earlier ones are released
// with discard.
func buildRepeated(o *outcome, build func(i int) (*workload.Workload, error), discard func(*workload.Workload)) (*workload.Workload, error) {
	var w *workload.Workload
	for i := 0; i < setupRepeats; i++ {
		if w != nil {
			discard(w)
		}
		runtime.GC()
		t0 := time.Now()
		nw, err := build(i)
		if err != nil {
			return nil, fmt.Errorf("build: %w", err)
		}
		o.setups = append(o.setups, time.Since(t0))
		w = nw
	}
	return w, nil
}

// dataPartitions lists partitions 1..n.
func dataPartitions(n int) []oid.PartitionID {
	parts := make([]oid.PartitionID, n)
	for i := range parts {
		parts[i] = oid.PartitionID(i + 1)
	}
	return parts
}

// spaceAmp is the bytes of the allocated pages of parts over their live
// bytes.
func spaceAmp(d *db.Database, parts []oid.PartitionID) (float64, error) {
	var total, live int
	for _, p := range parts {
		st, err := d.Store().PartitionStats(p)
		if err != nil {
			return 0, err
		}
		total += st.TotalBytes
		live += st.LiveBytes
	}
	if live == 0 {
		return 0, fmt.Errorf("no live bytes in the data partitions")
	}
	return float64(total) / float64(live), nil
}

// verify runs check.Verify and reports its violations on o.
func verify(o *outcome, d *db.Database, roots []oid.OID) {
	rep, err := check.Verify(d, roots)
	if err == nil {
		err = rep.Err()
	}
	if err != nil {
		o.violate("check.Verify: %v", err)
	}
}

// counters are the lock-manager and log positions a window is measured
// between.
type counters struct {
	locks lock.Stats
	tail  wal.LSN
}

func readCounters(d *db.Database) counters {
	return counters{locks: d.Locks().Stats(), tail: d.Log().TailLSN()}
}

// counterDelta accumulates counter deltas over one or more windows.
type counterDelta struct {
	acquired, waits, timeouts, records uint64
}

func (c *counterDelta) add(from, to counters) {
	c.acquired += to.locks.Acquired - from.locks.Acquired
	c.waits += to.locks.Waits - from.locks.Waits
	c.timeouts += to.locks.Timeouts - from.locks.Timeouts
	c.records += uint64(to.tail - from.tail)
}

// layers fills the lock and wal per-layer metrics for commits committed
// transactions.
func (c *counterDelta) layers(m map[string]float64, commits int64) {
	if commits > 0 {
		m["lock.acquired_per_txn"] = float64(c.acquired) / float64(commits)
		m["wal.records_per_txn"] = float64(c.records) / float64(commits)
	}
	if c.acquired > 0 {
		m["lock.wait_ratio"] = float64(c.waits) / float64(c.acquired)
	}
	m["lock.timeouts"] = float64(c.timeouts)
}
