// Package testkit names the configuration matrix the oracle suites run
// over: store {memory, disk with a small buffer pool} × addressing
// {physical, logical} × engine {fidelity, hardware}.
//
// A suite runs the Pairwise cells by default, so every pair of axis
// values meets in some cell. A test that needs an axis in full, such as
// an equality oracle between the memory and disk stores, pairs each
// cell with its twin on that axis itself (twin := c; twin.Disk = true).
// A test that once failed or stalled under one configuration lists that
// cell explicitly.
package testkit

import (
	"testing"

	"repro/internal/db"
	"repro/internal/workload"
)

// PoolFrames is a disk cell's buffer-pool budget: small enough that the
// suites' databases fault and evict.
const PoolFrames = 16

// Cell is one point of the matrix. The zero Cell is memory, physical,
// fidelity: the paper's configuration.
type Cell struct {
	Disk     bool // disk-backed store with a PoolFrames-frame pool
	Logical  bool // logical OIDs through the indirection table
	Hardware bool // group commit, deadlock detection, no CPU token
}

// Pairwise is the default cell set: each pair of axes takes all four of
// its value combinations across these four cells.
var Pairwise = []Cell{
	{},
	{Logical: true, Hardware: true},
	{Disk: true, Hardware: true},
	{Disk: true, Logical: true},
}

// String names the cell, e.g. "disk-log-fid".
func (c Cell) String() string {
	return pick(c.Disk, "disk", "mem") + "-" + pick(c.Logical, "log", "phys") + "-" + pick(c.Hardware, "hw", "fid")
}

func pick(b bool, yes, no string) string {
	if b {
		return yes
	}
	return no
}

// Config returns cfg set up for the cell. A disk cell's segment files
// go in a fresh directory that t removes.
func (c Cell) Config(t testing.TB, cfg db.Config) db.Config {
	cfg.DiskBacked = c.Disk
	if c.Disk {
		cfg.DataDir = t.TempDir()
		cfg.PoolFrames = PoolFrames
	}
	cfg.LogicalOIDs = c.Logical
	if c.Hardware {
		cfg.GroupCommit = true
		cfg.TimeoutDeadlocks = false
	}
	return cfg
}

// Params returns p with the cell's CPU token: bypassed in a hardware
// cell, unchanged otherwise.
func (c Cell) Params(p workload.Params) workload.Params {
	if c.Hardware {
		p.CPUTokens = 0
	}
	return p
}

// Run runs fn as one subtest per cell, named by the cell.
func Run(t *testing.T, cells []Cell, fn func(t *testing.T, c Cell)) {
	t.Helper()
	for _, c := range cells {
		t.Run(c.String(), func(t *testing.T) { fn(t, c) })
	}
}
