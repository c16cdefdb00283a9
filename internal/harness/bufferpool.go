package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/db"
	"repro/internal/oid"
	"repro/internal/reorg"
)

// This file is the `bufferpool` benchmark: the measurement the paper's
// headline claim rests on. Re-clustering is only worth doing on-line if
// it actually lowers the page-fault rate of reference traversals — so
// the benchmark builds a reference chain, decays its layout with a
// shuffled churn pass, measures the cold-scan fault rate against a small
// buffer pool, re-clusters the partition with a traversal-ordered dense
// reorganization, and measures again. The JSON report (BENCH_bufferpool
// .json) carries both rates so successive commits can be compared.

// BufferpoolScan aggregates the pool counters over the cold scans of one
// layout.
type BufferpoolScan struct {
	Hits      uint64  `json:"hits"`
	Misses    uint64  `json:"misses"`
	FaultRate float64 `json:"fault_rate"`
}

// BufferpoolReport is the persisted shape of one bufferpool trajectory
// (one hardware/fidelity mode); BufferpoolBench is the on-disk wrapper
// that carries one trajectory per mode.
type BufferpoolReport struct {
	Timestamp    string         `json:"timestamp"`
	Scale        string         `json:"scale"`
	Env          BenchEnv       `json:"env"`
	PageSize     int            `json:"page_size"`
	PoolFrames   int            `json:"pool_frames"`
	Objects      int            `json:"objects"`
	PayloadBytes int            `json:"payload_bytes"`
	Scans        int            `json:"scans"`
	LivePages    int            `json:"live_pages"`
	Declustered  BufferpoolScan `json:"declustered"`
	Clustered    BufferpoolScan `json:"clustered"`
	// FaultRateRatio is declustered over clustered fault rate: how many
	// times fewer faults a traversal takes after the clustering pass.
	FaultRateRatio float64 `json:"fault_rate_ratio"`
	ReorgMs        float64 `json:"reorg_ms"`
	Migrated       int     `json:"migrated"`
}

const bufferpoolPart = oid.PartitionID(1)

// livePages counts the bench partition's allocated pages.
func livePages(d *db.Database) int {
	st, err := d.Store().PartitionStats(bufferpoolPart)
	if err != nil {
		return 0
	}
	return st.Pages
}

// BufferpoolBench is the persisted BENCH_bufferpool.json shape: one
// fault-rate trajectory per execution mode over the same chain.
type BufferpoolBench struct {
	Timestamp    string              `json:"timestamp"`
	Scale        string              `json:"scale"`
	GOMAXPROCS   int                 `json:"gomaxprocs"`
	NumCPU       int                 `json:"num_cpu"`
	Trajectories []*BufferpoolReport `json:"trajectories"`
}

// RunBufferpool runs the benchmark once per requested execution mode and
// writes the JSON report to out. It fails if any trajectory's clustered
// layout does not beat the declustered one — that regression would
// invalidate the repo's central measurement.
func RunBufferpool(w io.Writer, sc Scale, out string) error {
	bench := &BufferpoolBench{
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		Scale:      sc.Name,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	for _, mode := range sc.modes() {
		rep, err := runBufferpoolOnce(w, sc, mode)
		if err != nil {
			return err
		}
		bench.Trajectories = append(bench.Trajectories, rep)
	}
	data, err := json.MarshalIndent(bench, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "bufferpool: report written to %s\n", out)
	return nil
}

// runBufferpoolOnce runs one trajectory of the benchmark in the given
// execution mode. The scan itself is single-threaded, so the fidelity
// and hardware numbers should agree within noise — the pair is the
// sanity check that the hardware-mode WAL and latching changes do not
// disturb placement or the pool's fault accounting.
func runBufferpoolOnce(w io.Writer, sc Scale, mode Mode) (*BufferpoolReport, error) {
	objects, payload, frames, scans := 1536, 160, 16, 3
	if sc.Name == "full" {
		objects, scans = 6144, 5
	}

	dir, err := os.MkdirTemp("", "bufferpool-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	cfg := db.DefaultConfig()
	env := applyMode(mode, nil, &cfg)
	cfg.PageSize = 4096
	cfg.FlushLatency = 0
	cfg.DiskBacked = true
	cfg.DataDir = dir
	cfg.PoolFrames = frames
	d := db.Open(cfg)
	defer d.Close()

	anchor, err := buildChain(d, objects, payload)
	if err != nil {
		return nil, fmt.Errorf("bufferpool: build chain: %w", err)
	}

	// Decay the layout: a shuffled first-fit self-migration decorrelates
	// page placement from reference order, like years of churn would.
	if _, err := shuffleChurn(d, bufferpoolPart, sc.Params.Seed); err != nil {
		return nil, fmt.Errorf("bufferpool: decluster: %w", err)
	}
	declustered, err := coldScan(d, anchor, scans)
	if err != nil {
		return nil, fmt.Errorf("bufferpool: declustered scan: %w", err)
	}

	// Re-cluster: migrate the whole partition densely in traversal
	// order, so consecutive chain hops land on the same page.
	reorgStart := time.Now()
	migrated, err := clusterPass(d, anchor)
	if err != nil {
		return nil, fmt.Errorf("bufferpool: cluster reorg: %w", err)
	}
	reorgMs := ms(time.Since(reorgStart))
	clustered, err := coldScan(d, anchor, scans)
	if err != nil {
		return nil, fmt.Errorf("bufferpool: clustered scan: %w", err)
	}

	rep := &BufferpoolReport{
		Timestamp:    time.Now().UTC().Format(time.RFC3339),
		Scale:        sc.Name,
		Env:          env,
		PageSize:     cfg.PageSize,
		PoolFrames:   frames,
		Objects:      objects,
		PayloadBytes: payload,
		Scans:        scans,
		LivePages:    livePages(d),
		Declustered:  declustered,
		Clustered:    clustered,
		ReorgMs:      reorgMs,
		Migrated:     migrated,
	}
	if clustered.FaultRate > 0 {
		rep.FaultRateRatio = declustered.FaultRate / clustered.FaultRate
	}
	fmt.Fprintf(w, "bufferpool[%s]: %d objects over %d live pages, %d-frame pool\n",
		env.Mode, rep.Objects, rep.LivePages, rep.PoolFrames)
	fmt.Fprintf(w, "bufferpool[%s]: cold-scan fault rate %.3f declustered -> %.3f clustered (%.1fx)\n",
		env.Mode, declustered.FaultRate, clustered.FaultRate, rep.FaultRateRatio)
	if clustered.FaultRate >= declustered.FaultRate {
		return nil, fmt.Errorf("bufferpool[%s]: clustering did not reduce the fault rate (%.3f -> %.3f)",
			env.Mode, declustered.FaultRate, clustered.FaultRate)
	}
	return rep, nil
}

// buildChain creates a singly-linked chain of n objects in the bench
// partition (tail first, so every reference targets an existing object)
// and returns a partition-0 anchor referencing the head. The anchor
// stays put during reorganizations; its reference is retargeted through
// the ERT like any other external reference.
func buildChain(d *db.Database, n, payload int) (oid.OID, error) {
	if err := d.CreatePartition(0); err != nil {
		return oid.Nil, err
	}
	if err := d.CreatePartition(bufferpoolPart); err != nil {
		return oid.Nil, err
	}
	var next oid.OID
	buf := make([]byte, payload)
	for i := n - 1; i >= 0; {
		tx, err := d.Begin()
		if err != nil {
			return oid.Nil, err
		}
		for batch := 0; batch < 256 && i >= 0; batch, i = batch+1, i-1 {
			copy(buf, fmt.Sprintf("chain-%d", i))
			var refs []oid.OID
			if !next.IsNil() {
				refs = []oid.OID{next}
			}
			o, err := tx.Create(bufferpoolPart, buf, refs)
			if err != nil {
				tx.Abort()
				return oid.Nil, err
			}
			next = o
		}
		if err := tx.Commit(); err != nil {
			return oid.Nil, err
		}
	}
	tx, err := d.Begin()
	if err != nil {
		return oid.Nil, err
	}
	anchor, err := tx.Create(0, []byte("bufferpool-anchor"), []oid.OID{next})
	if err != nil {
		tx.Abort()
		return oid.Nil, err
	}
	return anchor, tx.Commit()
}

// walkChain follows the chain from the anchor, returning the objects in
// traversal order.
func walkChain(d *db.Database, anchor oid.OID) ([]oid.OID, error) {
	tx, err := d.Begin()
	if err != nil {
		return nil, err
	}
	defer tx.Commit()
	var order []oid.OID
	cur := anchor
	for {
		refs, err := tx.ReadRefs(cur)
		if err != nil {
			return nil, err
		}
		if len(refs) == 0 {
			return order, nil
		}
		cur = refs[0]
		order = append(order, cur)
	}
}

// coldScan empties the pool, walks the chain, and repeats, returning the
// aggregated hit/miss counters of the traversals alone.
func coldScan(d *db.Database, anchor oid.OID, scans int) (BufferpoolScan, error) {
	st := d.Store()
	var res BufferpoolScan
	for s := 0; s < scans; s++ {
		if err := st.EvictAll(); err != nil {
			return res, err
		}
		before := st.PoolStats()
		if _, err := walkChain(d, anchor); err != nil {
			return res, err
		}
		after := st.PoolStats()
		res.Hits += after.Hits - before.Hits
		res.Misses += after.Misses - before.Misses
	}
	if total := res.Hits + res.Misses; total > 0 {
		res.FaultRate = float64(res.Misses) / float64(total)
	}
	return res, nil
}

// clusterPass migrates the bench partition densely in traversal order.
func clusterPass(d *db.Database, anchor oid.OID) (int, error) {
	order, err := walkChain(d, anchor)
	if err != nil {
		return 0, err
	}
	rank := make(map[oid.OID]int, len(order))
	for i, o := range order {
		rank[o] = i
	}
	plan := reorg.CompactPlan(bufferpoolPart)
	r := reorg.New(d, bufferpoolPart, reorg.Options{
		Mode: reorg.ModeOffline,
		Plan: &plan,
		MigrationOrder: func(objects []oid.OID) []oid.OID {
			sort.Slice(objects, func(i, j int) bool {
				ri, iok := rank[objects[i]]
				rj, jok := rank[objects[j]]
				if iok != jok {
					return iok // reachable objects first
				}
				if !iok {
					return objects[i] < objects[j]
				}
				return ri < rj
			})
			return objects
		},
	})
	if err := r.Run(); err != nil {
		return 0, err
	}
	return r.Stats().Migrated, nil
}

// shuffleChurn scatters part's objects with a quiescent offline pass: a
// same-partition, non-dense (first-fit) plan under a shuffled migration
// order relocates every object into whatever hole opens first, which
// decorrelates page placement from the reference graph — the decayed
// layout a long-lived update workload produces, compressed into one
// pass. Must run with no concurrent transactions.
func shuffleChurn(d *db.Database, part oid.PartitionID, seed int64) (int, error) {
	rng := rand.New(rand.NewSource(seed))
	r := reorg.New(d, part, reorg.Options{
		Mode: reorg.ModeOffline,
		Plan: &reorg.Plan{Target: func(oid.OID) oid.PartitionID { return part }},
		MigrationOrder: func(objects []oid.OID) []oid.OID {
			rng.Shuffle(len(objects), func(i, j int) {
				objects[i], objects[j] = objects[j], objects[i]
			})
			return objects
		},
	})
	if err := r.Run(); err != nil {
		return 0, err
	}
	return r.Stats().Migrated, nil
}
