package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/db"
	"repro/internal/metrics"
	"repro/internal/oid"
	"repro/internal/query"
	"repro/internal/reorg"
	"repro/internal/workload"
)

// This file is the `queryscan` benchmark: the clustering claim measured
// through a real consumer. The bufferpool bench counts page faults of a
// hand-rolled chain walk; here the consumer is the volcano operator
// pipeline (FollowRefs over the workload's cluster trees), so the
// benchmark reports what an analytic client actually feels: cold
// traversal latency and fault rate on a declustered store, the same
// store after a reference-ordered clustering pass, and — second cell —
// how much analytic scans and OLTP traffic interfere while a reorg
// fleet migrates every partition underneath both. Written as
// BENCH_queryscan.json (reorgbench -bench queryscan), one trajectory
// per execution mode.

// QueryscanScan aggregates the cold traversals of one layout.
type QueryscanScan struct {
	Hits          uint64  `json:"hits"`
	Misses        uint64  `json:"misses"`
	FaultRate     float64 `json:"fault_rate"`
	MeanLatencyMs float64 `json:"mean_latency_ms"`
	Rows          int     `json:"rows"`
	Restarts      int     `json:"restarts"`
}

// QueryscanSide is one half of the paired scan-on/off interference
// cell.
type QueryscanSide struct {
	MeanTputTps float64 `json:"mean_tput_tps"`
	MeanP99Ms   float64 `json:"mean_p99_ms"`
	Windows     int     `json:"windows"`
	// Scan stats are populated on the scan-on side only.
	Scans        int     `json:"scans,omitempty"`
	ScanRestarts int     `json:"scan_restarts,omitempty"`
	ScanMeanMs   float64 `json:"scan_mean_ms,omitempty"`
}

// QueryscanInterference is the paired cell: the OLTP driver and the
// reorg fleet run in both halves; analytic traversals run only in On.
type QueryscanInterference struct {
	MPL          int           `json:"mpl"`
	Partitions   int           `json:"partitions"`
	WindowMs     float64       `json:"window_ms"`
	FleetMs      float64       `json:"fleet_ms"`
	Off          QueryscanSide `json:"off"`
	On           QueryscanSide `json:"on"`
	TputDeltaPct float64       `json:"tput_delta_pct"`
}

// QueryscanReport is one execution-mode trajectory.
type QueryscanReport struct {
	Timestamp    string   `json:"timestamp"`
	Scale        string   `json:"scale"`
	Env          BenchEnv `json:"env"`
	PageSize     int      `json:"page_size"`
	PoolFrames   int      `json:"pool_frames"`
	Objects      int      `json:"objects"`
	PayloadBytes int      `json:"payload_bytes"`
	Scans        int      `json:"scans"`
	LivePages    int      `json:"live_pages"`

	Declustered QueryscanScan `json:"declustered"`
	Clustered   QueryscanScan `json:"clustered"`
	// Ratios are declustered over clustered: how many times cheaper the
	// traversal got after the clustering pass.
	FaultRateRatio float64 `json:"fault_rate_ratio"`
	LatencyRatio   float64 `json:"latency_ratio"`
	ReorgMs        float64 `json:"reorg_ms"`
	Migrated       int     `json:"migrated"`

	Interference QueryscanInterference `json:"interference"`
}

// QueryscanBench is the persisted BENCH_queryscan.json shape.
type QueryscanBench struct {
	Timestamp    string             `json:"timestamp"`
	Scale        string             `json:"scale"`
	GOMAXPROCS   int                `json:"gomaxprocs"`
	NumCPU       int                `json:"num_cpu"`
	Trajectories []*QueryscanReport `json:"trajectories"`
}

// RunQueryScan runs the benchmark once per requested execution mode and
// writes the JSON report to out. Each trajectory fails unless the
// clustered layout beats the declustered one on BOTH cold-scan fault
// rate and cold-scan latency — the clustering win, measured through a
// real consumer, is the claim this benchmark exists to hold.
func RunQueryScan(w io.Writer, sc Scale, out string) error {
	bench := &QueryscanBench{
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		Scale:      sc.Name,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	for _, mode := range sc.modes() {
		rep, err := runQueryScanOnce(w, sc, mode)
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
	fmt.Fprintf(w, "queryscan: report written to %s\n", out)
	return nil
}

const queryscanPart = oid.PartitionID(1)

// runQueryScanOnce runs one trajectory: the cold-traversal pair on a
// disk-backed store, then the scan-on/off interference cell.
func runQueryScanOnce(w io.Writer, sc Scale, mode Mode) (*QueryscanReport, error) {
	objects, payload, frames, scans := 1536, 160, 16, 5
	if sc.Name == "full" {
		objects = 6144
	}

	dir, err := os.MkdirTemp("", "queryscan-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// The cold-scan pair runs over a forest of disjoint cluster trees
	// (the workload's tree shape, minus its glue edges, which connect
	// every cluster to every other and would make each traversal cover
	// the whole graph) in a single data partition against a
	// deliberately small buffer pool. Each tree is anchored from a
	// partition-0 object: the anchors are the query roots, and they
	// stay valid while migration renames every tree OID underneath.
	p := workload.DefaultParams()
	cfg := db.DefaultConfig()
	env := applyMode(mode, &p, &cfg)
	cfg.PageSize = 4096
	cfg.FlushLatency = 0
	cfg.DiskBacked = true
	cfg.DataDir = dir
	cfg.PoolFrames = frames
	d := db.Open(cfg)
	defer d.Close()
	roots, err := buildClusterForest(d, objects, p.ClusterSize, payload, sc.Params.Seed)
	if err != nil {
		return nil, fmt.Errorf("queryscan: build fixture: %w", err)
	}

	// Decay the layout the way years of churn would, then measure.
	if _, err := shuffleChurn(d, queryscanPart, p.Seed); err != nil {
		return nil, fmt.Errorf("queryscan: decluster: %w", err)
	}
	declustered, err := coldTraversals(d, roots, scans)
	if err != nil {
		return nil, fmt.Errorf("queryscan: declustered traversal: %w", err)
	}

	// Re-cluster: dense compaction in DFS order from the partition's
	// ERT entry points.
	reorgStart := time.Now()
	plan := reorg.CompactPlan(queryscanPart)
	r := reorg.New(d, queryscanPart, reorg.Options{
		Mode:           reorg.ModeOffline,
		Plan:           &plan,
		MigrationOrder: clusterOrder(d, queryscanPart),
	})
	if err := r.Run(); err != nil {
		return nil, fmt.Errorf("queryscan: clustering pass: %w", err)
	}
	reorgMs := ms(time.Since(reorgStart))
	clustered, err := coldTraversals(d, roots, scans)
	if err != nil {
		return nil, fmt.Errorf("queryscan: clustered traversal: %w", err)
	}

	rep := &QueryscanReport{
		Timestamp:    time.Now().UTC().Format(time.RFC3339),
		Scale:        sc.Name,
		Env:          env,
		PageSize:     cfg.PageSize,
		PoolFrames:   frames,
		Objects:      objects,
		PayloadBytes: payload,
		Scans:        scans,
		LivePages:    queryscanLivePages(d),
		Declustered:  declustered,
		Clustered:    clustered,
		ReorgMs:      reorgMs,
		Migrated:     r.Stats().Migrated,
	}
	if clustered.FaultRate > 0 {
		rep.FaultRateRatio = declustered.FaultRate / clustered.FaultRate
	}
	if clustered.MeanLatencyMs > 0 {
		rep.LatencyRatio = declustered.MeanLatencyMs / clustered.MeanLatencyMs
	}
	fmt.Fprintf(w, "queryscan[%s]: %d objects over %d live pages, %d-frame pool, %d-row traversals\n",
		env.Mode, rep.Objects, rep.LivePages, frames, clustered.Rows)
	fmt.Fprintf(w, "queryscan[%s]: cold traversal %.2f ms / fault rate %.3f declustered -> %.2f ms / %.3f clustered (%.1fx / %.1fx)\n",
		env.Mode, declustered.MeanLatencyMs, declustered.FaultRate,
		clustered.MeanLatencyMs, clustered.FaultRate, rep.LatencyRatio, rep.FaultRateRatio)
	if clustered.FaultRate >= declustered.FaultRate {
		return nil, fmt.Errorf("queryscan[%s]: clustering did not reduce the traversal fault rate (%.3f -> %.3f)",
			env.Mode, declustered.FaultRate, clustered.FaultRate)
	}
	if clustered.MeanLatencyMs >= declustered.MeanLatencyMs {
		return nil, fmt.Errorf("queryscan[%s]: clustering did not reduce the cold traversal latency (%.2fms -> %.2fms)",
			env.Mode, declustered.MeanLatencyMs, clustered.MeanLatencyMs)
	}

	itf, err := runQueryInterference(w, sc, mode, env)
	if err != nil {
		return nil, err
	}
	rep.Interference = itf
	return rep, nil
}

// buildClusterForest creates total objects in the bench partition as
// disjoint random cluster trees of clusterSize (node i attaches under
// a random earlier node, like the workload's trees), each tree rooted
// from its own partition-0 anchor. It returns the anchors: the stable
// traversal roots — migration renames every tree OID but never touches
// partition 0.
func buildClusterForest(d *db.Database, total, clusterSize, payload int, seed int64) ([]oid.OID, error) {
	if err := d.CreatePartition(workload.RootPartition); err != nil {
		return nil, err
	}
	if err := d.CreatePartition(queryscanPart); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	var anchors []oid.OID
	ci := 0
	for created := 0; created < total; ci++ {
		size := clusterSize
		if size > total-created {
			size = total - created
		}
		tx, err := d.Begin()
		if err != nil {
			return nil, err
		}
		nodes := make([]oid.OID, 0, size)
		for i := 0; i < size; i++ {
			pad := fmt.Sprintf("qs-c%04d-n%04d", ci, i)
			for len(pad) < payload {
				pad += "."
			}
			o, err := tx.Create(queryscanPart, []byte(pad), nil)
			if err != nil {
				tx.Abort()
				return nil, err
			}
			if i > 0 {
				if err := tx.InsertRef(nodes[rng.Intn(len(nodes))], o); err != nil {
					tx.Abort()
					return nil, err
				}
			}
			nodes = append(nodes, o)
		}
		anchor, err := tx.Create(workload.RootPartition,
			[]byte(fmt.Sprintf("qs-anchor-%04d", ci)), []oid.OID{nodes[0]})
		if err != nil {
			tx.Abort()
			return nil, err
		}
		if err := tx.Commit(); err != nil {
			return nil, err
		}
		anchors = append(anchors, anchor)
		created += size
	}
	return anchors, nil
}

func queryscanLivePages(d *db.Database) int {
	st, err := d.Store().PartitionStats(queryscanPart)
	if err != nil {
		return 0
	}
	return st.Pages
}

// coldTraversals empties the pool, then traverses the partition the
// way an analytic client would: cluster by cluster, one operator
// pipeline per root. A clustered cluster tree (~4 pages) fits the
// small pool, so its traversal faults a handful of times; a
// declustered one faults once per object. The pool counters and wall
// time cover the traversals alone, aggregated over all clusters and
// repeated scans times.
func coldTraversals(d *db.Database, roots []oid.OID, scans int) (QueryscanScan, error) {
	st := d.Store()
	var res QueryscanScan
	var totalMs float64
	for s := 0; s < scans; s++ {
		if err := st.EvictAll(); err != nil {
			return res, err
		}
		rows := 0
		before := st.PoolStats()
		start := time.Now()
		for _, root := range roots {
			root := root
			qres, err := query.Run(d, query.Options{}, func(e *query.Exec) (query.Operator, error) {
				return query.NewFollowRefs([]oid.OID{root}, -1), nil
			})
			if err != nil {
				return res, err
			}
			rows += len(qres.Rows)
			res.Restarts += qres.Attempts - 1
		}
		totalMs += ms(time.Since(start))
		after := st.PoolStats()
		res.Hits += after.Hits - before.Hits
		res.Misses += after.Misses - before.Misses
		res.Rows = rows
	}
	if total := res.Hits + res.Misses; total > 0 {
		res.FaultRate = float64(res.Misses) / float64(total)
	}
	res.MeanLatencyMs = totalMs / float64(scans)
	return res, nil
}

// runQueryInterference runs the paired scan-on/off cell: an OLTP
// driver and a reorg fleet over every data partition in both halves,
// plus analytic traversal workers in the ON half. The report pairs
// mean throughput and p99 over the fleet windows, so the delta is the
// price OLTP pays for concurrent analytic scans under reorganization.
func runQueryInterference(w io.Writer, sc Scale, mode Mode, env BenchEnv) (QueryscanInterference, error) {
	p := sc.Params
	p.NumPartitions = 4
	p.ObjectsPerPartition = 510
	p.MPL = 8
	if sc.Name == "full" {
		p.ObjectsPerPartition = 1020
	}
	cfg := db.DefaultConfig()
	applyMode(mode, &p, &cfg)
	cfg.LockTimeout = 300 * time.Millisecond

	itf := QueryscanInterference{
		MPL:        p.MPL,
		Partitions: p.NumPartitions,
		WindowMs:   100,
	}
	on, err := runQueryInterferenceCell(p, cfg, true, 0)
	if err != nil {
		return itf, fmt.Errorf("queryscan: scan-on cell: %w", err)
	}
	off, err := runQueryInterferenceCell(p, cfg, false, on.windows)
	if err != nil {
		return itf, fmt.Errorf("queryscan: scan-off cell: %w", err)
	}
	itf.On, itf.Off, itf.FleetMs = on.side, off.side, on.fleetMs
	if itf.Off.MeanTputTps > 0 {
		itf.TputDeltaPct = 100 * (1 - itf.On.MeanTputTps/itf.Off.MeanTputTps)
	}
	fmt.Fprintf(w, "queryscan[%s]: interference — OLTP %.1f tps / p99 %.1f ms scans-off vs %.1f tps / p99 %.1f ms scans-on (%+.1f%%), %d scans committed\n",
		env.Mode, itf.Off.MeanTputTps, itf.Off.MeanP99Ms,
		itf.On.MeanTputTps, itf.On.MeanP99Ms, itf.TputDeltaPct, itf.On.Scans)
	if on.side.Scans == 0 {
		return itf, fmt.Errorf("queryscan[%s]: no analytic scan committed during the fleet window", env.Mode)
	}
	return itf, nil
}

type queryItfRun struct {
	side    QueryscanSide
	windows int
	fleetMs float64
}

// runQueryInterferenceCell runs one half. With scansOn, traversal
// workers run for the whole fleet window and every committed traversal
// is checked against the quiescent baseline multiset — a wrong answer
// fails the benchmark, not just the query.
func runQueryInterferenceCell(p workload.Params, cfg db.Config, scansOn bool, totalWindows int) (*queryItfRun, error) {
	wl, err := workload.Build(cfg, p)
	if err != nil {
		return nil, err
	}
	defer wl.DB.Close()
	d := wl.DB
	roots := wl.Roots()

	traverse := func(budget int) (*query.Result, error) {
		return query.Run(d, query.Options{MaxRestarts: budget}, func(e *query.Exec) (query.Operator, error) {
			return query.NewFollowRefs(roots, -1), nil
		})
	}
	base, err := traverse(5)
	if err != nil {
		return nil, fmt.Errorf("baseline traversal: %w", err)
	}
	want := query.Multiset(query.Payloads(base.Rows))

	rec := metrics.NewRecorder()
	driver := workload.NewDriver(wl, rec)
	driver.Start()
	time.Sleep(300 * time.Millisecond)
	basetime := time.Now()

	var parts []oid.PartitionID
	for pt := 1; pt <= p.NumPartitions; pt++ {
		parts = append(parts, oid.PartitionID(pt))
	}
	s, err := reorg.NewScheduler(d, parts, reorg.FleetOptions{
		Workers: 2,
		Reorg: reorg.Options{
			Mode:       reorg.ModeIRA,
			BatchSize:  8,
			MaxRetries: 5000,
			// Must outlast a full analytic traversal (see the race cell).
			WaitTimeout: 3 * time.Second,
		},
	})
	if err != nil {
		driver.Stop()
		return nil, err
	}
	fleetStart := time.Now()
	fleetDone := make(chan error, 1)
	go func() { fleetDone <- s.Run() }()

	var (
		stop     = make(chan struct{})
		wg       sync.WaitGroup
		scanMu   sync.Mutex
		scans    int
		restarts int
		scanMs   float64
		scanErr  error
	)
	if scansOn {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				start := time.Now()
				res, err := traverse(30)
				if err != nil {
					if errors.Is(err, query.ErrRestartsExhausted) {
						continue // liveness hiccup under contention; retry
					}
					scanMu.Lock()
					if scanErr == nil {
						scanErr = err
					}
					scanMu.Unlock()
					return
				}
				got := query.Multiset(query.Payloads(res.Rows))
				ok := len(got) == len(want)
				for s, n := range want {
					if got[s] != n {
						ok = false
						break
					}
				}
				scanMu.Lock()
				if !ok && scanErr == nil {
					scanErr = fmt.Errorf("committed traversal drifted from the baseline payload multiset")
				}
				scans++
				restarts += res.Attempts - 1
				scanMs += ms(time.Since(start))
				scanMu.Unlock()
				time.Sleep(5 * time.Millisecond)
			}
		}()
	}

	run := &queryItfRun{}
	window := 100 * time.Millisecond
	var points []InterferencePoint
	if totalWindows > 0 {
		// Paired half: sample exactly the other half's window count,
		// letting the fleet finish in the background of the later ones.
		fleetErr := error(nil)
		fleetRunning := true
		for i := 0; i < totalWindows; i++ {
			points = append(points, sampleWindow(rec, window, basetime, fleetRunning))
			select {
			case fleetErr = <-fleetDone:
				fleetRunning = false
			default:
			}
		}
		if fleetRunning {
			fleetErr = <-fleetDone
		}
		if fleetErr != nil {
			driver.Stop()
			return nil, fmt.Errorf("fleet: %w (failures: %v)", fleetErr, s.Failures())
		}
	} else {
		var fleetErr error
	sampling:
		for {
			points = append(points, sampleWindow(rec, window, basetime, true))
			select {
			case fleetErr = <-fleetDone:
				break sampling
			default:
			}
		}
		if fleetErr != nil {
			close(stop)
			wg.Wait()
			driver.Stop()
			return nil, fmt.Errorf("fleet: %w (failures: %v)", fleetErr, s.Failures())
		}
	}
	run.fleetMs = ms(time.Since(fleetStart))
	close(stop)
	wg.Wait()
	driver.Stop()
	if scanErr != nil {
		return nil, scanErr
	}

	var idx []int
	for i, pt := range points {
		if pt.ReorgActive {
			idx = append(idx, i)
		}
	}
	run.windows = len(points)
	run.side = QueryscanSide{
		MeanTputTps: meanOver(points, idx, func(p InterferencePoint) float64 { return p.Throughput }),
		MeanP99Ms:   meanOver(points, idx, func(p InterferencePoint) float64 { return p.P99Ms }),
		Windows:     len(idx),
	}
	if scansOn {
		run.side.Scans, run.side.ScanRestarts = scans, restarts
		if scans > 0 {
			run.side.ScanMeanMs = scanMs / float64(scans)
		}
	}
	return run, nil
}

// clusterOrder returns a MigrationOrder hook that re-clusters a
// partition's objects by reference locality: a depth-first traversal of
// the intra-partition reference graph, seeded from the ERT's referenced
// objects (the externally anchored entry points), emits each parent
// immediately followed by the subtree it reaches. Dense plans place
// objects in migration order, so the emitted order is the on-page
// layout — the clustering policies of [TN91]/[WMK94] the paper's §1
// names as the reason to reorganize, plugged into the reorg.Options
// placement hook.
//
// The hook runs at an object boundary with no reorganizer locks held;
// reads go through the fuzzy (latch-only) path. Objects whose references
// cannot be read — deleted mid-traversal — keep their traversal-order
// position via reorg's own fallback for dropped objects.
func clusterOrder(d *db.Database, part oid.PartitionID) func([]oid.OID) []oid.OID {
	return func(objects []oid.OID) []oid.OID {
		in := make(map[oid.OID]bool, len(objects))
		for _, o := range objects {
			in[o] = true
		}
		visited := make(map[oid.OID]bool, len(objects))
		out := make([]oid.OID, 0, len(objects))
		// Iterative DFS; the explicit stack keeps deep reference chains
		// (glue edges can link cluster trees into long paths) off the
		// goroutine stack.
		var stack []oid.OID
		push := func(o oid.OID) {
			if in[o] && !visited[o] {
				stack = append(stack, o)
			}
		}
		visit := func(root oid.OID) {
			push(root)
			for len(stack) > 0 {
				o := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if visited[o] || !in[o] {
					continue
				}
				visited[o] = true
				out = append(out, o)
				refs, err := d.FuzzyReadRefs(o)
				if err != nil {
					continue
				}
				// Push in reverse so the first reference is laid out
				// right after its parent.
				for i := len(refs) - 1; i >= 0; i-- {
					if refs[i].Partition() == part {
						push(refs[i])
					}
				}
			}
		}
		for _, root := range d.ERT(part).ReferencedObjects() {
			visit(root)
		}
		// Anything unreached from the ERT (root-table partitions, cycles
		// with no external anchor) keeps traversal order.
		for _, o := range objects {
			visit(o)
		}
		return out
	}
}
