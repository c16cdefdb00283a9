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

	"repro/internal/check"
	"repro/internal/db"
	"repro/internal/metrics"
	"repro/internal/oid"
	"repro/internal/reorg"
	"repro/internal/workload"
)

// This file quantifies the logical-OID indirection table (internal/
// oidmap) against the paper's physical-reference baseline. Two
// identically-seeded cells run per execution mode: one with direct
// physical addressing — migration rewrites every parent — and one
// behind the map — migration swings one entry per object. The report
// pairs three numbers the design argues about:
//
//   - parent rewrites per migration (physical: one per parent edge;
//     logical: zero),
//   - migration-phase p99 inflation over the in-run lead baseline (the
//     indirection table shrinks the lock footprint, so the logical cell
//     should inflate less),
//   - steady-state dereference latency (the price: every read pays one
//     sharded map probe).
//
// The result is written as BENCH_oidmode.json (reorgbench -bench
// oidmode) with one trajectory per execution mode.

// InterferencePoint is one sampling window of one run.
type InterferencePoint struct {
	// TMs is the window's start, in ms since the measurement began
	// (warmup excluded).
	TMs        float64 `json:"t_ms"`
	WindowMs   float64 `json:"window_ms"`
	Throughput float64 `json:"tput_tps"`
	P50Ms      float64 `json:"p50_ms"`
	P99Ms      float64 `json:"p99_ms"`
	MaxMs      float64 `json:"max_ms"`
	Commits    int     `json:"commits"`
	Aborts     int     `json:"aborts"`
	// ReorgActive marks windows during which the reorganization ran.
	ReorgActive bool `json:"reorg_active"`
}

// sampleWindow measures one window of the transaction stream.
func sampleWindow(rec *metrics.Recorder, window time.Duration, base time.Time, active bool) InterferencePoint {
	start := time.Now()
	rec.StartWindow()
	time.Sleep(window)
	s := rec.Stop()
	return InterferencePoint{
		TMs:         float64(start.Sub(base)) / float64(time.Millisecond),
		WindowMs:    float64(s.Window) / float64(time.Millisecond),
		Throughput:  s.Throughput,
		P50Ms:       ms(s.P50),
		P99Ms:       ms(s.P99),
		MaxMs:       ms(s.Max),
		Commits:     s.Commits,
		Aborts:      s.Aborts,
		ReorgActive: active,
	}
}

// meanOver averages f over the points at the given indices.
func meanOver(points []InterferencePoint, idx []int, f func(InterferencePoint) float64) float64 {
	if len(idx) == 0 {
		return 0
	}
	var sum float64
	for _, i := range idx {
		sum += f(points[i])
	}
	return sum / float64(len(idx))
}

// OIDModeCell is one addressing mode's sampled run.
type OIDModeCell struct {
	Addressing     string              `json:"addressing"` // "physical" or "logical"
	Points         []InterferencePoint `json:"points"`
	ReorgMs        float64             `json:"reorg_ms"`
	Migrated       int                 `json:"migrated"`
	ParentsUpdated int                 `json:"parents_updated"`
	// LeadP99Ms averages the p99 of the lead (pre-reorganization)
	// windows; MigP99Ms averages the reorg-active windows. Their ratio
	// is the migration-phase inflation.
	LeadP99Ms   float64 `json:"lead_p99_ms"`
	MigP99Ms    float64 `json:"migration_p99_ms"`
	MigMeanTput float64 `json:"migration_mean_tput_tps"`
	// DerefNs is the steady-state dereference microbench: mean
	// wall-clock per FuzzyRead over a fixed shuffled OID schedule on the
	// quiesced post-reorganization database.
	DerefNs float64 `json:"deref_ns_per_read"`
}

// OIDModeReport is one execution-mode trajectory: the paired cells plus
// the headline deltas.
type OIDModeReport struct {
	Timestamp  string   `json:"timestamp"`
	Scale      string   `json:"scale"`
	System     string   `json:"system"`
	Env        BenchEnv `json:"env"`
	MPL        int      `json:"mpl"`
	Partitions int      `json:"partitions"`
	Objects    int      `json:"objects_per_partition"`
	Seed       int64    `json:"seed"`
	WindowMs   float64  `json:"window_ms"`

	Physical OIDModeCell `json:"physical"`
	Logical  OIDModeCell `json:"logical"`

	// MigP99InflationPhysicalPct / LogicalPct are each cell's
	// migration-phase p99 against its own lead baseline.
	MigP99InflationPhysicalPct float64 `json:"mig_p99_inflation_physical_pct"`
	MigP99InflationLogicalPct  float64 `json:"mig_p99_inflation_logical_pct"`
	// DerefOverheadPct is the logical cell's dereference cost over the
	// physical cell's — the steady-state price of the map probe.
	DerefOverheadPct float64 `json:"deref_overhead_pct"`
}

// OIDModeConfig describes one paired oidmode run.
type OIDModeConfig struct {
	Params         workload.Params
	DB             db.Config
	Mode           reorg.Mode
	ReorgPartition oid.PartitionID
	Window         time.Duration
	Warmup         time.Duration
	LeadWindows    int
	DrainWindows   int
	// DerefReads is the steady-state microbench's read count.
	DerefReads int
	// Verify runs the consistency checker after each cell.
	Verify bool
}

// DefaultOIDModeConfig sizes the paired run for a Scale.
func DefaultOIDModeConfig(sc Scale) OIDModeConfig {
	cfg := OIDModeConfig{
		Params:         sc.Params,
		DB:             db.DefaultConfig(),
		Mode:           reorg.ModeIRA,
		ReorgPartition: 1,
		Window:         100 * time.Millisecond,
		Warmup:         300 * time.Millisecond,
		LeadWindows:    5,
		DerefReads:     200_000,
		Verify:         true,
	}
	if sc.Name == "quick" {
		cfg.Params.NumPartitions = 4
		cfg.Params.ObjectsPerPartition = 510
		cfg.Params.MPL = 10
		cfg.LeadWindows = 3
		cfg.DerefReads = 50_000
	}
	return cfg
}

// runOIDModeCell builds one addressing mode's database, samples the
// workload through a reorganization of the configured partition, then
// quiesces and runs the dereference microbench.
func runOIDModeCell(cfg OIDModeConfig, logical bool) (*OIDModeCell, error) {
	dcfg := cfg.DB
	dcfg.LogicalOIDs = logical
	cell := &OIDModeCell{Addressing: "physical"}
	if logical {
		cell.Addressing = "logical"
	}

	w, err := workload.Build(dcfg, cfg.Params)
	if err != nil {
		return nil, fmt.Errorf("oidmode: build %s workload: %w", cell.Addressing, err)
	}
	defer w.DB.Close()

	rec := metrics.NewRecorder()
	driver := workload.NewDriver(w, rec)
	driver.Start()
	time.Sleep(cfg.Warmup)
	base := time.Now()

	for i := 0; i < cfg.LeadWindows; i++ {
		cell.Points = append(cell.Points, sampleWindow(rec, cfg.Window, base, false))
	}
	r := reorg.New(w.DB, cfg.ReorgPartition, reorg.Options{
		Mode: cfg.Mode,
		PerObjectWork: func() {
			w.BurnCPU(cfg.Params.ReorgCPUPerObject)
		},
	})
	var reorgErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		reorgErr = r.Run()
	}()
sampling:
	for {
		cell.Points = append(cell.Points, sampleWindow(rec, cfg.Window, base, true))
		select {
		case <-done:
			break sampling
		default:
		}
	}
	st := r.Stats()
	cell.ReorgMs = ms(st.Duration())
	cell.Migrated = st.Migrated
	cell.ParentsUpdated = st.ParentsUpdated
	for i := 0; i < cfg.DrainWindows; i++ {
		cell.Points = append(cell.Points, sampleWindow(rec, cfg.Window, base, false))
	}
	driver.Stop()
	if reorgErr != nil {
		return nil, fmt.Errorf("oidmode: %s reorganization: %w", cell.Addressing, reorgErr)
	}

	var lead, active []int
	for i, p := range cell.Points {
		if p.ReorgActive {
			active = append(active, i)
		} else if i < cfg.LeadWindows {
			lead = append(lead, i)
		}
	}
	p99 := func(p InterferencePoint) float64 { return p.P99Ms }
	tput := func(p InterferencePoint) float64 { return p.Throughput }
	cell.LeadP99Ms = meanOver(cell.Points, lead, p99)
	cell.MigP99Ms = meanOver(cell.Points, active, p99)
	cell.MigMeanTput = meanOver(cell.Points, active, tput)

	if cfg.Verify {
		rep, err := check.Verify(w.DB, w.Roots())
		if err != nil {
			return nil, err
		}
		if err := rep.Err(); err != nil {
			return nil, fmt.Errorf("oidmode: %s post-run consistency: %w", cell.Addressing, err)
		}
	}

	cell.DerefNs, err = derefBench(w.DB, cfg.Params.Seed, cfg.DerefReads)
	if err != nil {
		return nil, fmt.Errorf("oidmode: %s dereference bench: %w", cell.Addressing, err)
	}
	return cell, nil
}

// derefBench measures steady-state dereference latency on the quiesced
// database: FuzzyRead over a seeded shuffle of every live OID, repeated
// until reads operations have run. Both cells of a pair use the same
// seed and read count, so the schedules differ only in what an OID is —
// an address, or a map key.
func derefBench(d *db.Database, seed int64, reads int) (float64, error) {
	var oids []oid.OID
	for _, part := range d.Partitions() {
		po, err := d.PartitionOIDs(part)
		if err != nil {
			return 0, err
		}
		oids = append(oids, po...)
	}
	if len(oids) == 0 {
		return 0, fmt.Errorf("no objects to dereference")
	}
	sort.Slice(oids, func(i, j int) bool { return oids[i] < oids[j] })
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(oids), func(i, j int) { oids[i], oids[j] = oids[j], oids[i] })

	// One untimed pass warms whatever the backing store caches.
	for _, o := range oids {
		if _, err := d.FuzzyRead(o); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	for i := 0; i < reads; i++ {
		if _, err := d.FuzzyRead(oids[i%len(oids)]); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(reads), nil
}

// runOIDMode runs one trajectory's paired cells with an explicit
// configuration, so tests can pair a small cell.
func runOIDMode(w io.Writer, cfg OIDModeConfig, scaleName string, env BenchEnv) (*OIDModeReport, error) {
	rep := &OIDModeReport{
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		Scale:      scaleName,
		System:     cfg.Mode.String(),
		Env:        env,
		MPL:        cfg.Params.MPL,
		Partitions: cfg.Params.NumPartitions,
		Objects:    cfg.Params.ObjectsPerPartition,
		Seed:       cfg.Params.Seed,
		WindowMs:   ms(cfg.Window),
	}
	fmt.Fprintf(w, "oidmode pair: %s, %d×%d objects, MPL %d, %s windows\n",
		cfg.Mode, cfg.Params.NumPartitions, cfg.Params.ObjectsPerPartition,
		cfg.Params.MPL, cfg.Window)

	phys, err := runOIDModeCell(cfg, false)
	if err != nil {
		return nil, err
	}
	rep.Physical = *phys
	fmt.Fprintf(w, "physical: %d migrated, %d parent rewrites, reorg %.0f ms, mig p99 %.2f ms, deref %.0f ns\n",
		phys.Migrated, phys.ParentsUpdated, phys.ReorgMs, phys.MigP99Ms, phys.DerefNs)

	logi, err := runOIDModeCell(cfg, true)
	if err != nil {
		return nil, err
	}
	rep.Logical = *logi
	fmt.Fprintf(w, "logical : %d migrated, %d parent rewrites, reorg %.0f ms, mig p99 %.2f ms, deref %.0f ns\n",
		logi.Migrated, logi.ParentsUpdated, logi.ReorgMs, logi.MigP99Ms, logi.DerefNs)

	// The tentpole claim is structural, not statistical: migrating
	// behind the map rewrites no parents. Fail the bench outright if it
	// ever does.
	if logi.ParentsUpdated != 0 {
		return nil, fmt.Errorf("oidmode: logical migration rewrote %d parents, want 0", logi.ParentsUpdated)
	}
	if phys.Migrated > 0 && phys.ParentsUpdated == 0 {
		return nil, fmt.Errorf("oidmode: physical migration rewrote no parents; baseline is not exercising the rewrite path")
	}

	pct := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return (num - den) / den * 100
	}
	rep.MigP99InflationPhysicalPct = pct(phys.MigP99Ms, phys.LeadP99Ms)
	rep.MigP99InflationLogicalPct = pct(logi.MigP99Ms, logi.LeadP99Ms)
	rep.DerefOverheadPct = pct(logi.DerefNs, phys.DerefNs)
	fmt.Fprintf(w, "mig p99 inflation: physical %+.1f%%, logical %+.1f%%; deref overhead %+.1f%%\n",
		rep.MigP99InflationPhysicalPct, rep.MigP99InflationLogicalPct, rep.DerefOverheadPct)
	return rep, nil
}

// OIDModeBench is the persisted shape of BENCH_oidmode.json: one paired
// physical/logical run per execution mode.
type OIDModeBench struct {
	Timestamp    string           `json:"timestamp"`
	Scale        string           `json:"scale"`
	GOMAXPROCS   int              `json:"gomaxprocs"`
	NumCPU       int              `json:"num_cpu"`
	Trajectories []*OIDModeReport `json:"trajectories"`
}

// RunOIDMode runs the paired physical/logical cells at the Scale's
// default configuration once per execution mode, prints a summary to w
// and writes the JSON report to outPath ("" skips the file).
func RunOIDMode(w io.Writer, sc Scale, outPath string) error {
	bench := &OIDModeBench{
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		Scale:      sc.Name,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	for _, mode := range sc.modes() {
		cfg := DefaultOIDModeConfig(sc)
		env := applyMode(mode, &cfg.Params, &cfg.DB)
		fmt.Fprintf(w, "=== %s mode (cpu_tokens=%d, group_commit=%v)\n",
			mode, env.CPUTokens, env.GroupCommit)
		rep, err := runOIDMode(w, cfg, sc.Name, env)
		if err != nil {
			return err
		}
		bench.Trajectories = append(bench.Trajectories, rep)
	}
	if outPath != "" {
		data, err := json.MarshalIndent(bench, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if err := os.WriteFile(outPath, data, 0o644); err != nil {
			return fmt.Errorf("oidmode: write report: %w", err)
		}
		fmt.Fprintf(w, "\nreport written to %s\n", outPath)
	}
	return nil
}
