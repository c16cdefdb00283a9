package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/check"
	"repro/internal/db"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/oid"
	"repro/internal/reorg"
	"repro/internal/workload"
)

// This file is the live interference monitor: the paper's Figs. 5–7 show
// that IRA reorganizes a partition while transaction throughput and
// response time stay near the no-reorganization baseline. End-of-run
// averages can hide a lot — a short stall vanishes into a 10-second mean
// — so the monitor samples the transaction stream in fine windows
// (default 100 ms) and emits the paired series: one run with the
// reorganization on, one identically-seeded run with it off. The result
// is written as BENCH_interference.json (reorgbench -bench interference)
// so successive commits can be compared.

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

// InterferenceSeries is one run's window series.
type InterferenceSeries struct {
	Label    string              `json:"label"`
	Points   []InterferencePoint `json:"points"`
	ReorgMs  float64             `json:"reorg_ms"`
	Migrated int                 `json:"migrated"`
}

// ReorgStepDigest is the JSON shape of one migration step's span
// aggregate in the report.
type ReorgStepDigest struct {
	Step        string         `json:"step"`
	Count       uint64         `json:"count"`
	Errs        uint64         `json:"errs"`
	LockWaitMs  float64        `json:"lock_wait_ms"`
	LatchWaitMs float64        `json:"latch_wait_ms"`
	CPUWaitMs   float64        `json:"cpu_wait_ms"`
	Span        obs.HistDigest `json:"span"`
}

// InterferenceReport is the persisted shape of one interference run
// (one execution-mode trajectory of the benchmark).
type InterferenceReport struct {
	Timestamp    string   `json:"timestamp"`
	Scale        string   `json:"scale"`
	System       string   `json:"system"`
	Env          BenchEnv `json:"env"`
	GOMAXPROCS   int      `json:"gomaxprocs"`
	MPL          int      `json:"mpl"`
	Partitions   int      `json:"partitions"`
	Objects      int      `json:"objects_per_partition"`
	Seed         int64    `json:"seed"`
	WindowMs     float64  `json:"window_ms"`
	WarmupMs     float64  `json:"warmup_ms"`
	LeadWindows  int      `json:"lead_windows"`
	DrainWindows int      `json:"drain_windows"`

	On  InterferenceSeries `json:"on"`
	Off InterferenceSeries `json:"off"`

	// Steps and Metrics come from the tracer installed for the ON run:
	// per-migration-step span aggregates and the process-wide hot-path
	// histograms.
	Steps   []ReorgStepDigest         `json:"steps,omitempty"`
	Metrics map[string]obs.HistDigest `json:"metrics,omitempty"`

	// Headline pairing: mean throughput / p99 over the reorg-active ON
	// windows against the same window indices of the OFF run.
	OffMeanTput         float64 `json:"off_mean_tput_tps"`
	OnMeanTput          float64 `json:"on_mean_tput_tps"`
	TputInterferencePct float64 `json:"tput_interference_pct"`
	OffMeanP99Ms        float64 `json:"off_mean_p99_ms"`
	OnMeanP99Ms         float64 `json:"on_mean_p99_ms"`
}

// InterferenceConfig describes one monitored run pair.
type InterferenceConfig struct {
	Params workload.Params
	DB     db.Config
	Mode   reorg.Mode
	// ReorgPartition is the partition reorganized (default 1).
	ReorgPartition oid.PartitionID
	// Window is the sampling window width (default 100 ms, the paper-
	// figure granularity).
	Window time.Duration
	// Warmup runs the workload before sampling starts; discarded.
	Warmup time.Duration
	// LeadWindows are sampled before the reorganization launches — the
	// in-run baseline at the head of the ON series.
	LeadWindows int
	// DrainWindows are sampled after the reorganization completes, so
	// transactions stalled behind it surface in the series.
	DrainWindows int
	// Trace installs an obs.Tracer around the ON run to collect per-step
	// spans and hot-path histograms into the report.
	Trace bool
	// Verify runs the consistency checker after each run.
	Verify bool
}

// DefaultInterferenceConfig sizes the monitor for a Scale.
func DefaultInterferenceConfig(sc Scale) InterferenceConfig {
	cfg := InterferenceConfig{
		Params:         sc.Params,
		DB:             db.DefaultConfig(),
		Mode:           reorg.ModeIRA,
		ReorgPartition: 1,
		Window:         100 * time.Millisecond,
		Warmup:         300 * time.Millisecond,
		LeadWindows:    5,
		DrainWindows:   3,
		Trace:          true,
		Verify:         true,
	}
	if sc.Name == "quick" {
		cfg.Params.NumPartitions = 4
		cfg.Params.ObjectsPerPartition = 510
		// A lighter MPL keeps the quick pair inside a CI smoke budget:
		// the reorganization spends far less time queued behind walker
		// locks, and the series still shows the on/off contrast.
		cfg.Params.MPL = 10
	} else {
		cfg.LeadWindows = 10
		cfg.DrainWindows = 5
	}
	return cfg
}

// interferenceRun is one sampled run.
type interferenceRun struct {
	series InterferenceSeries
	reorg  *reorg.Stats
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

// runInterferenceCell runs the workload and samples it. With reorgOn,
// the reorganization launches after LeadWindows and sampling continues
// until it completes, plus DrainWindows. With reorgOn false, exactly
// totalWindows are sampled (pass the ON run's count to pair the series).
func runInterferenceCell(cfg InterferenceConfig, reorgOn bool, totalWindows int) (*interferenceRun, error) {
	w, err := workload.Build(cfg.DB, cfg.Params)
	if err != nil {
		return nil, fmt.Errorf("interference: build workload: %w", err)
	}
	defer w.DB.Close()

	rec := metrics.NewRecorder()
	driver := workload.NewDriver(w, rec)
	driver.Start()
	time.Sleep(cfg.Warmup)
	base := time.Now()

	run := &interferenceRun{series: InterferenceSeries{Label: "reorg-off"}}
	var reorgErr error
	if reorgOn {
		run.series.Label = "reorg-on"
		for i := 0; i < cfg.LeadWindows; i++ {
			run.series.Points = append(run.series.Points, sampleWindow(rec, cfg.Window, base, false))
		}
		r := reorg.New(w.DB, cfg.ReorgPartition, reorg.Options{
			Mode: cfg.Mode,
			PerObjectWork: func() {
				w.BurnCPU(cfg.Params.ReorgCPUPerObject)
			},
		})
		done := make(chan struct{})
		go func() {
			defer close(done)
			reorgErr = r.Run()
		}()
	sampling:
		for {
			run.series.Points = append(run.series.Points, sampleWindow(rec, cfg.Window, base, true))
			select {
			case <-done:
				break sampling
			default:
			}
		}
		st := r.Stats()
		run.reorg = &st
		run.series.ReorgMs = ms(st.Duration())
		run.series.Migrated = st.Migrated
		for i := 0; i < cfg.DrainWindows; i++ {
			run.series.Points = append(run.series.Points, sampleWindow(rec, cfg.Window, base, false))
		}
	} else {
		for i := 0; i < totalWindows; i++ {
			run.series.Points = append(run.series.Points, sampleWindow(rec, cfg.Window, base, false))
		}
	}
	driver.Stop()
	if reorgErr != nil {
		return nil, fmt.Errorf("interference: reorganization: %w", reorgErr)
	}

	if cfg.Verify {
		rep, err := check.Verify(w.DB, w.Roots())
		if err != nil {
			return nil, err
		}
		if err := rep.Err(); err != nil {
			return nil, fmt.Errorf("interference: post-run consistency: %w", err)
		}
	}
	return run, nil
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

// InterferenceBench is the persisted shape of BENCH_interference.json:
// one monitored trajectory per execution mode.
type InterferenceBench struct {
	Timestamp    string                `json:"timestamp"`
	Scale        string                `json:"scale"`
	GOMAXPROCS   int                   `json:"gomaxprocs"`
	NumCPU       int                   `json:"num_cpu"`
	Trajectories []*InterferenceReport `json:"trajectories"`
}

// RunInterference runs the paired interference cells at the Scale's
// default configuration once per execution mode, prints a summary to w
// and writes the JSON report to outPath ("" skips the file).
func RunInterference(w io.Writer, sc Scale, outPath string) error {
	bench := &InterferenceBench{
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		Scale:      sc.Name,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	for _, mode := range sc.modes() {
		cfg := DefaultInterferenceConfig(sc)
		env := applyMode(mode, &cfg.Params, &cfg.DB)
		fmt.Fprintf(w, "=== %s mode (cpu_tokens=%d, group_commit=%v, reader_shards=%d)\n",
			mode, env.CPUTokens, env.GroupCommit, env.ReaderShards)
		rep, err := runInterference(w, cfg, sc.Name, env)
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
			return fmt.Errorf("interference: write report: %w", err)
		}
		fmt.Fprintf(w, "\nreport written to %s\n", outPath)
	}
	return nil
}

// runInterference monitors one trajectory with an explicit
// configuration, so tests can monitor a small cell.
func runInterference(w io.Writer, cfg InterferenceConfig, scaleName string, env BenchEnv) (*InterferenceReport, error) {
	rep := &InterferenceReport{
		Timestamp:    time.Now().UTC().Format(time.RFC3339),
		Scale:        scaleName,
		System:       cfg.Mode.String(),
		Env:          env,
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		MPL:          cfg.Params.MPL,
		Partitions:   cfg.Params.NumPartitions,
		Objects:      cfg.Params.ObjectsPerPartition,
		Seed:         cfg.Params.Seed,
		WindowMs:     ms(cfg.Window),
		WarmupMs:     ms(cfg.Warmup),
		LeadWindows:  cfg.LeadWindows,
		DrainWindows: cfg.DrainWindows,
	}

	fmt.Fprintf(w, "interference monitor: %s, %d×%d objects, MPL %d, %s windows\n",
		cfg.Mode, cfg.Params.NumPartitions, cfg.Params.ObjectsPerPartition,
		cfg.Params.MPL, cfg.Window)

	// ON run, traced. The tracer covers only this run so the step spans
	// and hot-path histograms describe exactly the monitored window.
	var tracer *obs.Tracer
	if cfg.Trace {
		tracer = obs.NewTracer()
		restore := obs.Install(tracer)
		defer restore()
	}
	on, err := runInterferenceCell(cfg, true, 0)
	if cfg.Trace {
		obs.Install(nil)
	}
	if err != nil {
		return nil, err
	}
	rep.On = on.series
	fmt.Fprintf(w, "reorg-on : %d windows, reorganization %.0f ms, %d objects migrated\n",
		len(on.series.Points), on.series.ReorgMs, on.series.Migrated)

	// OFF run: identical seed and build, no reorganization, same number
	// of windows.
	off, err := runInterferenceCell(cfg, false, len(on.series.Points))
	if err != nil {
		return nil, err
	}
	rep.Off = off.series

	if tracer != nil {
		for _, ss := range tracer.Steps() {
			rep.Steps = append(rep.Steps, ReorgStepDigest{
				Step:        ss.Step,
				Count:       ss.Count,
				Errs:        ss.Errs,
				LockWaitMs:  ms(ss.LockWait),
				LatchWaitMs: ms(ss.LatchWait),
				CPUWaitMs:   ms(ss.CPUWait),
				Span:        ss.Hist.Digest(),
			})
		}
		rep.Metrics = make(map[string]obs.HistDigest)
		for m := obs.Metric(0); m < obs.NumMetrics; m++ {
			rep.Metrics[m.String()] = tracer.Hist(m).Digest()
		}
	}

	// Headline pairing: reorg-active ON windows vs the same indices OFF.
	var active []int
	for i, p := range rep.On.Points {
		if p.ReorgActive && i < len(rep.Off.Points) {
			active = append(active, i)
		}
	}
	tput := func(p InterferencePoint) float64 { return p.Throughput }
	p99 := func(p InterferencePoint) float64 { return p.P99Ms }
	rep.OnMeanTput = meanOver(rep.On.Points, active, tput)
	rep.OffMeanTput = meanOver(rep.Off.Points, active, tput)
	rep.OnMeanP99Ms = meanOver(rep.On.Points, active, p99)
	rep.OffMeanP99Ms = meanOver(rep.Off.Points, active, p99)
	if rep.OffMeanTput > 0 {
		rep.TputInterferencePct = 100 * (1 - rep.OnMeanTput/rep.OffMeanTput)
	}

	fmt.Fprintf(w, "reorg-off: %d windows\n\n", len(off.series.Points))
	fmt.Fprintf(w, "%-22s %12s %12s\n", "", "reorg-off", "reorg-on")
	fmt.Fprintf(w, "%-22s %12.1f %12.1f\n", "mean tput (tps)", rep.OffMeanTput, rep.OnMeanTput)
	fmt.Fprintf(w, "%-22s %12.1f %12.1f\n", "mean p99 (ms)", rep.OffMeanP99Ms, rep.OnMeanP99Ms)
	fmt.Fprintf(w, "throughput interference: %.1f%% over %d reorg-active windows\n",
		rep.TputInterferencePct, len(active))
	if len(rep.Steps) > 0 {
		fmt.Fprintf(w, "\n%-24s %8s %6s %12s %12s %12s %10s\n",
			"step", "count", "errs", "lockwait(ms)", "latch(ms)", "cpu(ms)", "p99(µs)")
		for _, s := range rep.Steps {
			fmt.Fprintf(w, "%-24s %8d %6d %12.1f %12.1f %12.1f %10.0f\n",
				s.Step, s.Count, s.Errs, s.LockWaitMs, s.LatchWaitMs, s.CPUWaitMs, s.Span.P99Us)
		}
	}
	fmt.Fprintln(w)
	return rep, nil
}
