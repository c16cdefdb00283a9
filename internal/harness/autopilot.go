package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/autopilot"
	"repro/internal/check"
	"repro/internal/db"
	"repro/internal/hwmode"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/oid"
	"repro/internal/reorg"
	"repro/internal/workload"
)

// This file is the autopilot benchmark: the closed-loop experiment the
// paper's operator-driven evaluation stops short of. A churn pass
// scatters one partition's objects (destroying the clustering the
// builder laid down), the workload runs, and the autopilot — statistics
// collector, selection policy, AIMD pacer — must notice the declustered
// partition, reorganize it under an interference budget, and restore the
// clustering. The report records both halves of the claim: the
// declustering score's recovery curve and the foreground p99 relative to
// the in-run baseline. Written as BENCH_autopilot.json
// (reorgbench -bench autopilot) so successive commits can be compared.

// AutopilotPoint is one sampling window of the monitored run, extended
// with the pacer's state at the window boundary.
type AutopilotPoint struct {
	InterferencePoint
	// RateTokensPerSec is the admission rate after this window's AIMD
	// decision; Event is the decision (probe/hold/backoff/fixed).
	RateTokensPerSec float64 `json:"rate_tokens_per_sec"`
	Event            string  `json:"event"`
}

// AutopilotReport is the persisted shape of one autopilot trajectory
// (one hardware/fidelity mode); AutopilotBench is the on-disk wrapper
// that carries one trajectory per mode.
type AutopilotReport struct {
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
	Policy       string   `json:"policy"`
	BudgetPct    float64  `json:"budget_pct"`

	// Clustering-recovery curve: the churned partition's exact
	// declustering score fresh (just built), after the churn pass, and
	// after the autopilot pass. RecoveryPct is how much of the
	// churn-induced decay the pass undid (100 = fully back to fresh);
	// RecoveredWithin10Pct is the acceptance criterion — recovered score
	// within 10% of the fresh value, measured against the decay span.
	ChurnedPartition     int     `json:"churned_partition"`
	FreshScore           float64 `json:"fresh_score"`
	FreshLocality        float64 `json:"fresh_locality"`
	ChurnedScore         float64 `json:"churned_score"`
	ChurnedLocality      float64 `json:"churned_locality"`
	RecoveredScore       float64 `json:"recovered_score"`
	RecoveredLocality    float64 `json:"recovered_locality"`
	RecoveryPct          float64 `json:"recovery_pct"`
	RecoveredWithin10Pct bool    `json:"recovered_within_10pct"`

	// Interference-budget adherence. The criterion compares phase-level
	// p99s: all lead-window response samples merged into one histogram
	// (the baseline) against all reorg-active samples merged into another.
	// A single 100 ms window's p99 is the worst of ~100 commits, so any
	// one deadlock-timeout victim — IRA's inherent, paper-sanctioned
	// conflict resolution — saturates it; the phase-level tail is what the
	// budget can meaningfully govern. The per-window p99s still drive the
	// AIMD loop (that is the feedback signal) and are in Points.
	BaselineP99Ms   float64 `json:"baseline_p99_ms"`
	ActiveP99Ms     float64 `json:"active_p99_ms"`
	P99InflationPct float64 `json:"p99_inflation_pct"`
	WithinBudget    bool    `json:"within_budget"`

	Migrated int                        `json:"migrated"`
	PassMs   float64                    `json:"pass_ms"`
	Selected []oid.PartitionID          `json:"selected"`
	Scores   []autopilot.PartitionScore `json:"scores"`
	Pacer    autopilot.PacerSnapshot    `json:"pacer"`
	Points   []AutopilotPoint           `json:"points"`

	// CountersExact records that the incremental statistics counters
	// matched an exact scan after the run (enforced; a drift fails the
	// benchmark).
	CountersExact bool `json:"counters_exact"`
}

// AutopilotConfig describes one autopilot benchmark run.
type AutopilotConfig struct {
	Params workload.Params
	DB     db.Config
	// Policy selects the partition-selection policy (default greedy).
	Policy autopilot.PolicyKind
	// Pacer configures the AIMD controller; its Budget is the
	// interference criterion the report is judged against.
	Pacer autopilot.PacerConfig
	// ChurnedPartition is the partition the churn pass scatters
	// (default 1).
	ChurnedPartition oid.PartitionID
	// Window, Warmup, LeadWindows, DrainWindows mirror the interference
	// monitor's sampling shape.
	Window       time.Duration
	Warmup       time.Duration
	LeadWindows  int
	DrainWindows int
	// Verify runs the consistency checker after the run.
	Verify bool
}

// DefaultAutopilotConfig sizes the benchmark for a Scale.
func DefaultAutopilotConfig(sc Scale) AutopilotConfig {
	cfg := AutopilotConfig{
		Params:           sc.Params,
		DB:               db.DefaultConfig(),
		Policy:           autopilot.PolicyGreedy,
		Pacer:            autopilot.DefaultPacerConfig(),
		ChurnedPartition: 1,
		Window:           100 * time.Millisecond,
		Warmup:           300 * time.Millisecond,
		LeadWindows:      5,
		DrainWindows:     3,
		Verify:           true,
	}
	if sc.Name == "quick" {
		cfg.Params.NumPartitions = 4
		cfg.Params.ObjectsPerPartition = 510
		cfg.Params.MPL = 10
	} else {
		cfg.LeadWindows = 10
		cfg.DrainWindows = 5
	}
	return cfg
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

// runAutopilotSmoke is the experiment-registry cell: a deliberately tiny
// closed-loop run (about two seconds at quick scale) that exercises the
// whole churn→detect→repair path so `reorgbench -exp all -quick` — and
// CI — cover the autopilot without the full benchmark's runtime. It
// writes no report file; the full run is `reorgbench -bench autopilot`.
func runAutopilotSmoke(w io.Writer, sc Scale) error {
	cfg := DefaultAutopilotConfig(sc)
	if sc.Name == "quick" {
		// Keep the partition count — a narrower database concentrates
		// every walker on the partition under reorganization and the cell
		// degenerates into a deadlock storm — and shrink the objects and
		// MPL instead.
		cfg.Params.ObjectsPerPartition = 255
		cfg.Params.MPL = 4
		cfg.LeadWindows = 3
		cfg.DrainWindows = 2
		// The smoke cell trades budget fidelity for runtime: a faster
		// floor finishes the tiny pass in a couple of seconds.
		cfg.Pacer.InitialRate = 400
		cfg.Pacer.MinRate = 200
	}
	// The smoke cell runs a single trajectory in whatever mode the
	// environment selects, so the REORG_MODE=hardware CI lane exercises
	// the bypassed-token path here too.
	env := applyMode(hwmode.Env(), &cfg.Params, &cfg.DB)
	_, err := runAutopilot(w, cfg, sc.Name, env)
	return err
}

// AutopilotBench is the persisted BENCH_autopilot.json shape: one
// closed-loop trajectory per execution mode over the same cell.
type AutopilotBench struct {
	Timestamp    string             `json:"timestamp"`
	Scale        string             `json:"scale"`
	GOMAXPROCS   int                `json:"gomaxprocs"`
	NumCPU       int                `json:"num_cpu"`
	Trajectories []*AutopilotReport `json:"trajectories"`
}

// RunAutopilot runs the autopilot benchmark at the Scale's default
// configuration once per requested execution mode, prints a summary to
// w and writes the JSON report to outPath ("" skips the file).
func RunAutopilot(w io.Writer, sc Scale, outPath string) error {
	bench := &AutopilotBench{
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		Scale:      sc.Name,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	for _, mode := range sc.modes() {
		cfg := DefaultAutopilotConfig(sc)
		env := applyMode(mode, &cfg.Params, &cfg.DB)
		fmt.Fprintf(w, "=== autopilot trajectory: %s mode (cpu tokens %d, group commit %v) ===\n",
			env.Mode, env.CPUTokens, env.GroupCommit)
		rep, err := runAutopilot(w, cfg, sc.Name, env)
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
			return fmt.Errorf("autopilot: write report: %w", err)
		}
		fmt.Fprintf(w, "report written to %s\n", outPath)
	}
	return nil
}

// runAutopilot runs one trajectory with an explicit configuration, so
// tests can run a small cell; env is recorded in the report verbatim
// (applyMode has already folded it into cfg).
func runAutopilot(w io.Writer, cfg AutopilotConfig, scaleName string, env BenchEnv) (*AutopilotReport, error) {
	if cfg.ChurnedPartition == 0 {
		cfg.ChurnedPartition = 1
	}
	wl, err := workload.Build(cfg.DB, cfg.Params)
	if err != nil {
		return nil, fmt.Errorf("autopilot: build workload: %w", err)
	}
	defer wl.DB.Close()

	// Manage the data partitions only; the root table in partition 0 has
	// no clustering to maintain.
	parts := make([]oid.PartitionID, 0, cfg.Params.NumPartitions)
	for i := 1; i <= cfg.Params.NumPartitions; i++ {
		parts = append(parts, oid.PartitionID(i))
	}
	ap, err := autopilot.New(wl.DB, autopilot.Config{
		Partitions: parts,
		Policy:     cfg.Policy,
		MaxPerPass: 1,
		Seed:       uint64(cfg.Params.Seed),
		Pacer:      cfg.Pacer,
		Reorg: reorg.Options{
			PerObjectWork: func() { wl.BurnCPU(cfg.Params.ReorgCPUPerObject) },
		},
	})
	if err != nil {
		return nil, err
	}
	restore := autopilot.Install(ap)
	defer restore()

	rep := &AutopilotReport{
		Timestamp:        time.Now().UTC().Format(time.RFC3339),
		Scale:            scaleName,
		System:           "autopilot/" + cfg.Policy.String(),
		Env:              env,
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		MPL:              cfg.Params.MPL,
		Partitions:       cfg.Params.NumPartitions,
		Objects:          cfg.Params.ObjectsPerPartition,
		Seed:             cfg.Params.Seed,
		WindowMs:         ms(cfg.Window),
		WarmupMs:         ms(cfg.Warmup),
		LeadWindows:      cfg.LeadWindows,
		DrainWindows:     cfg.DrainWindows,
		Policy:           cfg.Policy.String(),
		BudgetPct:        100 * cfg.Pacer.Budget,
		ChurnedPartition: int(cfg.ChurnedPartition),
	}

	// Fresh score, then scatter the partition and score it again — the
	// span between the two is the decay the autopilot must repair.
	freshScore, freshEx, err := ap.ExactScore(cfg.ChurnedPartition)
	if err != nil {
		return nil, err
	}
	rep.FreshScore = freshScore
	rep.FreshLocality = freshEx.Locality
	if _, err := shuffleChurn(wl.DB, cfg.ChurnedPartition, cfg.Params.Seed+7); err != nil {
		return nil, fmt.Errorf("autopilot: churn pass: %w", err)
	}
	churnedScore, churnedEx, err := ap.ExactScore(cfg.ChurnedPartition)
	if err != nil {
		return nil, err
	}
	rep.ChurnedScore = churnedScore
	rep.ChurnedLocality = churnedEx.Locality

	fmt.Fprintf(w, "autopilot benchmark: %s policy, %d×%d objects, MPL %d, budget %.0f%% p99\n",
		cfg.Policy, cfg.Params.NumPartitions, cfg.Params.ObjectsPerPartition,
		cfg.Params.MPL, 100*cfg.Pacer.Budget)
	fmt.Fprintf(w, "partition %d declustering score: fresh %.3f → churned %.3f (locality %.3f → %.3f)\n",
		cfg.ChurnedPartition, freshScore, churnedScore, freshEx.Locality, churnedEx.Locality)

	rec := metrics.NewRecorder()
	driver := workload.NewDriver(wl, rec)
	driver.Start()
	time.Sleep(cfg.Warmup)
	base := time.Now()

	// The AIMD loop is fed a rolling phase-level p99 — the last
	// rollingWindows window histograms merged — rather than the single
	// window's p99: one window's p99 is the worst of ~100 commits, so it
	// swings between "clean" and "deadlock spike" and the controller
	// would chase noise. The rolling tail is the same statistic the
	// budget criterion uses, so the controller converges on the rate
	// that actually meets it. The ring is pre-seeded by the lead windows.
	const rollingWindows = 10
	ring := make([]obs.HistSnapshot, 0, rollingWindows)
	pushRolling := func(h obs.HistSnapshot) obs.HistSnapshot {
		ring = append(ring, h)
		if len(ring) > rollingWindows {
			ring = ring[1:]
		}
		var roll obs.HistSnapshot
		for _, wh := range ring {
			roll.Merge(wh)
		}
		return roll
	}

	// Lead windows establish the in-run baseline the budget is measured
	// against: their samples merge into one phase-level histogram.
	var baseHist obs.HistSnapshot
	for i := 0; i < cfg.LeadWindows; i++ {
		pt, sum := sampleWindowSummary(rec, cfg.Window, base, false)
		rep.Points = append(rep.Points, AutopilotPoint{InterferencePoint: pt, RateTokensPerSec: ap.Pacer().Rate(), Event: "lead"})
		baseHist.Merge(sum.Hist)
		pushRolling(sum.Hist)
	}
	baselineP99 := baseHist.Quantile(0.99)
	ap.SetBaseline(baselineP99)
	rep.BaselineP99Ms = ms(baselineP99)

	type passOutcome struct {
		rep *autopilot.PassReport
		err error
	}
	passCh := make(chan passOutcome, 1)
	go func() {
		pr, perr := ap.RunPass()
		passCh <- passOutcome{pr, perr}
	}()
	var pass passOutcome
	var activeHist obs.HistSnapshot
sampling:
	for {
		pt, sum := sampleWindowSummary(rec, cfg.Window, base, true)
		activeHist.Merge(sum.Hist)
		ev := ap.Pacer().Observe(pushRolling(sum.Hist).Quantile(0.99))
		rep.Points = append(rep.Points, AutopilotPoint{InterferencePoint: pt, RateTokensPerSec: ap.Pacer().Rate(), Event: ev.String()})
		select {
		case pass = <-passCh:
			break sampling
		default:
		}
	}
	for i := 0; i < cfg.DrainWindows; i++ {
		pt := sampleWindow(rec, cfg.Window, base, false)
		rep.Points = append(rep.Points, AutopilotPoint{InterferencePoint: pt, RateTokensPerSec: ap.Pacer().Rate(), Event: "drain"})
	}
	driver.Stop()
	if pass.err != nil {
		return nil, fmt.Errorf("autopilot: pass: %w", pass.err)
	}
	rep.Migrated = pass.rep.Migrated
	rep.PassMs = ms(pass.rep.Duration)
	rep.Selected = pass.rep.Selected
	rep.Scores = pass.rep.Scores
	rep.Pacer = ap.Pacer().Snapshot()

	if cfg.Verify {
		crep, err := check.Verify(wl.DB, wl.Roots())
		if err != nil {
			return nil, err
		}
		if err := crep.Err(); err != nil {
			return nil, fmt.Errorf("autopilot: post-run consistency: %w", err)
		}
	}
	// The database is quiescent now; the incremental counters must agree
	// with an exact scan across every managed partition.
	if err := ap.VerifyCounters(); err != nil {
		return nil, err
	}
	rep.CountersExact = true

	recoveredScore, recoveredEx, err := ap.ExactScore(cfg.ChurnedPartition)
	if err != nil {
		return nil, err
	}
	rep.RecoveredScore = recoveredScore
	rep.RecoveredLocality = recoveredEx.Locality
	decay := churnedScore - freshScore
	if decay > 0 {
		rep.RecoveryPct = 100 * (churnedScore - recoveredScore) / decay
		rep.RecoveredWithin10Pct = recoveredScore <= freshScore+0.1*decay
	} else {
		// The churn pass failed to decluster (degenerate tiny cells):
		// recovery is vacuously complete.
		rep.RecoveryPct = 100
		rep.RecoveredWithin10Pct = true
	}

	rep.ActiveP99Ms = ms(activeHist.Quantile(0.99))
	if rep.BaselineP99Ms > 0 {
		rep.P99InflationPct = 100 * (rep.ActiveP99Ms/rep.BaselineP99Ms - 1)
	}
	rep.WithinBudget = rep.P99InflationPct <= 100*cfg.Pacer.Budget

	fmt.Fprintf(w, "pass: selected %v, migrated %d objects in %.0f ms\n",
		rep.Selected, rep.Migrated, rep.PassMs)
	fmt.Fprintf(w, "recovered score %.3f (locality %.3f): %.0f%% of decay repaired, within 10%% of fresh: %v\n",
		rep.RecoveredScore, rep.RecoveredLocality, rep.RecoveryPct, rep.RecoveredWithin10Pct)
	fmt.Fprintf(w, "p99: baseline %.2f ms, reorg-active %.2f ms, inflation %.1f%% (budget %.0f%%, within: %v)\n",
		rep.BaselineP99Ms, rep.ActiveP99Ms, rep.P99InflationPct, rep.BudgetPct, rep.WithinBudget)
	fmt.Fprintf(w, "pacer: %.0f → %.0f tokens/s, %d backoffs, %d probes over %d windows\n",
		cfg.Pacer.InitialRate, rep.Pacer.RateTokensPerSec, rep.Pacer.Backoffs, rep.Pacer.Probes, rep.Pacer.Observed)
	return rep, nil
}
