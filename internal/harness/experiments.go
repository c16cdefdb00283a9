package harness

import (
	"fmt"
	"io"
	"time"

	"repro/internal/workload"
)

// Scale sets the size of an experiment run, and of the bufferpool,
// queryscan and oidmode benches, which size their cells from Params and
// Name. Quick preserves every shape the paper reports at a fraction of
// the runtime; Full uses the paper's exact workload parameters (Table 1).
type Scale struct {
	Name            string
	Params          workload.Params
	NRDuration      time.Duration
	MPLs            []int
	PartitionSizes  []int
	UpdateProbs     []float64
	GlueFactors     []float64
	PathLens        []int
	PartitionCounts []int
	// WorkerCounts is the scheduler pool-size sweep of the parallel
	// reorganization experiment (`preorg`).
	WorkerCounts []int
	// Modes lists the execution modes every bench harness sweeps; empty
	// means both (fidelity first). The cmds' -mode flag narrows it.
	Modes []Mode
}

// QuickScale is sized so the full experiment suite completes in minutes.
func QuickScale() Scale {
	p := workload.DefaultParams()
	p.ObjectsPerPartition = 1020
	return Scale{
		Name:            "quick",
		Params:          p,
		NRDuration:      2 * time.Second,
		MPLs:            []int{1, 2, 5, 10, 20, 30},
		PartitionSizes:  []int{510, 1020, 2040, 4080},
		UpdateProbs:     []float64{0, 0.25, 0.5, 0.75, 1},
		GlueFactors:     []float64{0, 0.05, 0.2, 0.5},
		PathLens:        []int{2, 8, 16},
		PartitionCounts: []int{5, 10, 20},
		WorkerCounts:    []int{1, 2, 4, 8},
	}
}

// FullScale reproduces the paper's exact parameter ranges.
func FullScale() Scale {
	return Scale{
		Name:            "full",
		Params:          workload.DefaultParams(), // Table 1 defaults
		NRDuration:      5 * time.Second,
		MPLs:            []int{1, 2, 5, 10, 15, 20, 30, 45, 60},
		PartitionSizes:  []int{1020, 2040, 4080, 6120, 8160},
		UpdateProbs:     []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1},
		GlueFactors:     []float64{0, 0.02, 0.05, 0.1, 0.2, 0.5},
		PathLens:        []int{2, 4, 8, 16, 32},
		PartitionCounts: []int{2, 5, 10, 20},
		WorkerCounts:    []int{1, 2, 4, 8, 16},
	}
}

// Experiment regenerates one table or figure of the paper.
type Experiment struct {
	ID    string
	Title string
	Run   func(w io.Writer, sc Scale) error
}

// All returns the experiment registry in paper order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Table 1: workload parameter defaults", runTable1},
		{"fig6", "Figure 6: MPL scaleup — throughput", func(w io.Writer, sc Scale) error { return runMPL(w, sc, true, false) }},
		{"fig7", "Figure 7: MPL scaleup — average response time", func(w io.Writer, sc Scale) error { return runMPL(w, sc, false, true) }},
		{"table2", "Table 2: response time analysis at MPL 30", runTable2},
		{"fig8", "Figure 8: partition size scaleup — throughput", func(w io.Writer, sc Scale) error { return runPartitionSize(w, sc, true, false) }},
		{"fig9", "Figure 9: partition size scaleup — average response time", func(w io.Writer, sc Scale) error { return runPartitionSize(w, sc, false, true) }},
		{"fig10", "Figure 10: update probability — throughput", func(w io.Writer, sc Scale) error { return runUpdateProb(w, sc, true, false) }},
		{"fig11", "Figure 11: update probability — average response time", func(w io.Writer, sc Scale) error { return runUpdateProb(w, sc, false, true) }},
		{"mpl", "Figures 6+7 combined: MPL sweep, both metrics", func(w io.Writer, sc Scale) error { return runMPL(w, sc, true, true) }},
		{"psize", "Figures 8+9 combined: partition size sweep, both metrics", func(w io.Writer, sc Scale) error { return runPartitionSize(w, sc, true, true) }},
		{"uprob", "Figures 10+11 combined: update probability sweep, both metrics", func(w io.Writer, sc Scale) error { return runUpdateProb(w, sc, true, true) }},
		{"glue", "§5.3.4: glue factor sweep", runGlue},
		{"pathlen", "§5.3.4: transaction path length sweep", runPathLen},
		{"partitions", "§5.3.4: number of partitions sweep", runPartitions},
		{"equal-duration", "§5.3.4: PQR measured over IRA's duration", runEqualDuration},
		{"preorg", "parallel reorganization: scheduler worker-count sweep", runParallelReorg},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// cell runs one (system, params) measurement.
func cell(sc Scale, sys System, mutate func(*Config)) (*Result, error) {
	cfg := DefaultConfig(sys)
	cfg.Params = sc.Params
	cfg.NRDuration = sc.NRDuration
	if mutate != nil {
		mutate(&cfg)
	}
	return Run(cfg)
}

// triple runs NR, IRA and PQR on the same configuration.
func triple(sc Scale, mutate func(*Config)) (nr, ira, pqr *Result, err error) {
	if nr, err = cell(sc, NR, mutate); err != nil {
		return
	}
	if ira, err = cell(sc, IRA, mutate); err != nil {
		return
	}
	pqr, err = cell(sc, PQR, mutate)
	return
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sweepHeader prints the column header for a sweep table.
func sweepHeader(w io.Writer, xLabel string, tput, art bool) {
	fmt.Fprintf(w, "%-10s", xLabel)
	if tput {
		fmt.Fprintf(w, " %10s %10s %10s", "NR(tps)", "IRA(tps)", "PQR(tps)")
	}
	if art {
		fmt.Fprintf(w, " %10s %10s %10s", "NR(ms)", "IRA(ms)", "PQR(ms)")
	}
	fmt.Fprintln(w)
}

func sweepRow(w io.Writer, x string, nr, ira, pqr *Result, tput, art bool) {
	fmt.Fprintf(w, "%-10s", x)
	if tput {
		fmt.Fprintf(w, " %10.1f %10.1f %10.1f",
			nr.Summary.Throughput, ira.Summary.Throughput, pqr.Summary.Throughput)
	}
	if art {
		fmt.Fprintf(w, " %10.1f %10.1f %10.1f",
			ms(nr.Summary.Mean), ms(ira.Summary.Mean), ms(pqr.Summary.Mean))
	}
	fmt.Fprintln(w)
}

func runTable1(w io.Writer, sc Scale) error {
	p := sc.Params
	fmt.Fprintf(w, "%-16s %-42s %v\n", "Parameter", "Meaning", "Value")
	fmt.Fprintf(w, "%-16s %-42s %d\n", "NUMPARTITIONS", "partitions in the database", p.NumPartitions)
	fmt.Fprintf(w, "%-16s %-42s %d\n", "NUMOBJS", "objects per partition", p.ObjectsPerPartition)
	fmt.Fprintf(w, "%-16s %-42s %d\n", "MPL", "multi programming level", p.MPL)
	fmt.Fprintf(w, "%-16s %-42s %d\n", "OPSPERTRANS", "length of random walk per transaction", p.OpsPerTrans)
	fmt.Fprintf(w, "%-16s %-42s %.2f\n", "UPDATEPROB", "probability of exclusive access", p.UpdateProb)
	fmt.Fprintf(w, "%-16s %-42s %.2f\n", "GLUEFACTOR", "fraction of inter-partition references", p.GlueFactor)
	return nil
}

func runMPL(w io.Writer, sc Scale, tput, art bool) error {
	sweepHeader(w, "MPL", tput, art)
	for _, mpl := range sc.MPLs {
		nr, ira, pqr, err := triple(sc, func(c *Config) { c.Params.MPL = mpl })
		if err != nil {
			return err
		}
		sweepRow(w, fmt.Sprint(mpl), nr, ira, pqr, tput, art)
	}
	return nil
}

func runTable2(w io.Writer, sc Scale) error {
	// Table 2 is defined at the paper's Table 1 defaults; in particular
	// the 4080-object partition, whose reorganization is long enough for
	// the response-time tail to be unmistakable. Scales may shrink other
	// sweeps but not this.
	nr, ira, pqr, err := triple(sc, func(c *Config) {
		if c.Params.ObjectsPerPartition < 4080 {
			c.Params.ObjectsPerPartition = 4080
		}
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-6s %12s %14s %14s %16s\n",
		"", "Throughput", "AvgResp(ms)", "MaxResp(ms)", "StdDevResp(ms)")
	for _, r := range []*Result{nr, ira, pqr} {
		fmt.Fprintf(w, "%-6s %12.1f %14.1f %14.1f %16.1f\n",
			r.System, r.Summary.Throughput, ms(r.Summary.Mean), ms(r.Summary.Max), ms(r.Summary.StdDev))
	}
	return nil
}

func runPartitionSize(w io.Writer, sc Scale, tput, art bool) error {
	sweepHeader(w, "PartSize", tput, art)
	for _, n := range sc.PartitionSizes {
		nr, ira, pqr, err := triple(sc, func(c *Config) { c.Params.ObjectsPerPartition = n })
		if err != nil {
			return err
		}
		sweepRow(w, fmt.Sprint(n), nr, ira, pqr, tput, art)
	}
	return nil
}

func runUpdateProb(w io.Writer, sc Scale, tput, art bool) error {
	sweepHeader(w, "UpdProb", tput, art)
	for _, u := range sc.UpdateProbs {
		nr, ira, pqr, err := triple(sc, func(c *Config) { c.Params.UpdateProb = u })
		if err != nil {
			return err
		}
		sweepRow(w, fmt.Sprintf("%.2f", u), nr, ira, pqr, tput, art)
	}
	return nil
}

func runGlue(w io.Writer, sc Scale) error {
	sweepHeader(w, "GlueFac", true, true)
	for _, g := range sc.GlueFactors {
		nr, ira, pqr, err := triple(sc, func(c *Config) { c.Params.GlueFactor = g })
		if err != nil {
			return err
		}
		sweepRow(w, fmt.Sprintf("%.2f", g), nr, ira, pqr, true, true)
	}
	return nil
}

func runPathLen(w io.Writer, sc Scale) error {
	sweepHeader(w, "PathLen", true, true)
	for _, n := range sc.PathLens {
		nr, ira, pqr, err := triple(sc, func(c *Config) { c.Params.OpsPerTrans = n })
		if err != nil {
			return err
		}
		sweepRow(w, fmt.Sprint(n), nr, ira, pqr, true, true)
	}
	return nil
}

func runPartitions(w io.Writer, sc Scale) error {
	sweepHeader(w, "Parts", true, true)
	for _, n := range sc.PartitionCounts {
		nr, ira, pqr, err := triple(sc, func(c *Config) { c.Params.NumPartitions = n })
		if err != nil {
			return err
		}
		sweepRow(w, fmt.Sprint(n), nr, ira, pqr, true, true)
	}
	return nil
}

// runEqualDuration measures PQR over a window as long as IRA's whole
// reorganization (§5.3.4): after PQR finishes — it always finishes first
// — the workload keeps running at full speed until the window closes. The
// paper found the throughput difference "never exceeded 3%".
func runEqualDuration(w io.Writer, sc Scale) error {
	ira, err := cell(sc, IRA, nil)
	if err != nil {
		return err
	}
	window := ira.Summary.Window
	pqr, err := cell(sc, PQR, func(c *Config) { c.Window = window })
	if err != nil {
		return err
	}
	gap := 0.0
	if ira.Summary.Throughput > 0 {
		gap = 100 * (ira.Summary.Throughput - pqr.Summary.Throughput) / ira.Summary.Throughput
	}
	fmt.Fprintf(w, "window=%s (IRA reorganization duration)\n", window.Round(time.Millisecond))
	fmt.Fprintf(w, "%-6s %12s %14s\n", "", "Throughput", "AvgResp(ms)")
	fmt.Fprintf(w, "%-6s %12.1f %14.1f\n", "IRA", ira.Summary.Throughput, ms(ira.Summary.Mean))
	fmt.Fprintf(w, "%-6s %12.1f %14.1f\n", "PQR", pqr.Summary.Throughput, ms(pqr.Summary.Mean))
	fmt.Fprintf(w, "throughput gap: %.1f%%\n", gap)
	return nil
}
