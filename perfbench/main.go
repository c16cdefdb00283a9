// Command perfbench is the repository's benchmark. One invocation runs
// one named workload from a single process and prints, as the last line
// of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics, measured with no
// timing wrappers in the measured path. With -trace 1 the workload runs
// twice in the same process, untraced and then traced, and the metrics
// are the per-layer ones: latencies timed from the benchmark's own code
// around calls into each module's public functions, counter deltas, and
// trace.overhead_pct, the traced run's txn_p50_us against the untraced
// one's. See README.md for the workloads, their sizes and the map from
// each per-layer metric to the end-to-end metric it should move.
//
// Every run checks the program's output (check.Verify, traversal
// multisets, acknowledged writes after restart). A violation makes
// "correct" false and the exit code 1.
//
//	bash perfbench/run.sh --workload reorg-oltp --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// workloads are the benchmark's named workloads; README.md says why
// each exists.
var workloads = map[string]func(env) (*outcome, error){
	"reorg-oltp": runReorgOLTP,
	"scan-disk":  runScanDisk,
	"wire-write": runWireWrite,
}

// env is what one workload run is given.
type env struct {
	seed    int64
	seconds int
	workdir string
	// traced turns on the timing wrappers and the obs histograms.
	traced bool
}

func main() {
	name := flag.String("workload", "", "workload to run: reorg-oltp, scan-disk or wire-write")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "target length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for segment files (removed afterwards)")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (reorg-oltp, scan-disk, wire-write), -seconds >= 1 and -trace 0|1\n")
		os.Exit(2)
	}
	// The execution-mode variables of the test suite must not change
	// what is measured; every configuration field is also set explicitly.
	for _, v := range []string{"REORG_MODE", "REORG_DISK_BACKED", "REORG_LOGICAL_OID"} {
		os.Unsetenv(v)
	}
	e := env{seed: *seed, seconds: *seconds, workdir: *workdir}

	base, err := run(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	res := result{Correct: len(base.violations) == 0, Attempted: base.ops, Failed: base.opsFailed}
	var traced *outcome
	if *trace == 1 {
		e.traced = true
		if traced, err = run(e); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s (traced): %v\n", *name, err)
			os.Exit(1)
		}
		res.Correct = res.Correct && len(traced.violations) == 0
		res.Attempted += traced.ops
		res.Failed += traced.opsFailed
		res.Metrics = layerMetrics(base, traced)
	} else {
		res.Metrics = endToEnd(base)
	}
	for _, o := range []*outcome{base, traced} {
		if o == nil {
			continue
		}
		for i, v := range o.violations {
			if i == 5 {
				fmt.Fprintf(os.Stderr, "perfbench: %s: ... and %d more violations\n", *name, len(o.violations)-i)
				break
			}
			fmt.Fprintf(os.Stderr, "perfbench: %s: CORRECTNESS VIOLATION: %s\n", *name, v)
		}
	}
	stamp := map[string]any{
		"workload":   *name,
		"seed":       *seed,
		"seconds":    *seconds,
		"trace":      *trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"config":     base.config,
		"specific":   base.specific,
		// Sample counts behind the end-to-end quantiles.
		"txn_committed": base.txn.commits,
		"slices":        len(base.txn.slices),
	}
	printJSON(stamp)
	printJSON(res)
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode output: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// outcome is everything one workload run measured.
type outcome struct {
	config map[string]any // the pinned configuration, stamped into the output
	setups []time.Duration

	// txn is the closed-loop transaction load of the measured window.
	txn loadStats
	// commitRatio is committed transactions over attempted ones.
	commitRatio float64
	// spaceAmp is bytes in allocated data pages over live bytes.
	spaceAmp float64
	// specific holds the end-to-end figures that exist on one workload
	// only (reorg_us_per_obj, scan_*, restart_s), printed on the stamp
	// line; README.md explains why they are not in BENCHMARK.json.
	specific map[string]float64
	// layers holds the per-layer figures of a traced run.
	layers map[string]float64

	// ops and opsFailed are logical operations (a transaction with its
	// resubmissions, one IRA pass, one restart) and those that failed.
	ops, opsFailed int64
	violations     []string
}

func (o *outcome) violate(format string, args ...any) {
	o.violations = append(o.violations, fmt.Sprintf(format, args...))
}

// endToEnd builds the -trace 0 metrics.
func endToEnd(o *outcome) map[string]metric {
	secs := make([]float64, len(o.setups))
	for i, d := range o.setups {
		secs[i] = d.Seconds()
	}
	return map[string]metric{
		"setup_s":      {median(secs), "s"},
		"txn_per_s":    {o.txn.perSecond(), "1/s"},
		"txn_p50_us":   {o.txn.quantileUS(0.50), "us"},
		"txn_p95_us":   {o.txn.quantileUS(0.95), "us"},
		"commit_ratio": {o.commitRatio, "ratio"},
		"space_amp":    {o.spaceAmp, "ratio"},
	}
}

// median of xs (0 for none), interpolating between the middle pair.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}
