// Command reorgbench regenerates the paper's evaluation (§5): every
// figure and table comparing NR (no reorganization), IRA, and PQR.
//
// Usage:
//
//	reorgbench -list
//	reorgbench -exp fig6                # one experiment, quick scale
//	reorgbench -exp all -scale full     # the whole evaluation, paper scale
//	reorgbench -bench torture           # crash-recovery torture sweep → BENCH_torture.json
//	reorgbench -bench bufferpool        # scan fault rate before/after clustering → BENCH_bufferpool.json
//	reorgbench -bench queryscan         # operator-pipeline traversal vs clustering + scan interference → BENCH_queryscan.json
//	reorgbench -bench oidmode           # physical vs logical-OID paired migration cells → BENCH_oidmode.json
//	reorgbench -bench oidmode -mode hardware     # one trajectory only (fidelity, hardware, or both)
//	reorgbench -http :6060 -exp fig6    # expose expvar + pprof while running
//
// Quick scale preserves the paper's shapes (who wins, by what factor,
// where curves peak) in minutes; full scale uses the exact Table 1
// parameters and takes correspondingly longer.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
)

func main() {
	var (
		expID    = flag.String("exp", "", "experiment id (see -list), or 'all'")
		scale    = flag.String("scale", "quick", "experiment scale: quick or full")
		quick    = flag.Bool("quick", false, "shorthand for -scale quick")
		list     = flag.Bool("list", false, "list available experiments")
		seed     = flag.Int64("seed", 1, "workload random seed")
		verbose  = flag.Bool("v", false, "print per-experiment timing")
		bench    = flag.String("bench", "", "benchmark id: torture, bufferpool, queryscan, oidmode")
		benchout = flag.String("benchout", "", "JSON report path for -bench (default BENCH_<id>.json)")
		mode     = flag.String("mode", "both", "execution mode for -bench trajectories: fidelity, hardware, or both")
		httpAddr = flag.String("http", "", "serve expvar + pprof on this address (e.g. :6060)")
	)
	flag.Parse()
	if *quick {
		*scale = "quick"
	}
	if *httpAddr != "" {
		obs.ServeDebug(*httpAddr)
	}

	if *bench != "" {
		var sc harness.Scale
		switch *scale {
		case "quick":
			sc = harness.QuickScale()
		case "full":
			sc = harness.FullScale()
		default:
			fmt.Fprintf(os.Stderr, "unknown scale %q (quick or full)\n", *scale)
			os.Exit(2)
		}
		sc.Params.Seed = *seed
		modes, err := harness.ParseModes(*mode)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			os.Exit(2)
		}
		sc.Modes = modes
		switch *bench {
		case "torture":
			out := *benchout
			if out == "" {
				out = "BENCH_torture.json"
			}
			// Quick scale covers every crash point a few times; full
			// scale matches the acceptance sweep (17 seeds per point).
			seeds := 3 * len(harness.DefaultTorturePoints())
			if *scale == "full" {
				seeds = 17 * len(harness.DefaultTorturePoints())
			}
			fmt.Printf("== torture — crash-recovery torture sweep (scale: %s, %d seeds) ==\n", sc.Name, seeds)
			start := time.Now()
			if err := harness.RunTortureBench(os.Stdout, harness.TortureSpec{Seeds: seeds, SeedBase: *seed - 1}, out); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark torture failed: %v\n", err)
				os.Exit(1)
			}
			if *verbose {
				fmt.Printf("-- torture completed in %s\n", time.Since(start).Round(time.Millisecond))
			}
		case "bufferpool":
			out := *benchout
			if out == "" {
				out = "BENCH_bufferpool.json"
			}
			fmt.Printf("== bufferpool — scan fault rate before/after clustering (scale: %s) ==\n", sc.Name)
			start := time.Now()
			if err := harness.RunBufferpool(os.Stdout, sc, out); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark bufferpool failed: %v\n", err)
				os.Exit(1)
			}
			if *verbose {
				fmt.Printf("-- bufferpool completed in %s\n", time.Since(start).Round(time.Millisecond))
			}
		case "queryscan":
			out := *benchout
			if out == "" {
				out = "BENCH_queryscan.json"
			}
			fmt.Printf("== queryscan — cold traversal vs clustering + scan-on/off interference (scale: %s) ==\n", sc.Name)
			start := time.Now()
			if err := harness.RunQueryScan(os.Stdout, sc, out); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark queryscan failed: %v\n", err)
				os.Exit(1)
			}
			if *verbose {
				fmt.Printf("-- queryscan completed in %s\n", time.Since(start).Round(time.Millisecond))
			}
		case "oidmode":
			out := *benchout
			if out == "" {
				out = "BENCH_oidmode.json"
			}
			fmt.Printf("== oidmode — physical vs logical-OID paired migration cells (scale: %s) ==\n", sc.Name)
			start := time.Now()
			if err := harness.RunOIDMode(os.Stdout, sc, out); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark oidmode failed: %v\n", err)
				os.Exit(1)
			}
			if *verbose {
				fmt.Printf("-- oidmode completed in %s\n", time.Since(start).Round(time.Millisecond))
			}
		default:
			fmt.Fprintf(os.Stderr, "unknown benchmark %q (torture, bufferpool, queryscan, oidmode)\n", *bench)
			os.Exit(2)
		}
		return
	}

	if *list || *expID == "" {
		fmt.Println("experiments:")
		for _, e := range harness.All() {
			fmt.Printf("  %-16s %s\n", e.ID, e.Title)
		}
		if *expID == "" && !*list {
			fmt.Println("\nrun with -exp <id> or -exp all")
		}
		return
	}

	var sc harness.Scale
	switch *scale {
	case "quick":
		sc = harness.QuickScale()
	case "full":
		sc = harness.FullScale()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (quick or full)\n", *scale)
		os.Exit(2)
	}
	sc.Params.Seed = *seed

	var exps []harness.Experiment
	if *expID == "all" {
		exps = harness.All()
	} else {
		e, ok := harness.ByID(*expID)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; try -list\n", *expID)
			os.Exit(2)
		}
		exps = []harness.Experiment{e}
	}

	for _, e := range exps {
		fmt.Printf("== %s — %s (scale: %s) ==\n", e.ID, e.Title, sc.Name)
		start := time.Now()
		if err := e.Run(os.Stdout, sc); err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		if *verbose {
			fmt.Printf("-- %s completed in %s\n", e.ID, time.Since(start).Round(time.Millisecond))
		}
		fmt.Println()
	}
}
