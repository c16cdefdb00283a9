// Command reorgck is a stress checker: it builds the §5.2 workload, runs
// concurrent random-walk transactions, reorganizes every data partition
// in turn with the selected algorithm, and then verifies full database
// consistency — referential integrity, ERT exactness, reachable-set and
// payload preservation.
//
// The stress run also keeps -scans analytic traversal workers going
// through the internal/query operator pipeline while the partitions
// migrate: every committed traversal must return exactly the payload
// multiset of a quiescent baseline.
//
// Usage:
//
//	reorgck                       # defaults: IRA, small database, 1 scan worker
//	reorgck -alg twolock -mpl 20 -objects 2040 -rounds 2
//	reorgck -workers 4            # reorganize all partitions concurrently
//	reorgck -scans 0              # disable the analytic traversal workers
//	reorgck -mode hardware        # bypass the CPU token, group-commit WAL
//
// -alg selects the reorganization algorithm (ira, twolock, pqr); -mode
// selects the execution mode (fidelity = paper's capacity-1 CPU token,
// hardware = token bypassed with the multicore WAL/latching paths). The
// mode defaults to $REORG_MODE, falling back to fidelity.
//
// With -torture it instead runs the seeded crash-recovery torture
// sweep (see internal/harness.RunTorture): crash at schedule-chosen
// fault points, recover, resume, verify. A failing run prints a replay
// line naming the exact seed and crash point:
//
//	reorgck -torture -seeds 64
//	reorgck -torture -seeds 1 -seedbase 83 -points reorg/twolock-parents-done
//
// With -serve it builds the workload fixture and serves it over the
// wire protocol until interrupted, draining gracefully on SIGINT:
//
//	reorgck -serve :7070 -http :6060   # server state under the "server" expvar
//
// With -netchaos it runs the socket-chaos cell: wire clients increment
// counters while net/conn-drop and net/stall faults fire under a live
// reorganization fleet, then the server drains mid-fleet; the
// committed-prefix oracle, tree signature, and leak sweep must all hold:
//
//	reorgck -netchaos -seed 7
package main

import (
	"errors"
	"expvar"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"flag"

	"repro/internal/check"
	"repro/internal/db"
	"repro/internal/harness"
	"repro/internal/hwmode"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/oid"
	"repro/internal/query"
	"repro/internal/reorg"
	"repro/internal/server"
	"repro/internal/workload"
)

func main() {
	var (
		partitions = flag.Int("partitions", 4, "data partitions")
		objects    = flag.Int("objects", 1020, "objects per partition")
		mpl        = flag.Int("mpl", 10, "concurrent transaction threads")
		algName    = flag.String("alg", "ira", "reorganization algorithm: ira, twolock, pqr")
		hwName     = flag.String("mode", "", "execution mode: fidelity or hardware (default: $REORG_MODE, else fidelity)")
		batch      = flag.Int("batch", 1, "object migrations per transaction (ira)")
		rounds     = flag.Int("rounds", 1, "times to reorganize every partition")
		workers    = flag.Int("workers", 1, "scheduler worker pool size; >1 reorganizes partitions concurrently")
		scans      = flag.Int("scans", 1, "analytic traversal workers querying during the stress run (0 disables)")
		seed       = flag.Int64("seed", 1, "workload seed")
		torture    = flag.Bool("torture", false, "run the crash-recovery torture sweep instead of the stress check")
		seeds      = flag.Int("seeds", 24, "torture: number of seeded runs")
		seedbase   = flag.Int64("seedbase", 0, "torture: first seed")
		points     = flag.String("points", "", "torture: comma-separated crash points to rotate through (default: the full taxonomy)")
		serveAddr  = flag.String("serve", "", "serve the workload fixture over the wire protocol on this address (e.g. :7070)")
		netchaos   = flag.Bool("netchaos", false, "run the socket-chaos cell instead of the stress check")
		chaosDur   = flag.Duration("chaosdur", 0, "netchaos: chaos phase duration (default 2s)")
		httpAddr   = flag.String("http", "", "serve expvar + pprof on this address (e.g. :6060)")
	)
	flag.Parse()
	if *hwName != "" {
		execMode, err := hwmode.Parse(*hwName)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		// Every construction path (workload defaults, db.Open) consults
		// $REORG_MODE, so exporting the parsed flag applies the mode to
		// the stress and torture runs alike.
		os.Setenv("REORG_MODE", string(execMode))
	}
	if *httpAddr != "" {
		obs.ServeDebug(*httpAddr)
	}

	if *torture {
		os.Exit(runTorture(*seeds, *seedbase, *points))
	}
	if *netchaos {
		os.Exit(runNetChaos(*seed, *mpl, *chaosDur))
	}
	if *serveAddr != "" {
		os.Exit(runServe(*serveAddr, *partitions, *objects, *seed))
	}

	var mode reorg.Mode
	switch *algName {
	case "ira":
		mode = reorg.ModeIRA
	case "twolock":
		mode = reorg.ModeIRATwoLock
	case "pqr":
		mode = reorg.ModePQR
	default:
		fmt.Fprintf(os.Stderr, "unknown algorithm %q (ira, twolock, pqr)\n", *algName)
		os.Exit(2)
	}

	params := workload.DefaultParams()
	params.NumPartitions = *partitions
	params.ObjectsPerPartition = *objects
	params.MPL = *mpl
	params.Seed = *seed

	fmt.Printf("building %d partitions × %d objects...\n", *partitions, *objects)
	w, err := workload.Build(db.DefaultConfig(), params)
	if err != nil {
		fatal(err)
	}
	defer w.DB.Close()

	sigBefore, err := check.Signature(w.DB, w.Roots())
	if err != nil {
		fatal(err)
	}
	fmt.Printf("reachable graph: %d objects\n", len(sigBefore))

	var fleet *metrics.FleetRecorder
	if *workers > 1 {
		fleet = metrics.NewFleetRecorder(*workers)
	}
	if *httpAddr != "" {
		// With the debug endpoint up, expose the live lock-manager
		// counters and per-worker fleet progress alongside the obs
		// tracer state.
		expvar.Publish("locks", expvar.Func(func() any { return w.DB.Locks().Stats() }))
		if fleet != nil {
			expvar.Publish("fleet", expvar.Func(func() any { return fleet.Snapshot() }))
		}
	}

	// Quiescent baseline for the scan workers: the payload multiset
	// every committed traversal must reproduce, whatever the addresses
	// underneath it are doing.
	traverse := func(budget int) (*query.Result, error) {
		return query.Run(w.DB, query.Options{MaxRestarts: budget}, func(e *query.Exec) (query.Operator, error) {
			return query.NewFollowRefs(w.Roots(), -1), nil
		})
	}
	var want map[string]int
	if *scans > 0 {
		base, err := traverse(5)
		if err != nil {
			fatal(err)
		}
		want = query.Multiset(query.Payloads(base.Rows))
	}

	rec := metrics.NewRecorder()
	driver := workload.NewDriver(w, rec)
	rec.StartWindow()
	driver.Start()

	// A traversal S-locks everything it returns, so the reorganizer's
	// §4.5 pre-start wait must be able to outlast one (plus lock-queue
	// time) instead of the default snappy budget.
	ropts := reorg.Options{Mode: mode, BatchSize: *batch}
	if *scans > 0 {
		ropts.WaitTimeout = 5 * time.Second
	}

	var (
		scanStop      = make(chan struct{})
		scanWG        sync.WaitGroup
		scanCommits   atomic.Int64
		scanExhausted atomic.Int64
		scanMu        sync.Mutex
		scanViolation error
	)
	for si := 0; si < *scans; si++ {
		scanWG.Add(1)
		go func() {
			defer scanWG.Done()
			for {
				select {
				case <-scanStop:
					return
				default:
				}
				res, err := traverse(30)
				if err != nil {
					if errors.Is(err, query.ErrRestartsExhausted) {
						scanExhausted.Add(1)
						continue
					}
					scanMu.Lock()
					if scanViolation == nil {
						scanViolation = err
					}
					scanMu.Unlock()
					return
				}
				scanCommits.Add(1)
				got := query.Multiset(query.Payloads(res.Rows))
				bad := len(got) != len(want)
				if !bad {
					for s, n := range want {
						if got[s] != n {
							bad = true
							break
						}
					}
				}
				if bad {
					scanMu.Lock()
					if scanViolation == nil {
						scanViolation = fmt.Errorf("committed traversal drifted from the baseline payload multiset")
					}
					scanMu.Unlock()
					return
				}
				time.Sleep(5 * time.Millisecond)
			}
		}()
	}

	for round := 1; round <= *rounds; round++ {
		if *workers > 1 {
			// Parallel round: the scheduler fans the algorithm out over
			// every data partition at once.
			var parts []oid.PartitionID
			for p := 1; p <= *partitions; p++ {
				parts = append(parts, oid.PartitionID(p))
			}
			s, err := reorg.NewScheduler(w.DB, parts, reorg.FleetOptions{
				Workers: *workers,
				Reorg:   ropts,
				Fleet:   fleet,
			})
			if err != nil {
				fatal(err)
			}
			if err := s.Run(); err != nil {
				fatal(fmt.Errorf("round %d: %w", round, err))
			}
			st := s.Stats()
			fmt.Printf("round %d: %s fleet (%d workers) migrated %d objects over %d partitions, %d parent updates, %d retries in %s\n",
				round, mode, s.Workers(), st.Migrated, st.Done, st.ParentsUpdated, st.Retries, st.Duration().Round(1e6))
			continue
		}
		for p := 1; p <= *partitions; p++ {
			r := reorg.New(w.DB, oid.PartitionID(p), ropts)
			if err := r.Run(); err != nil {
				fatal(fmt.Errorf("round %d partition %d: %w", round, p, err))
			}
			st := r.Stats()
			fmt.Printf("round %d, partition %d: %s migrated %d objects, %d parent updates, %d retries in %s\n",
				round, p, mode, st.Migrated, st.ParentsUpdated, st.Retries, st.Duration().Round(1e6))
		}
	}
	close(scanStop)
	scanWG.Wait()
	sum := rec.Stop()
	driver.Stop()
	fmt.Printf("workload during reorganizations: %s\n", sum)
	if scanViolation != nil {
		fatal(fmt.Errorf("QUERY VIOLATION: %w", scanViolation))
	}
	if *scans > 0 {
		fmt.Printf("analytic scans: %d committed traversals, %d exhausted budgets, every committed multiset exact\n",
			scanCommits.Load(), scanExhausted.Load())
	}

	rep, err := check.Verify(w.DB, w.Roots())
	if err != nil {
		fatal(err)
	}
	if err := rep.Err(); err != nil {
		fatal(fmt.Errorf("CONSISTENCY VIOLATION: %w", err))
	}
	sigAfter, err := check.Signature(w.DB, w.Roots())
	if err != nil {
		fatal(err)
	}
	if len(sigAfter) != len(sigBefore) {
		fatal(fmt.Errorf("reachable set changed: %d -> %d objects", len(sigBefore), len(sigAfter)))
	}
	for k := range sigBefore {
		if _, ok := sigAfter[k]; !ok {
			fatal(fmt.Errorf("object %q lost", k))
		}
	}
	fmt.Printf("OK: %d objects, %d references, ERT exact, graph preserved\n", rep.Objects, rep.Refs)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// runServe builds the workload fixture and serves it over the wire
// protocol until interrupted. SIGINT/SIGTERM triggers a graceful drain:
// new transactions are rejected with DRAINING, in-flight ones get a
// grace period to finish. Roots are published through the catalog as
// "roots/<partition>". Returns the process exit code.
func runServe(addr string, partitions, objects int, seed int64) int {
	params := workload.DefaultParams()
	params.NumPartitions = partitions
	params.ObjectsPerPartition = objects
	params.Seed = seed

	fmt.Printf("building %d partitions × %d objects...\n", partitions, objects)
	w, err := workload.Build(db.DefaultConfig(), params)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer w.DB.Close()

	srv, lnAddr, err := server.Start(server.Config{
		DB: w.DB,
		Catalog: func(name string) []oid.OID {
			var part int
			if _, err := fmt.Sscanf(name, "roots/%d", &part); err != nil {
				return nil
			}
			return w.RootsOf(oid.PartitionID(part))
		},
		PerOpWork: func() { w.BurnCPU(params.CPUPerOp) },
	}, addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	obs.RegisterServerStats(func() any { return srv.StatsSnapshot() })

	fmt.Printf("serving on %s (roots under \"roots/1\"..\"roots/%d\"; SIGINT drains)\n",
		lnAddr, partitions)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("draining...")
	if err := srv.Drain(); err != nil {
		fmt.Fprintf(os.Stderr, "drain: %v\n", err)
		return 1
	}
	st := srv.StatsSnapshot()
	fmt.Printf("drained: %d conns served, %d committed, %d aborted, %d shed\n",
		st.Accepted, st.Committed, st.Aborted, st.ShedConns+st.ShedTxns)
	return 0
}

// runNetChaos executes the socket-chaos cell and returns the process
// exit code.
func runNetChaos(seed int64, mpl int, dur time.Duration) int {
	res, err := harness.RunNetChaos(os.Stdout, harness.NetChaosConfig{
		Seed:     seed,
		MPL:      mpl,
		Duration: dur,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("netchaos: OK — committed prefix exact, graph preserved, no leaks (%d commits under %d firings)\n",
		res.Commits, res.Firings)
	return 0
}

// runTorture executes the seeded crash-recovery sweep and returns the
// process exit code: 0 on a clean sweep, 1 on any invariant violation,
// 2 on usage errors.
func runTorture(seeds int, seedbase int64, pointsCSV string) int {
	pts := harness.DefaultTorturePoints()
	if pointsCSV != "" {
		want := make(map[string]bool)
		for _, p := range strings.Split(pointsCSV, ",") {
			want[strings.TrimSpace(p)] = true
		}
		var sel []harness.TorturePoint
		for _, tp := range pts {
			if want[tp.Point] {
				sel = append(sel, tp)
			}
		}
		if len(sel) == 0 {
			fmt.Fprintf(os.Stderr, "no crash points match %q; known points:\n", pointsCSV)
			for _, tp := range pts {
				fmt.Fprintf(os.Stderr, "  %s (%s)\n", tp.Point, tp.Mode)
			}
			return 2
		}
		pts = sel
	}
	fmt.Printf("torture: %d seeds from %d over %d crash points\n", seeds, seedbase, len(pts))
	failures, err := harness.RunTortureSweep(os.Stdout, harness.TortureSpec{
		Seeds:    seeds,
		SeedBase: seedbase,
		Points:   pts,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "%v\n  %s\n", f.Err, f.ReplayLine())
			f.DumpTrace(os.Stderr, "  ")
		}
		fmt.Fprintf(os.Stderr, "torture: %d of %d seeds FAILED\n", len(failures), seeds)
		return 1
	}
	fmt.Printf("torture: OK — %d seeds, every invariant held through every crash\n", seeds)
	return 0
}
