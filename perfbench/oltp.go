package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/check"
	"repro/internal/db"
	"repro/internal/obs"
	"repro/internal/oid"
	"repro/internal/reorg"
	"repro/internal/workload"
)

// reorg-oltp sizes. The TRT's cost grows faster than linearly with the
// objects of the partition under reorganization, and the pass's cost per
// object grows with the number of partitions, so both are fixed: one
// round is one pass over a freshly built database, and the run is
// lengthened by adding rounds.
const (
	oltpParts   = 16
	oltpObjects = 1020 // objects per partition: 12 clusters of 85
)

// warmup runs the clients before a window opens.
const warmup = 300 * time.Millisecond

// minRounds is the fewest rounds reorg-oltp runs, so that setup_s and
// the per-round figures are medians of several samples.
const minRounds = 5

// runReorgOLTP is the paper's claim: two clients run random-walk
// transactions while one IRA fleet worker compacts every data partition
// exactly once. Each round builds the database afresh and measures that
// pass; rounds repeat until the passes add up to -seconds.
func runReorgOLTP(e env) (*outcome, error) {
	cfg := dbConfig(false)
	p := params(e.seed, oltpParts, oltpObjects)
	ropts := reorg.Options{Mode: reorg.ModeIRA, BatchSize: 1, MaxRetries: 10000, WaitTimeout: 10 * time.Second}
	o := &outcome{
		config:   map[string]any{"db": cfg, "params": p, "fleet_workers": 1, "reorg": "IRA", "batch_size": ropts.BatchSize},
		specific: map[string]float64{},
		layers:   map[string]float64{},
	}
	var tracer *obs.Tracer
	if e.traced {
		tracer = obs.NewTracer()
		defer obs.Install(tracer)()
	}
	var (
		cd                                           counterDelta
		loops                                        []*loop
		perObj, amps, partSecs, peaks                []float64
		parents, migrated, purged, retries, maxLocks int
	)
	parts := dataPartitions(oltpParts)
	for round := 0; round < minRounds || o.txn.window < time.Duration(e.seconds)*time.Second; round++ {
		runtime.GC()
		t0 := time.Now()
		w, err := workload.Build(cfg, p)
		if err != nil {
			return nil, fmt.Errorf("build: %w", err)
		}
		o.setups = append(o.setups, time.Since(t0))
		d := w.DB
		sigBefore, err := check.Signature(d, w.Roots())
		if err != nil {
			d.Close()
			return nil, fmt.Errorf("signature: %w", err)
		}
		wk := walk{d: d, roots: w.RootTable, ops: p.OpsPerTrans, updateProb: p.UpdateProb, churnProb: p.RefChurnProb}
		fleet, err := reorg.NewScheduler(d, parts, reorg.FleetOptions{Workers: 1, Reorg: ropts})
		if err != nil {
			d.Close()
			return nil, fmt.Errorf("scheduler: %w", err)
		}
		runtime.GC()
		l := startLoop(clients, e.seed*1000+int64(round), e.traced, wk.attempt)
		time.Sleep(warmup)
		var peakTRT func() int
		if e.traced {
			peakTRT = sampleTRT(d, parts)
		}
		c0 := readCounters(d)
		from := time.Now()
		passErr := fleet.Run()
		to := time.Now()
		c1 := readCounters(d)
		if peakTRT != nil {
			peaks = append(peaks, float64(peakTRT()))
		}
		l.halt()
		o.txn.add(l, from, to)
		cd.add(c0, c1)
		loops = append(loops, l)
		o.ops++
		if err := l.firstErr(); err != nil {
			d.Close()
			return nil, fmt.Errorf("transaction failed: %w", err)
		}
		st := fleet.Stats()
		if passErr != nil || st.Done != oltpParts {
			o.opsFailed++
			o.violate("round %d: IRA pass finished %d of %d partitions: %v", round, st.Done, oltpParts, passErr)
		}
		// The pass must leave the ERTs exact and the reachable graph
		// intact.
		verify(o, d, w.Roots())
		if err := sameGraph(d, w.Roots(), sigBefore); err != nil {
			o.violate("round %d: %v", round, err)
		}
		amp, err := spaceAmp(d, parts)
		d.Close()
		if err != nil {
			return nil, err
		}
		amps = append(amps, amp)
		if st.Migrated > 0 {
			perObj = append(perObj, float64(to.Sub(from))/float64(time.Microsecond)/float64(st.Migrated))
		}
		for _, ps := range st.PerPartition {
			partSecs = append(partSecs, ps.Duration().Seconds())
			purged += ps.TRTPurged
		}
		parents += st.ParentsUpdated
		migrated += st.Migrated
		retries += st.Retries
		if st.MaxWorkerLocks > maxLocks {
			maxLocks = st.MaxWorkerLocks
		}
	}
	o.ops += o.txn.commits + o.txn.failed
	o.opsFailed += o.txn.failed
	o.commitRatio = o.txn.commitRatio(len(o.violations))
	o.spaceAmp = median(amps)

	o.specific["reorg_us_per_obj"] = median(perObj)
	if migrated > 0 {
		o.layers["reorg.parents_per_obj"] = float64(parents) / float64(migrated)
		o.layers["reorg.trt_purged_per_obj"] = float64(purged) / float64(migrated)
	}
	o.layers["reorg.partition_s"] = median(partSecs)
	o.layers["reorg.retries"] = float64(retries)
	o.layers["reorg.max_locks_held"] = float64(maxLocks)
	o.layers["trt.peak_tuples"] = median(peaks)
	cd.layers(o.layers, o.txn.commits)
	dbTimers(o.layers, loops...)
	obsLayers(o.layers, tracer)
	return o, nil
}

// sameGraph checks that the reachable graph still has the payload
// signature taken before the pass.
func sameGraph(d *db.Database, roots []oid.OID, before map[string][]string) error {
	after, err := check.Signature(d, roots)
	if err != nil {
		return fmt.Errorf("signature: %w", err)
	}
	if len(after) != len(before) {
		return fmt.Errorf("reachable set changed: %d -> %d objects", len(before), len(after))
	}
	for k := range before {
		if _, ok := after[k]; !ok {
			return fmt.Errorf("object %q lost", k)
		}
	}
	return nil
}

// sampleTRT polls the size of every attached TRT until the returned
// function is called, which stops the poller and returns the peak.
func sampleTRT(d *db.Database, parts []oid.PartitionID) func() int {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	peak := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			for _, p := range parts {
				if t, ok := d.Analyzer().TRT(p); ok && t.Len() > peak {
					peak = t.Len()
				}
			}
		}
	}()
	return func() int {
		close(stop)
		wg.Wait()
		return peak
	}
}

// dbTimers fills the db.* call latencies of a traced run.
func dbTimers(m map[string]float64, loops ...*loop) {
	for _, t := range []struct {
		k    int
		name string
	}{{tBegin, "begin"}, {tLock, "lock"}, {tRead, "read"}, {tUpdate, "update"}, {tCommit, "commit"}} {
		p50, p95 := timerQuantilesUS(t.k, loops...)
		m["db."+t.name+"_us_p50"] = p50
		m["db."+t.name+"_us_p95"] = p95
	}
}

// obsLayers reads the program's own latch and WAL-sync histograms,
// recorded while the tracer was installed.
func obsLayers(m map[string]float64, t *obs.Tracer) {
	if t == nil {
		return
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	lw := t.Hist(obs.LatchWait)
	m["latch.wait_us_p50"] = us(lw.Quantile(0.50))
	m["latch.wait_us_p95"] = us(lw.Quantile(0.95))
	m["wal.sync_us_p50"] = us(t.Hist(obs.WALSync).Quantile(0.50))
}
