package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/db"
	"repro/internal/obs"
	"repro/internal/oid"
	"repro/internal/query"
	"repro/internal/workload"
)

// scan-disk sizes: 8 × 4080 objects fill about 4× more data pages than
// the buffer pool has frames, so the working set is larger than the
// cache while the other two workloads run fully in memory.
const (
	scanParts   = 8
	scanObjects = 4080
	scanFrames  = 96
	// scanHops bounds each traversal to a cluster's neighbourhood: the
	// root-table entry, the cluster root and three levels below it.
	scanHops = 4
	// scanRoots is the number of traversal roots, each checked against
	// a baseline payload multiset taken before the window.
	scanRoots = 256
)

// runScanDisk is the larger-than-cache read workload: a disk-backed
// store with logical OIDs, one client running FollowRefs traversals and
// one running read-only walks. No reorganization and no writes run, so
// the window has no dirty evictions and no fsync; reorg and TRT do no
// work here.
func runScanDisk(e env) (*outcome, error) {
	dir, err := os.MkdirTemp(e.workdir, "segments-")
	if err != nil {
		return nil, fmt.Errorf("segment directory: %w", err)
	}
	defer os.RemoveAll(dir)
	cfg := dbConfig(false)
	cfg.DiskBacked = true
	cfg.PoolFrames = scanFrames
	cfg.LogicalOIDs = true
	cfg.PhysicalOIDs = false
	p := params(e.seed, scanParts, scanObjects)
	o := &outcome{
		config:   map[string]any{"db": cfg, "params": p, "hops": scanHops, "traversal_roots": scanRoots},
		specific: map[string]float64{},
		layers:   map[string]float64{},
	}
	build := func(i int) (*workload.Workload, error) {
		c := cfg
		c.DataDir = filepath.Join(dir, fmt.Sprint(i))
		w, err := workload.Build(c, p)
		if err != nil {
			return nil, err
		}
		// Write every dirty page back now, so the window never evicts
		// a dirty frame.
		return w, w.DB.Store().FlushAll()
	}
	w, err := buildRepeated(o, build, func(w *workload.Workload) {
		w.DB.Close()
		os.RemoveAll(w.DB.Config().DataDir)
	})
	if err != nil {
		return nil, err
	}
	d := w.DB
	defer d.Close()
	parts := dataPartitions(scanParts)
	o.config["data_pages"] = dataPages(d, parts)

	// Baselines: every committed traversal of a root must return exactly
	// this payload multiset.
	rng := rand.New(rand.NewSource(e.seed))
	roots := make([]oid.OID, scanRoots)
	want := make([]map[string]int, scanRoots)
	for i := range roots {
		roots[i] = w.RootTable[rng.Intn(len(w.RootTable))]
		res, err := traverse(d, roots[i])
		if err != nil {
			return nil, fmt.Errorf("baseline traversal: %w", err)
		}
		want[i] = query.Multiset(query.Payloads(res.Rows))
	}

	var tracer *obs.Tracer
	if e.traced {
		tracer = obs.NewTracer()
		defer obs.Install(tracer)()
	}
	var tally scanTally
	scanAttempt := func(_ int, rng *rand.Rand, _ *probe) (bool, error) {
		i := rng.Intn(len(roots))
		res, err := traverse(d, roots[i])
		if err != nil {
			return false, err
		}
		tally.note(res, want[i])
		return true, nil
	}
	wk := walk{d: d, roots: w.RootTable, ops: p.OpsPerTrans, updateProb: 0, churnProb: 0}

	runtime.GC()
	walks := startLoop(1, e.seed, e.traced, wk.attempt)
	scans := startLoop(1, e.seed+1, e.traced, scanAttempt)
	time.Sleep(warmup)
	c0 := readCounters(d)
	pool0 := d.Store().PoolStats()
	from := time.Now()
	time.Sleep(time.Duration(e.seconds) * time.Second)
	to := time.Now()
	c1 := readCounters(d)
	pool1 := d.Store().PoolStats()
	walks.halt()
	scans.halt()

	o.txn.add(walks, from, to)
	var sc loadStats
	sc.add(scans, from, to)
	o.ops = o.txn.commits + o.txn.failed + sc.commits + sc.failed
	o.opsFailed = o.txn.failed + sc.failed
	for _, l := range []*loop{walks, scans} {
		if err := l.firstErr(); err != nil {
			return nil, fmt.Errorf("transaction failed: %w", err)
		}
	}
	for _, v := range tally.drifts() {
		o.violate("%s", v)
	}
	if o.spaceAmp, err = spaceAmp(d, parts); err != nil {
		return nil, err
	}
	// commit_ratio covers both clients; traversal restarts are aborted
	// attempts too.
	all := o.txn
	all.commits += sc.commits
	all.attempts += sc.attempts + tally.restarts.Load()
	o.commitRatio = all.commitRatio(len(o.violations))

	o.specific["scan_per_s"] = sc.perSecond()
	o.specific["scan_p50_us"] = sc.quantileUS(0.50)
	o.specific["scan_p95_us"] = sc.quantileUS(0.95)
	if sc.commits > 0 {
		o.layers["query.rows_per_scan"] = float64(tally.rows.Load()) / float64(tally.scans.Load())
		o.layers["query.attempts_per_scan"] = float64(tally.scans.Load()+tally.restarts.Load()) / float64(tally.scans.Load())
	}
	hits, misses := pool1.Hits-pool0.Hits, pool1.Misses-pool0.Misses
	if hits+misses > 0 {
		o.layers["storage.pool_fault_rate"] = float64(misses) / float64(hits+misses)
	}
	if txns := o.txn.commits + sc.commits; txns > 0 {
		o.layers["storage.evictions_per_txn"] = float64(pool1.Evictions-pool0.Evictions) / float64(txns)
		o.layers["storage.hits_per_txn"] = float64(hits) / float64(txns)
	}
	o.layers["oidmap.resolve_ns"] = resolveNS(d, parts, rng)
	var cd counterDelta
	cd.add(c0, c1)
	cd.layers(o.layers, o.txn.commits+sc.commits)
	dbTimers(o.layers, walks)
	obsLayers(o.layers, tracer)
	return o, nil
}

// traverse runs one committed FollowRefs traversal from root.
func traverse(d *db.Database, root oid.OID) (*query.Result, error) {
	return query.Run(d, query.Options{MaxRestarts: 40, Backoff: time.Millisecond}, func(*query.Exec) (query.Operator, error) {
		return query.NewFollowRefs([]oid.OID{root}, scanHops), nil
	})
}

// scanTally counts traversal work and collects multiset drifts.
type scanTally struct {
	scans, rows, restarts atomic.Int64
	mu                    sync.Mutex
	bad                   []string
}

func (t *scanTally) note(res *query.Result, want map[string]int) {
	t.scans.Add(1)
	t.rows.Add(int64(len(res.Rows)))
	t.restarts.Add(int64(res.Attempts - 1))
	got := query.Multiset(query.Payloads(res.Rows))
	same := len(got) == len(want)
	for s, n := range want {
		same = same && got[s] == n
	}
	if !same {
		t.mu.Lock()
		t.bad = append(t.bad, fmt.Sprintf("traversal returned %d rows, baseline multiset has %d distinct payloads", len(res.Rows), len(want)))
		t.mu.Unlock()
	}
}

func (t *scanTally) drifts() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.bad...)
}

// dataPages counts the allocated pages of parts.
func dataPages(d *db.Database, parts []oid.PartitionID) int {
	n := 0
	for _, p := range parts {
		if st, err := d.Store().PartitionStats(p); err == nil {
			n += st.Pages
		}
	}
	return n
}

// resolveNS is the median cost of one OIDMap().Resolve over a sample of
// live logical OIDs, timed in batches so the clock's own cost washes
// out. It is 0 for a database with physical OIDs.
func resolveNS(d *db.Database, parts []oid.PartitionID, rng *rand.Rand) float64 {
	m := d.OIDMap()
	if m == nil {
		return 0
	}
	var live []oid.OID
	for _, p := range parts {
		live = append(live, m.PartitionOIDs(p)...)
	}
	if len(live) == 0 {
		return 0
	}
	const batch, batches = 64, 256
	var per []float64
	for b := 0; b < batches; b++ {
		sample := make([]oid.OID, batch)
		for i := range sample {
			sample[i] = live[rng.Intn(len(live))]
		}
		t0 := time.Now()
		for _, o := range sample {
			m.Resolve(o)
		}
		per = append(per, float64(time.Since(t0))/batch)
	}
	return median(per)
}
