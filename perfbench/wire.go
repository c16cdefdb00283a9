package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/db"
	"repro/internal/oid"
	"repro/internal/recovery"
	"repro/internal/server"
	"repro/internal/workload"
)

// wire-write sizes. Every round runs until wireRoundCommits transactions
// have committed and then crashes the database, so each restart replays
// a redo log of the same size whatever the program's speed; rounds repeat
// until the windows add up to -seconds.
const (
	wireParts        = 8
	wireObjects      = 1020
	wireRoundCommits = 2000
	wirePairs        = 4  // X-locked read+update pairs per transaction
	identLen         = 15 // "pNN-cNNNN-nNNNN", the workload payload's unique prefix
)

// errCrash is the cause the benchmark fails the log with.
var errCrash = errors.New("benchmark crash")

// runWireWrite drives the wire stack and restart recovery: two client
// connections to an in-process server run write-only transactions of
// four X-locked read+update pairs on uniformly chosen objects; each round
// ends with a crash while transactions are in flight and a timed restart
// from the crash image, after which every acknowledged write must be
// readable and check.Verify must pass.
func runWireWrite(e env) (*outcome, error) {
	cfg := dbConfig(true)
	p := params(e.seed, wireParts, wireObjects)
	srvCfg := server.Config{
		MaxConns: 4, AcceptQueue: 4, AdmitRate: 0, AdmitBurst: 0, MaxActiveTxns: 8,
		DefaultDeadline: 5 * time.Second, IdleTimeout: 30 * time.Second, DrainTimeout: time.Second,
	}
	cliCfg := client.Config{
		Tenant: "bench", PoolSize: 1, DialTimeout: 2 * time.Second, RequestTimeout: 5 * time.Second,
		MaxRetries: 4, BackoffBase: 2 * time.Millisecond, BackoffMax: 250 * time.Millisecond,
	}
	o := &outcome{
		config: map[string]any{"db": cfg, "params": p, "client": cliCfg,
			"server": map[string]any{"MaxConns": srvCfg.MaxConns, "AcceptQueue": srvCfg.AcceptQueue,
				"AdmitRate": srvCfg.AdmitRate, "MaxActiveTxns": srvCfg.MaxActiveTxns},
			"round_commits": wireRoundCommits, "pairs_per_txn": wirePairs},
		specific: map[string]float64{},
		layers:   map[string]float64{},
	}
	var ckpt *db.Checkpoint
	var ckptTimes []float64
	checkpoint := func(d *db.Database) error {
		t0 := time.Now()
		c, err := d.Checkpoint()
		if err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		ckptTimes = append(ckptTimes, float64(time.Since(t0))/float64(time.Millisecond))
		// Records before the checkpoint are not needed by restart.
		d.TruncateLog(c)
		ckpt = c
		return nil
	}
	w, err := buildRepeated(o, func(int) (*workload.Workload, error) {
		w, err := workload.Build(cfg, p)
		if err != nil {
			return nil, err
		}
		return w, checkpoint(w.DB)
	}, func(w *workload.Workload) { w.DB.Close() })
	if err != nil {
		return nil, err
	}
	d := w.DB
	defer func() {
		if d != nil {
			d.Close()
		}
	}()
	var objs []oid.OID
	for _, part := range dataPartitions(wireParts) {
		ids, err := d.PartitionOIDs(part)
		if err != nil {
			return nil, err
		}
		objs = append(objs, ids...)
	}
	ww := &wireLoad{objs: objs, issued: make([]atomic.Int64, len(objs)), acked: make([]atomic.Int64, len(objs))}

	var restarts, records, perSec []float64
	for round := 0; o.txn.window < time.Duration(e.seconds)*time.Second; round++ {
		if round > 1000 {
			return nil, fmt.Errorf("no progress after %d rounds", round)
		}
		img, err := ww.serve(o, e, round, d, srvCfg, cliCfg, ckpt)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", round, err)
		}
		d.Close()
		d = nil

		runtime.GC()
		t0 := time.Now()
		nd, err := recovery.Recover(img, cfg)
		restart := time.Since(t0)
		o.ops++
		if err != nil {
			o.opsFailed++
			o.violate("round %d: restart: %v", round, err)
			break
		}
		d = nd
		restarts = append(restarts, restart.Seconds())
		records = append(records, float64(len(img.Records)))
		perSec = append(perSec, float64(len(img.Records))/restart.Seconds())
		ww.check(o, d, round)
		verify(o, d, w.Roots())
		if err := checkpoint(d); err != nil {
			return nil, err
		}
	}
	o.ops += o.txn.commits + o.txn.failed
	o.opsFailed += o.txn.failed
	o.commitRatio = o.txn.commitRatio(len(o.violations))
	if d != nil {
		if o.spaceAmp, err = spaceAmp(d, dataPartitions(wireParts)); err != nil {
			return nil, err
		}
	}

	o.specific["restart_s"] = median(restarts)
	o.layers["recovery.records"] = median(records)
	o.layers["recovery.records_per_s"] = median(perSec)
	o.layers["recovery.capture_ms"] = median(ww.captures)
	o.layers["db.checkpoint_ms"] = median(ckptTimes)
	o.layers["server.committed"] = float64(ww.srv.Committed)
	o.layers["server.aborted"] = float64(ww.srv.Aborted)
	o.layers["server.shed_txns"] = float64(ww.srv.ShedTxns)
	o.layers["client.retries"] = float64(ww.retries)
	o.layers["client.sheds"] = float64(ww.sheds)
	for _, t := range []struct {
		k    int
		name string
	}{{tClientRead, "read"}, {tClientUpdate, "update"}, {tClientCommit, "commit"}} {
		p50, p95 := timerQuantilesUS(t.k, ww.loops...)
		o.layers["client."+t.name+"_us_p50"] = p50
		o.layers["client."+t.name+"_us_p95"] = p95
	}
	ww.counters.layers(o.layers, o.txn.commits)
	return o, nil
}

// serve serves d to two clients until wireRoundCommits transactions have
// committed, crashes it and returns the crash image. The clients and the
// server are closed on return; d is left to the caller.
func (ww *wireLoad) serve(o *outcome, e env, round int, d *db.Database, srvCfg server.Config, cliCfg client.Config, ckpt *db.Checkpoint) (*recovery.Image, error) {
	srvCfg.DB = d
	srv, addr, err := server.Start(srvCfg, "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	defer srv.Close()
	cls := make([]*client.Client, clients)
	defer func() {
		for _, c := range cls {
			if c != nil {
				ww.retries += c.Retries()
				ww.sheds += c.Sheds()
				c.Close()
			}
		}
	}()
	for i := range cls {
		c := cliCfg
		c.Addr, c.Seed = addr.String(), e.seed*100+int64(i+1)
		if cls[i], err = client.Dial(c); err != nil {
			return nil, fmt.Errorf("dial: %w", err)
		}
	}
	ww.begin(d, cls)

	runtime.GC()
	c0 := readCounters(d)
	from := time.Now()
	l := startLoop(clients, e.seed+int64(round)*31, e.traced, ww.attempt)
	select {
	case <-ww.crashed:
	case <-time.After(60 * time.Second):
		l.halt()
		return nil, fmt.Errorf("%d commits in 60s", ww.commits.Load())
	}
	l.halt()
	halted := time.Now()
	ww.counters.add(c0, readCounters(d))
	// The round's window runs until the clients cut off by the crash have
	// stopped; their transactions count as aborted attempts.
	o.txn.add(l, from, halted)
	ww.loops = append(ww.loops, l)
	if err := l.firstErr(); err != nil {
		return nil, fmt.Errorf("transaction failed: %w", err)
	}
	st := srv.StatsSnapshot()
	ww.srv.Committed += st.Committed
	ww.srv.Aborted += st.Aborted
	ww.srv.ShedTxns += st.ShedTxns

	t0 := time.Now()
	img := recovery.CaptureImage(d, ckpt)
	ww.captures = append(ww.captures, float64(time.Since(t0))/float64(time.Millisecond))
	return img, nil
}

// wireLoad is the write-only transaction mix plus its durability
// oracle: payloads carry a version that every write increments, so
// after a restart each object's version must lie between the highest
// acknowledged and the highest issued one.
type wireLoad struct {
	objs          []oid.OID
	issued, acked []atomic.Int64

	// The round being served.
	clients   []*client.Client
	d         *db.Database
	commits   atomic.Int64
	crashOnce *sync.Once
	crashed   chan struct{}
	down      atomic.Bool

	// Accumulated over rounds for the per-layer metrics.
	loops          []*loop
	counters       counterDelta
	captures       []float64
	srv            server.StatsSnapshot
	retries, sheds uint64
}

// begin arms a new round against d served to cls.
func (ww *wireLoad) begin(d *db.Database, cls []*client.Client) {
	ww.d, ww.clients = d, cls
	ww.commits.Store(0)
	ww.crashOnce = &sync.Once{}
	ww.crashed = make(chan struct{})
	ww.down.Store(false)
}

// crash fails the log the way the torture harness does: nothing appended
// afterwards becomes durable, and transactions still running abort.
func (ww *wireLoad) crash() {
	ww.crashOnce.Do(func() {
		ww.down.Store(true)
		ww.d.Log().Fail(errCrash)
		close(ww.crashed)
	})
}

// classify maps a failed wire call to the loop's verdicts.
func (ww *wireLoad) classify(err error) (bool, error) {
	switch {
	case ww.down.Load():
		return false, errInterrupted
	case errors.Is(err, client.ErrAborted), errors.Is(err, client.ErrShed):
		return false, nil
	}
	return false, err
}

func (ww *wireLoad) attempt(c int, rng *rand.Rand, pr *probe) (bool, error) {
	if ww.down.Load() {
		return false, errInterrupted
	}
	tx, err := ww.clients[c].Begin()
	if err != nil {
		return ww.classify(err)
	}
	var wrote [wirePairs]struct {
		idx int
		ver int64
	}
	for i := range wrote {
		idx := rng.Intn(len(ww.objs))
		t0 := pr.start()
		obj, err := tx.Read(ww.objs[idx], true)
		pr.stop(tClientRead, t0)
		if err != nil {
			tx.Abort()
			return ww.classify(err)
		}
		ver, ok := version(obj.Payload)
		if !ok {
			tx.Abort()
			return false, fmt.Errorf("object %s holds an unversioned payload %q", ww.objs[idx], obj.Payload)
		}
		// Issued before the write can reach the log, so a recovered
		// version is never ahead of the oracle.
		storeMax(&ww.issued[idx], ver+1)
		t0 = pr.start()
		err = tx.Update(ww.objs[idx], versioned(obj.Payload, ver+1))
		pr.stop(tClientUpdate, t0)
		if err != nil {
			tx.Abort()
			return ww.classify(err)
		}
		wrote[i].idx, wrote[i].ver = idx, ver+1
	}
	t0 := pr.start()
	err = tx.Commit()
	pr.stop(tClientCommit, t0)
	if err != nil {
		return ww.classify(err)
	}
	for _, w := range wrote {
		storeMax(&ww.acked[w.idx], w.ver)
	}
	if ww.commits.Add(1) == wireRoundCommits {
		ww.crash()
	}
	return true, nil
}

// check compares every object of the recovered database with the
// oracle, then resets the oracle to what was recovered.
func (ww *wireLoad) check(o *outcome, d *db.Database, round int) {
	bad := 0
	for i, id := range ww.objs {
		obj, err := d.FuzzyRead(id)
		ver, ok := version(obj.Payload)
		if err != nil || !ok || ver < ww.acked[i].Load() || ver > ww.issued[i].Load() {
			if bad++; bad <= 3 {
				o.violate("round %d: object %s recovered as %q (err %v), acknowledged version %d, issued %d",
					round, id, obj.Payload, err, ww.acked[i].Load(), ww.issued[i].Load())
			}
			continue
		}
		ww.acked[i].Store(ver)
		ww.issued[i].Store(ver)
	}
}

func storeMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// versionTag separates an object's identity from its version.
var versionTag = []byte(" v")

// versioned keeps the identity prefix of payload and writes version v
// after it, padded back to the payload's length so objects never grow.
func versioned(payload []byte, v int64) []byte {
	out := make([]byte, len(payload))
	n := copy(out, payload[:identLen])
	n += copy(out[n:], versionTag)
	n += copy(out[n:], strconv.FormatInt(v, 10))
	for ; n < len(out); n++ {
		out[n] = '.'
	}
	return out
}

// version parses the version versioned wrote; the workload's original
// payloads are version 0.
func version(payload []byte) (int64, bool) {
	if len(payload) < identLen {
		return 0, false
	}
	rest := payload[identLen:]
	if !bytes.HasPrefix(rest, versionTag) {
		return 0, true
	}
	rest = bytes.TrimRight(rest[len(versionTag):], ".")
	v, err := strconv.ParseInt(string(rest), 10, 64)
	return v, err == nil
}
