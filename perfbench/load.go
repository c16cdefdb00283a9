package main

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/db"
	"repro/internal/lock"
	"repro/internal/oid"
	"repro/internal/storage"
)

// clients is the number of closed-loop clients of every workload: one
// per CPU of the 2-CPU host the benchmark was tuned on. Background work
// (the reorg fleet, server goroutines) belongs to the program.
const clients = 2

// maxAttempts bounds the resubmissions of one transaction; a transaction
// that exhausts it counts as a failed operation.
const maxAttempts = 1000

// attemptFunc runs one transaction attempt for client c. committed=false
// with a nil error is an abort to resubmit (lock timeout, object migrated
// away); errInterrupted ends the client because the database was crashed
// on purpose; any other error fails the transaction.
type attemptFunc func(c int, rng *rand.Rand, pr *probe) (committed bool, err error)

// errInterrupted is returned by attempts cut off by a deliberate crash.
var errInterrupted = errors.New("interrupted by the benchmark's crash")

// event is one finished transaction: its completion time and response
// time (covering every resubmission), or a failed or interrupted one.
type event struct {
	end         time.Time
	lat         time.Duration
	attempts    int
	failed      bool
	interrupted bool
}

// loop is a set of closed-loop clients: each submits its next
// transaction only after the previous one committed.
type loop struct {
	stop   atomic.Bool
	wg     sync.WaitGroup
	logs   [][]event
	probes []*probe
	errs   []error
}

// startLoop starts n clients running attempt. Probes are allocated only
// for a traced run.
func startLoop(n int, seed int64, traced bool, attempt attemptFunc) *loop {
	l := &loop{logs: make([][]event, n), probes: make([]*probe, n), errs: make([]error, n)}
	for i := 0; i < n; i++ {
		if traced {
			l.probes[i] = &probe{}
		}
		l.wg.Add(1)
		go func(i int) {
			defer l.wg.Done()
			rng := rand.New(rand.NewSource(seed*7919 + int64(i+1)))
			for !l.stop.Load() {
				start := time.Now()
				ev := event{}
				for !l.stop.Load() && !ev.failed && !ev.interrupted {
					ev.attempts++
					ok, err := attempt(i, rng, l.probes[i])
					if ok {
						ev.end = time.Now()
						ev.lat = ev.end.Sub(start)
						break
					}
					if errors.Is(err, errInterrupted) {
						ev.interrupted = true
						ev.end = time.Now()
						l.stop.Store(true)
						break
					}
					if err != nil || ev.attempts >= maxAttempts {
						ev.failed = true
						ev.end = time.Now()
						if l.errs[i] == nil {
							l.errs[i] = err
						}
					}
				}
				if !ev.end.IsZero() {
					l.logs[i] = append(l.logs[i], ev)
				}
			}
		}(i)
	}
	return l
}

// halt stops the clients and waits for them.
func (l *loop) halt() {
	l.stop.Store(true)
	l.wg.Wait()
}

// firstErr is the first error any client failed a transaction with.
func (l *loop) firstErr() error {
	for _, err := range l.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sliceLen is the length of the slices a measured window is cut into.
// Rates and latency quantiles are computed per slice and reported as
// the median over slices, so a stall of the shared host inflates one
// slice instead of the whole run.
const sliceLen = time.Second

// slice is one piece of a measured window.
type slice struct {
	len     time.Duration
	commits int64
	lat     []time.Duration
}

// loadStats is a closed-loop load restricted to measured windows.
type loadStats struct {
	window   time.Duration
	commits  int64
	attempts int64
	failed   int64 // transactions that failed outright
	slices   []*slice
}

// add folds in the events of l that completed inside [from, to], cutting
// the window into slices of about sliceLen (one slice if it is shorter).
func (s *loadStats) add(l *loop, from, to time.Time) {
	win := to.Sub(from)
	s.window += win
	n := int(win / sliceLen)
	if n < 1 {
		n = 1
	}
	cut := make([]*slice, n)
	for i := range cut {
		cut[i] = &slice{len: win / time.Duration(n)}
	}
	s.slices = append(s.slices, cut...)
	for _, log := range l.logs {
		for _, ev := range log {
			if ev.end.Before(from) || ev.end.After(to) {
				continue
			}
			s.attempts += int64(ev.attempts)
			if ev.failed {
				s.failed++
			}
			if ev.failed || ev.interrupted {
				continue
			}
			s.commits++
			i := int(int64(ev.end.Sub(from)) * int64(n) / int64(win))
			if i >= n {
				i = n - 1
			}
			cut[i].commits++
			cut[i].lat = append(cut[i].lat, ev.lat)
		}
	}
}

// perSecond is the median over slices of committed transactions per
// second.
func (s *loadStats) perSecond() float64 {
	rates := make([]float64, len(s.slices))
	for i, sl := range s.slices {
		rates[i] = float64(sl.commits) / sl.len.Seconds()
	}
	return median(rates)
}

// quantileUS is the median over slices of each slice's q-quantile
// response time, in microseconds.
func (s *loadStats) quantileUS(q float64) float64 {
	var qs []float64
	for _, sl := range s.slices {
		if len(sl.lat) > 0 {
			qs = append(qs, quantileUS(sl.lat, q))
		}
	}
	return median(qs)
}

// commitRatio is committed transactions over attempts; every abort and
// every failed correctness check counts as a failed attempt.
func (s *loadStats) commitRatio(violations int) float64 {
	if s.attempts == 0 {
		return 0
	}
	return float64(s.commits-int64(violations)) / float64(s.attempts+int64(violations))
}

// quantileUS is the q-quantile of ds in microseconds.
func quantileUS(ds []time.Duration, q float64) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(time.Microsecond)
	}
	return quantile(xs, q)
}

// Timers of the traced run, each around one public call.
const (
	tBegin = iota
	tLock
	tRead
	tUpdate
	tCommit
	tClientRead
	tClientUpdate
	tClientCommit
	numTimers
)

// probe collects one client's traced call latencies. A nil probe (the
// untraced run) takes no clock readings at all.
type probe struct {
	samples [numTimers][]time.Duration
}

func (p *probe) start() time.Time {
	if p == nil {
		return time.Time{}
	}
	return time.Now()
}

func (p *probe) stop(k int, t0 time.Time) {
	if p != nil {
		p.samples[k] = append(p.samples[k], time.Since(t0))
	}
}

// timerQuantilesUS merges timer k over every probe of the loops and
// returns its p50 and p95 in microseconds.
func timerQuantilesUS(k int, loops ...*loop) (p50, p95 float64) {
	var all []time.Duration
	for _, l := range loops {
		for _, p := range l.probes {
			if p != nil {
				all = append(all, p.samples[k]...)
			}
		}
	}
	return quantileUS(all, 0.50), quantileUS(all, 0.95)
}

// walk is the paper's transaction (§5.2): a random walk of ops objects
// from a random persistent root, each locked exclusive with probability
// updateProb. An exclusive access rewrites the payload or, with
// probability churnProb, retargets the object's glue edge to an object
// the walk already visited.
type walk struct {
	d          *db.Database
	roots      []oid.OID
	ops        int
	updateProb float64
	churnProb  float64
}

// resubmit reports whether err is a transient conflict with the
// reorganizer: a deadlock timeout, or an object that migrated between
// reading its parent and locking it.
func resubmit(err error) bool {
	return errors.Is(err, lock.ErrTimeout) || errors.Is(err, storage.ErrNoObject)
}

// abort rolls tx back and classifies err.
func abort(tx *db.Txn, err error) (bool, error) {
	tx.Abort()
	if resubmit(err) {
		return false, nil
	}
	return false, err
}

func (w walk) attempt(_ int, rng *rand.Rand, pr *probe) (bool, error) {
	t0 := pr.start()
	tx, err := w.d.Begin()
	pr.stop(tBegin, t0)
	if err != nil {
		return false, err
	}
	cur := w.roots[rng.Intn(len(w.roots))]
	var visited []oid.OID
	for step := 0; step < w.ops; step++ {
		mode := lock.Shared
		if rng.Float64() < w.updateProb {
			mode = lock.Exclusive
		}
		t0 = pr.start()
		err := tx.Lock(cur, mode)
		pr.stop(tLock, t0)
		if err != nil {
			return abort(tx, err)
		}
		t0 = pr.start()
		obj, err := tx.Read(cur)
		pr.stop(tRead, t0)
		if err != nil {
			return abort(tx, err)
		}
		visited = append(visited, cur)
		if mode == lock.Exclusive {
			if rng.Float64() < w.churnProb && len(obj.Refs) > 1 && len(visited) > 1 {
				// Glue edges are redundant, so swinging one to an object
				// reached by traversal keeps the reachable set intact.
				victim := obj.Refs[len(obj.Refs)-1]
				target := visited[rng.Intn(len(visited)-1)]
				if victim != target && target != cur {
					if err := tx.DeleteRef(cur, victim); err != nil {
						return abort(tx, err)
					}
					if err := tx.InsertRef(cur, target); err != nil {
						return abort(tx, err)
					}
					obj.Refs[len(obj.Refs)-1] = target
				}
			} else {
				t0 = pr.start()
				err := tx.UpdatePayload(cur, obj.Payload)
				pr.stop(tUpdate, t0)
				if err != nil {
					return abort(tx, err)
				}
			}
		}
		if len(obj.Refs) == 0 {
			break
		}
		cur = obj.Refs[rng.Intn(len(obj.Refs))]
	}
	t0 = pr.start()
	err = tx.Commit()
	pr.stop(tCommit, t0)
	if err != nil {
		if resubmit(err) {
			return false, nil
		}
		return false, err
	}
	return true, nil
}
