package reorg

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/db"
	"repro/internal/lock"
	"repro/internal/metrics"
	"repro/internal/oid"
	"repro/internal/wal"
)

// ErrFleetStopped marks a deliberate fleet shutdown — Stop was asked
// for, nothing went wrong. Callers that stop the fleet as part of their
// own shutdown (the network server's drain path) match on this to tell
// "we shut it down" apart from a real failure like ErrQuiesced.
var ErrFleetStopped = errors.New("reorg: fleet stopped")

// ErrStopped is returned for partitions the scheduler abandoned because
// Stop was called. Unlike ErrCrash this is a clean abort: in-flight
// transactions are rolled back and TRTs detached before Run returns.
// It wraps ErrFleetStopped, so errors.Is(err, ErrFleetStopped) holds.
var ErrStopped = fmt.Errorf("reorg: scheduler stopped: %w", ErrFleetStopped)

// ErrQuiesced is returned for partitions the scheduler abandoned
// because a worker hit a failed log device (wal.ErrDeviceFailed).
// Migration cannot make progress when nothing can commit, so the
// fleet stops cleanly — checkpointed states remain available for a
// resume once the database is recovered — rather than letting every
// worker grind through its retry budget against a dead log.
var ErrQuiesced = errors.New("reorg: fleet quiesced (log device failed)")

// FleetOptions configures a Scheduler.
type FleetOptions struct {
	// Workers is the pool size; <= 0 means 4. The pool is never larger
	// than the number of partitions.
	Workers int
	// Reorg is the template Options given to every per-partition
	// reorganizer. Mode, BatchSize, retry and checkpoint settings all come
	// from here; the scheduler chains its own Gate, OnCheckpoint and
	// PerObjectWork hooks in front of any the template carries.
	Reorg Options
	// Configure, if set, customizes the cloned template for one partition
	// (e.g. a per-partition Plan or Failpoint) before the scheduler
	// installs its hooks.
	Configure func(part oid.PartitionID, o *Options)
	// OnCheckpoint receives every per-partition state snapshot, tagged
	// with its partition. The scheduler also retains the latest snapshot
	// per partition internally (see States) regardless of this hook.
	OnCheckpoint func(part oid.PartitionID, s *State)
	// OnPartitionDone is invoked as each partition finishes, with its
	// stats and error (nil on success). Called outside scheduler locks.
	OnPartitionDone func(part oid.PartitionID, st Stats, err error)
	// ResumeStates maps partitions to checkpointed states from a previous
	// interrupted fleet; those partitions resume via Resume instead of
	// starting fresh. Records must then hold the durable log records that
	// survived the crash (recovery.Image.Records) for TRT rebuild. The
	// rebuild happens inside NewScheduler — create the scheduler before
	// admitting transactions that could change references, or the rebuilt
	// TRTs miss them.
	ResumeStates map[oid.PartitionID]*State
	Records      []*wal.Record
	// Fleet, if set, receives live per-worker progress counters readable
	// while the fleet runs (Reorganizer.Stats is only safe after Run).
	Fleet *metrics.FleetRecorder
}

// partition lifecycle inside the scheduler.
type partStatus int

const (
	partPending partStatus = iota
	partRunning
	partDone
	partFailed
)

// Scheduler fans IRA out over many partitions with a worker pool, while
// concurrent transactions keep running. The paper's per-partition locking
// discipline makes this sound with one addition: each worker's
// reorganizer locks the object in flight plus its parents (old+new
// addresses plus one parent in two-lock mode) — the object's own lock is
// what serializes two workers whose objects reference each other (see
// migrateOne's S0). TRTs are per-partition, and ERT maintenance is
// serialized by the WAL append observer — so the fleet's total lock
// footprint stays bounded by workers × the single-reorganizer bound, and
// cross-partition reference updates are race-free.
type Scheduler struct {
	d     *db.Database
	parts []oid.PartitionID
	opts  FleetOptions

	mu      sync.Mutex
	cond    *sync.Cond
	paused  bool
	stopped bool
	// quiesceCause, when non-nil, records the device failure that made
	// the scheduler stop itself; abandoned partitions then fail with
	// ErrQuiesced instead of ErrStopped.
	quiesceCause error
	running      bool
	ran          bool

	status   map[oid.PartitionID]partStatus
	stats    map[oid.PartitionID]Stats
	failures map[oid.PartitionID]error
	states   map[oid.PartitionID]*State
	// resumed holds reorganizers rebuilt eagerly from ResumeStates at
	// construction time, so every resumed partition's TRT observes all
	// reference changes of the new life — including repoints by sibling
	// partitions that run earlier in this fleet. Lazy resume inside the
	// worker loop would miss those (the §4.4 rebuild covers only records
	// durable before the crash).
	resumed map[oid.PartitionID]*Reorganizer

	started  time.Time
	finished time.Time
}

// NewScheduler creates a scheduler over the given partitions. The
// partition list must be non-empty and free of duplicates: two
// reorganizers on one partition would fight over a single TRT.
func NewScheduler(d *db.Database, parts []oid.PartitionID, opts FleetOptions) (*Scheduler, error) {
	if len(parts) == 0 {
		return nil, errors.New("reorg: scheduler needs at least one partition")
	}
	seen := make(map[oid.PartitionID]bool, len(parts))
	for _, p := range parts {
		if seen[p] {
			return nil, fmt.Errorf("reorg: partition %d listed twice", p)
		}
		seen[p] = true
	}
	if opts.Workers <= 0 {
		opts.Workers = 4
	}
	if opts.Workers > len(parts) {
		opts.Workers = len(parts)
	}
	s := &Scheduler{
		d:        d,
		parts:    append([]oid.PartitionID(nil), parts...),
		opts:     opts,
		status:   make(map[oid.PartitionID]partStatus, len(parts)),
		stats:    make(map[oid.PartitionID]Stats, len(parts)),
		failures: make(map[oid.PartitionID]error),
		states:   make(map[oid.PartitionID]*State),
	}
	s.cond = sync.NewCond(&s.mu)
	for _, p := range parts {
		s.status[p] = partPending
	}
	// Rebuild resumed reorganizers now, before the caller admits any
	// transaction (or sibling partition) that could change references:
	// Resume's TRT rebuild covers only the durable pre-crash log, so the
	// attach must happen before anything new is logged.
	s.resumed = make(map[oid.PartitionID]*Reorganizer)
	for _, p := range s.parts {
		st := opts.ResumeStates[p]
		if st == nil {
			continue
		}
		o := opts.Reorg
		if opts.Configure != nil {
			opts.Configure(p, &o)
		}
		r, err := Resume(d, st, opts.Records, o)
		if err != nil {
			for _, prev := range s.resumed {
				prev.abandon()
			}
			return nil, fmt.Errorf("reorg: resume partition %d: %w", p, err)
		}
		s.resumed[p] = r
		// Until the reorganizer emits a checkpoint of its own, a fresh
		// snapshot of the just-rebuilt state is the partition's latest
		// known checkpoint. Without this seeding a crash before the
		// worker reaches p would erase the state — and with it any
		// in-flight two-lock migration, leaking the already-created
		// copy forever on the next (then fresh) restart. A re-snapshot,
		// not the passed state: the rebuilt TRT already folds in the
		// old records, so the snapshot's TRT horizon must point at this
		// life's log tail, not the previous life's. (nil only if the
		// new life's log device is already dead — then no checkpoint
		// can be grounded and the partition restarts fresh next time.)
		if st := r.snapshotState(); st != nil {
			s.states[p] = st
		}
	}
	return s, nil
}

// Workers returns the effective pool size.
func (s *Scheduler) Workers() int { return s.opts.Workers }

// Run reorganizes every partition, blocking until all have finished,
// failed, or been abandoned. It returns nil only if every partition
// succeeded; otherwise the joined per-partition errors (inspect Failures
// for the breakdown). A worker that hits ErrCrash dies — its partition is
// recorded as crashed and the rest of the queue drains to the surviving
// workers, so one simulated failure never aborts the fleet.
func (s *Scheduler) Run() error {
	s.mu.Lock()
	if s.running || s.ran {
		s.mu.Unlock()
		return errors.New("reorg: scheduler already run")
	}
	s.running = true
	s.started = time.Now()
	s.mu.Unlock()

	queue := make(chan oid.PartitionID, len(s.parts))
	for _, p := range s.parts {
		queue <- p
	}
	close(queue)

	var wg sync.WaitGroup
	for w := 0; w < s.opts.Workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			s.workerLoop(worker, queue)
		}(w)
	}
	wg.Wait()

	// Partitions still queued here had no live worker left to run them
	// (every worker crashed, or Stop raced the queue drain).
	s.mu.Lock()
	// Resumed reorganizers no worker reached still hold their TRTs;
	// release them so a later fleet can resume these partitions again.
	for _, r := range s.resumed {
		r.abandon()
	}
	s.resumed = nil
	for p := range queue {
		s.status[p] = partFailed
		if s.stopped {
			s.failures[p] = s.stopErrLocked()
		} else {
			s.failures[p] = fmt.Errorf("reorg: partition %d not started: %w", p, ErrCrash)
		}
	}
	s.running = false
	s.ran = true
	s.finished = time.Now()
	var errs []error
	for _, p := range s.parts {
		if err := s.failures[p]; err != nil {
			errs = append(errs, fmt.Errorf("partition %d: %w", p, err))
		}
	}
	s.mu.Unlock()
	return errors.Join(errs...)
}

// workerLoop pulls partitions off the queue until it is empty or the
// worker crashes.
func (s *Scheduler) workerLoop(worker int, queue <-chan oid.PartitionID) {
	for p := range queue {
		s.mu.Lock()
		if s.stopped {
			stopErr := s.stopErrLocked()
			s.status[p] = partFailed
			s.failures[p] = stopErr
			s.mu.Unlock()
			if s.opts.OnPartitionDone != nil {
				s.opts.OnPartitionDone(p, Stats{Partition: p}, stopErr)
			}
			continue
		}
		s.status[p] = partRunning
		s.mu.Unlock()

		st, err := s.runPartition(worker, p)

		s.mu.Lock()
		s.stats[p] = st
		if err != nil {
			s.status[p] = partFailed
			s.failures[p] = err
			if errors.Is(err, wal.ErrDeviceFailed) && !s.stopped {
				// The log device is dead: nothing can commit anywhere,
				// so further migration attempts are wasted retries.
				// Quiesce the whole fleet cleanly; checkpointed states
				// stay resumable after the database recovers.
				s.stopped = true
				s.quiesceCause = err
				s.cond.Broadcast()
			}
		} else {
			s.status[p] = partDone
		}
		s.mu.Unlock()

		if s.opts.Fleet != nil {
			if err != nil {
				s.opts.Fleet.PartitionFailed(worker)
			} else {
				s.opts.Fleet.PartitionDone(worker, st.Migrated)
			}
		}
		if s.opts.OnPartitionDone != nil {
			s.opts.OnPartitionDone(p, st, err)
		}
		if errors.Is(err, ErrCrash) {
			// The worker is dead: like a crashed process it takes no more
			// work. Its in-flight transaction (if any) still holds locks
			// until ARIES restart, exactly as Reorganizer.Run leaves it.
			return
		}
	}
}

// runPartition clones the template options for p, installs the
// scheduler's hooks, and runs (or resumes) the partition's reorganizer.
func (s *Scheduler) runPartition(worker int, p oid.PartitionID) (Stats, error) {
	o := s.opts.Reorg
	if s.opts.Configure != nil {
		s.opts.Configure(p, &o)
	}
	o.Worker = worker // tag observability spans with the driving worker

	userStopped := o.Stopped
	o.Stopped = func() error {
		s.mu.Lock()
		stopped := s.stopped
		var serr error
		if stopped {
			serr = s.stopErrLocked()
		}
		s.mu.Unlock()
		if stopped {
			return serr
		}
		if userStopped != nil {
			return userStopped()
		}
		return nil
	}
	userGate := o.Gate
	o.Gate = func() error {
		if err := s.gateWait(); err != nil {
			return err
		}
		if userGate != nil {
			return userGate()
		}
		return nil
	}
	userCkpt := o.OnCheckpoint
	o.OnCheckpoint = func(st *State) {
		s.mu.Lock()
		s.states[p] = st
		s.mu.Unlock()
		if s.opts.OnCheckpoint != nil {
			s.opts.OnCheckpoint(p, st)
		}
		if userCkpt != nil {
			userCkpt(st)
		}
	}
	userWork := o.PerObjectWork
	o.PerObjectWork = func() {
		if s.opts.Fleet != nil {
			s.opts.Fleet.Attempt(worker)
		}
		if userWork != nil {
			userWork()
		}
	}

	var r *Reorganizer
	if r = s.takeResumed(p); r != nil {
		// The reorganizer was rebuilt (TRT attached) at construction;
		// swap in the hook-wrapped options, keeping the mode Resume
		// restored from the checkpointed state.
		o.Mode = r.opts.Mode
		r.opts = o
	} else {
		r = New(s.d, p, o)
	}
	err := r.Run()
	return r.Stats(), err
}

// takeResumed claims the eagerly-resumed reorganizer for p, if any.
func (s *Scheduler) takeResumed(p oid.PartitionID) *Reorganizer {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.resumed[p]
	delete(s.resumed, p)
	return r
}

// stopErrLocked returns the error abandoned partitions fail with:
// ErrQuiesced (wrapping the device failure) when the scheduler
// stopped itself, ErrStopped when the caller asked. Caller holds s.mu.
func (s *Scheduler) stopErrLocked() error {
	if s.quiesceCause != nil {
		return fmt.Errorf("%w: %v", ErrQuiesced, s.quiesceCause)
	}
	return ErrStopped
}

// gateWait blocks while the fleet is paused and aborts when stopped. It
// is called by each worker's reorganizer at object boundaries, where no
// reorganizer locks are held.
func (s *Scheduler) gateWait() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.paused && !s.stopped {
		s.cond.Wait()
	}
	if s.stopped {
		return s.stopErrLocked()
	}
	return nil
}

// Pause makes every worker block at its next object boundary. Locks are
// never held across the pause, so concurrent transactions run unimpeded.
func (s *Scheduler) Pause() {
	s.mu.Lock()
	s.paused = true
	s.mu.Unlock()
}

// Resume releases a Pause.
func (s *Scheduler) Resume() {
	s.mu.Lock()
	s.paused = false
	s.mu.Unlock()
	s.cond.Broadcast()
}

// Stop aborts the fleet cleanly: running workers roll back their
// in-flight work at the next object boundary and detach their TRTs;
// unstarted partitions are marked failed with ErrStopped.
func (s *Scheduler) Stop() {
	s.mu.Lock()
	s.stopped = true
	s.mu.Unlock()
	s.cond.Broadcast()
}

// FleetStats aggregates per-partition reorganization statistics.
type FleetStats struct {
	Partitions int // total partitions scheduled
	Done       int
	Failed     int
	Pending    int // not yet finished (includes running)

	Traversed      int
	Migrated       int
	ParentsUpdated int
	Retries        int
	Garbage        int
	// MaxWorkerLocks is the largest lock count any single reorganizer
	// held at once; the fleet-wide footprint is bounded by
	// Workers × MaxWorkerLocks (workers × ≤3 entries in two-lock mode:
	// old + new + one parent).
	MaxWorkerLocks int

	// Locks is the database lock manager's cumulative counters at the
	// time Stats was taken (grants, queued waits, deadlock timeouts). The
	// counters cover the whole database — fleet workers and concurrent
	// transactions alike — and are atomics, so snapshotting them never
	// contends with the grant path.
	Locks lock.Stats

	Started  time.Time
	Finished time.Time

	PerPartition map[oid.PartitionID]Stats
}

// Duration returns the fleet's wall-clock reorganization time.
func (s FleetStats) Duration() time.Duration { return s.Finished.Sub(s.Started) }

// Stats aggregates the statistics of every finished partition. Safe to
// call at any time, including while the fleet runs — partitions still in
// flight simply count as Pending (use a metrics.FleetRecorder for live
// object-level progress).
func (s *Scheduler) Stats() FleetStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := FleetStats{
		Partitions:   len(s.parts),
		Locks:        s.d.Locks().Stats(),
		Started:      s.started,
		Finished:     s.finished,
		PerPartition: make(map[oid.PartitionID]Stats, len(s.stats)),
	}
	for _, p := range s.parts {
		switch s.status[p] {
		case partDone:
			out.Done++
		case partFailed:
			out.Failed++
		default:
			out.Pending++
		}
		st, ok := s.stats[p]
		if !ok {
			continue
		}
		out.PerPartition[p] = st
		out.Traversed += st.Traversed
		out.Migrated += st.Migrated
		out.ParentsUpdated += st.ParentsUpdated
		out.Retries += st.Retries
		out.Garbage += st.Garbage
		if st.MaxLocksHeld > out.MaxWorkerLocks {
			out.MaxWorkerLocks = st.MaxLocksHeld
		}
	}
	return out
}

// Failures returns the per-partition errors of a finished (or stopped)
// fleet, keyed by partition. Partitions that succeeded are absent.
func (s *Scheduler) Failures() map[oid.PartitionID]error {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[oid.PartitionID]error, len(s.failures))
	for p, err := range s.failures {
		out[p] = err
	}
	return out
}

// States returns the latest checkpointed state per partition — the
// resume inputs after a crash. A partition appears once its reorganizer
// emits a checkpoint, or immediately if it was itself constructed from
// a ResumeStates entry (the passed state stands until superseded).
func (s *Scheduler) States() map[oid.PartitionID]*State {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[oid.PartitionID]*State, len(s.states))
	for p, st := range s.states {
		out[p] = st
	}
	return out
}
