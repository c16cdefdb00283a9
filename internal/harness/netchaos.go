package harness

// The socket-chaos cell is the torture harness's committed-prefix
// discipline pointed at the network layer: MPL wire-protocol clients
// increment counters through the server while net/conn-drop and
// net/stall faults kill and delay connections mid-transaction, and a
// reorganization fleet migrates every data partition underneath. The
// oracle is the same acked ≤ stored ≤ issued invariant the crash
// torture uses — a commit the client saw acked must be in the database,
// a value the database holds must have been issued by some client —
// plus the logical tree signature (reorganization moved bytes, never
// meaning) and a leak sweep (no transaction or lock survives its
// connection).
//
// The cell ends with the drain protocol under fire: a second fleet is
// started and the server drained mid-flight, asserting the fleet stops
// with reorg.ErrFleetStopped (deliberate shutdown, not a failure) and
// the drain itself completes cleanly.

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/check"
	"repro/internal/client"
	"repro/internal/fault"
	"repro/internal/oid"
	"repro/internal/reorg"
	"repro/internal/server"
)

// NetChaosConfig sizes the socket-chaos cell.
type NetChaosConfig struct {
	Seed                int64
	Partitions          int
	ObjectsPerPartition int
	Counters            int
	MPL                 int
	Workers             int // fleet pool size
	Mode                reorg.Mode
	// Duration is the minimum chaos phase length; the phase also waits
	// for the first fleet to finish.
	Duration time.Duration
	// DropProb / StallProb / StallDelay arm the socket fault points.
	DropProb   float64
	StallProb  float64
	StallDelay time.Duration
	// Hardware sets TortureConfig.Hardware for the cell's database.
	Hardware bool
}

func (c *NetChaosConfig) defaults() {
	if c.Partitions <= 0 {
		c.Partitions = 4
	}
	if c.ObjectsPerPartition <= 0 {
		c.ObjectsPerPartition = 60
	}
	if c.Counters <= 0 {
		c.Counters = 8
	}
	if c.MPL <= 0 {
		c.MPL = 8
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.Duration <= 0 {
		c.Duration = 2 * time.Second
	}
	if c.DropProb <= 0 {
		c.DropProb = 0.05
	}
	if c.StallProb <= 0 {
		c.StallProb = 0.05
	}
	if c.StallDelay <= 0 {
		c.StallDelay = time.Millisecond
	}
}

// NetChaosResult records what the cell observed. Any violated invariant
// is returned as an error instead.
type NetChaosResult struct {
	Commits  uint64 `json:"commits"`
	Aborts   uint64 `json:"aborts"`
	Unknowns uint64 `json:"commit_unknowns"`
	Firings  int    `json:"fault_firings"`
	// Migrated is the first fleet's total migrated-object count.
	Migrated int                  `json:"migrated"`
	Server   server.StatsSnapshot `json:"server"`
	// DrainStoppedFleet is true when the drain-phase fleet reported
	// reorg.ErrFleetStopped (always true when RunNetChaos returns nil).
	DrainStoppedFleet bool `json:"drain_stopped_fleet"`
}

// netChaosWalker runs one client's increment loop until stop closes or
// the server starts draining.
func netChaosWalker(cl *client.Client, seed int64, ctrRoot oid.OID, oracle *ctrOracle,
	res *NetChaosResult, stop <-chan struct{}, fatal func(error)) {
	defer cl.Close()
	rng := rand.New(rand.NewSource(seed))
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	for !stopped() {
		tx, err := cl.Begin()
		if err != nil {
			switch {
			case errors.Is(err, client.ErrShed):
				var shed *client.ShedError
				if errors.As(err, &shed) && shed.After > 0 {
					time.Sleep(shed.After)
				}
			case errors.Is(err, client.ErrDraining), errors.Is(err, client.ErrClosed), errors.Is(err, client.ErrRejected):
				return
			}
			continue // dropped connection: the pool redials on the next Begin
		}
		// Resolve the counter through the root every transaction: its
		// OID changes as reorganization migrates it.
		root, err := tx.Read(ctrRoot, false)
		if err != nil || len(root.Refs) == 0 {
			atomic.AddUint64(&res.Aborts, 1)
			continue
		}
		ctr := root.Refs[rng.Intn(len(root.Refs))]
		obj, err := tx.Read(ctr, true)
		if err != nil {
			atomic.AddUint64(&res.Aborts, 1)
			continue
		}
		i, v, err := parseCtr(obj.Payload)
		if err != nil {
			tx.Abort()
			fatal(fmt.Errorf("netchaos: counter payload corrupt over wire: %w", err))
			return
		}
		// Issued before the update can reach the server: from here on a
		// commit may land even if we never see the ack.
		oracle.issue(i, v+1)
		if err := tx.Update(ctr, ctrPayload(i, v+1)); err != nil {
			atomic.AddUint64(&res.Aborts, 1)
			continue
		}
		switch err := tx.Commit(); {
		case err == nil:
			oracle.ack(i, v+1)
			atomic.AddUint64(&res.Commits, 1)
		case errors.Is(err, client.ErrCommitUnknown):
			// The committed-prefix oracle absorbs the ambiguity: the
			// value stays issued-but-unacked.
			atomic.AddUint64(&res.Unknowns, 1)
		default:
			atomic.AddUint64(&res.Aborts, 1)
		}
	}
}

// RunNetChaos runs the socket-chaos cell and verifies every invariant.
func RunNetChaos(w io.Writer, cfg NetChaosConfig) (*NetChaosResult, error) {
	cfg.defaults()
	tortureMu.Lock()
	defer tortureMu.Unlock()

	world := &tortureWorld{
		cfg: TortureConfig{
			Seed:                cfg.Seed,
			Partitions:          cfg.Partitions,
			ObjectsPerPartition: cfg.ObjectsPerPartition,
			Counters:            cfg.Counters,
			Mode:                cfg.Mode,
			Hardware:            cfg.Hardware,
		},
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		oracle: newCtrOracle(cfg.Counters),
	}
	world.cfg.defaults()
	if err := world.build(); err != nil {
		return nil, fmt.Errorf("netchaos: build fixture: %w", err)
	}
	d := world.d
	defer d.Close()

	// The drain phase stops whichever fleet is live at that moment.
	var fleetStop atomic.Pointer[func()]
	srv, addr, err := server.Start(server.Config{
		DB: d,
		Catalog: func(name string) []oid.OID {
			if name == "ctr-root" {
				return []oid.OID{world.ctrRoot}
			}
			return nil
		},
		FleetStop: func() {
			if f := fleetStop.Load(); f != nil {
				(*f)()
			}
		},
	}, "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("netchaos: start server: %w", err)
	}
	defer srv.Close()

	reg := fault.NewRegistry(cfg.Seed)
	reg.Arm(fault.Trigger{Point: fault.NetConnDrop, Kind: fault.KindError, Prob: cfg.DropProb, Times: fault.Forever})
	reg.Arm(fault.Trigger{Point: fault.NetStall, Kind: fault.KindDelay, Prob: cfg.StallProb, Delay: cfg.StallDelay, Times: fault.Forever})
	restore := fault.Install(reg)
	defer restore()

	res := &NetChaosResult{}
	var fatalMu sync.Mutex
	var fatalErr error
	fatal := func(err error) {
		fatalMu.Lock()
		if fatalErr == nil {
			fatalErr = err
		}
		fatalMu.Unlock()
	}

	stop := make(chan struct{})
	var walkers sync.WaitGroup
	for t := 0; t < cfg.MPL; t++ {
		cl, err := client.Dial(client.Config{
			Addr:   addr.String(),
			Tenant: fmt.Sprintf("chaos-%d", t%2),
			Seed:   cfg.Seed + 31*int64(t+1),
		})
		if err != nil {
			close(stop)
			walkers.Wait()
			return nil, fmt.Errorf("netchaos: dial walker %d: %w", t, err)
		}
		walkers.Add(1)
		go func(t int, cl *client.Client) {
			defer walkers.Done()
			netChaosWalker(cl, cfg.Seed+1000*int64(t+1), world.ctrRoot, world.oracle, res, stop, fatal)
		}(t, cl)
	}

	// Phase A: reorganize every data partition under socket chaos.
	var parts []oid.PartitionID
	for p := 1; p <= cfg.Partitions; p++ {
		parts = append(parts, oid.PartitionID(p))
	}
	fleet1, err := reorg.NewScheduler(d, parts, reorg.FleetOptions{
		Workers: cfg.Workers,
		Reorg:   reorg.Options{Mode: cfg.Mode},
	})
	if err != nil {
		close(stop)
		walkers.Wait()
		return nil, fmt.Errorf("netchaos: fleet: %w", err)
	}
	chaosEnd := time.Now().Add(cfg.Duration)
	if err := fleet1.Run(); err != nil {
		close(stop)
		walkers.Wait()
		return nil, fmt.Errorf("netchaos: chaos-phase fleet failed: %w", err)
	}
	res.Migrated = fleet1.Stats().Migrated
	if rest := time.Until(chaosEnd); rest > 0 {
		time.Sleep(rest) // keep the chaos going for the full budget
	}
	restore() // chaos over: the drain phase must be deterministic

	// Phase B: drain mid-fleet. PerObjectWork keeps the second fleet
	// alive long enough for the drain to interrupt it.
	fleet2, err := reorg.NewScheduler(d, parts, reorg.FleetOptions{
		Workers: cfg.Workers,
		Reorg: reorg.Options{
			Mode:          cfg.Mode,
			PerObjectWork: func() { time.Sleep(time.Millisecond) },
		},
	})
	if err != nil {
		close(stop)
		walkers.Wait()
		return nil, fmt.Errorf("netchaos: drain-phase fleet: %w", err)
	}
	stopFn := fleet2.Stop
	fleetStop.Store(&stopFn)
	fleet2Err := make(chan error, 1)
	go func() { fleet2Err <- fleet2.Run() }()
	time.Sleep(30 * time.Millisecond) // let the fleet start migrating
	if err := srv.Drain(); err != nil {
		close(stop)
		walkers.Wait()
		return nil, fmt.Errorf("netchaos: drain did not complete cleanly: %w", err)
	}
	ferr := <-fleet2Err
	if !errors.Is(ferr, reorg.ErrFleetStopped) {
		close(stop)
		walkers.Wait()
		return nil, fmt.Errorf("netchaos: drained fleet should report ErrFleetStopped, got %v", ferr)
	}
	for p, perr := range fleet2.Failures() {
		if !errors.Is(perr, reorg.ErrFleetStopped) {
			close(stop)
			walkers.Wait()
			return nil, fmt.Errorf("netchaos: partition %d failed with %v, not a deliberate stop", p, perr)
		}
	}
	res.DrainStoppedFleet = true
	close(stop)
	walkers.Wait()
	if fatalErr != nil {
		return nil, fatalErr
	}

	// Leak sweep: every transaction a dead or drained connection opened
	// must be gone, and with it every lock.
	deadline := time.Now().Add(2 * time.Second)
	for len(d.ActiveTxnIDs()) > 0 {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("netchaos: %d transactions leaked after drain", len(d.ActiveTxnIDs()))
		}
		time.Sleep(2 * time.Millisecond)
	}
	if holders := d.Locks().ActiveTxns(); len(holders) > 0 {
		return nil, fmt.Errorf("netchaos: %d lock holders leaked after drain", len(holders))
	}

	// Committed-prefix oracle over the stored counters.
	recovered, err := world.readCounters()
	if err != nil {
		return nil, fmt.Errorf("netchaos: %w", err)
	}
	if err := world.oracle.checkAndReset(recovered); err != nil {
		return nil, fmt.Errorf("netchaos: %w", err)
	}

	// Reorganization moved bytes, never meaning: the logical tree
	// signature is untouched by counter updates and migration alike.
	sig, err := check.Signature(d, world.treeRoots)
	if err != nil {
		return nil, fmt.Errorf("netchaos: signature: %w", err)
	}
	if !sigEqual(world.treeSig, sig) {
		return nil, fmt.Errorf("netchaos: tree signature changed across reorganization under chaos")
	}
	rep, err := check.Verify(d, world.allRoots)
	if err != nil {
		return nil, fmt.Errorf("netchaos: verify: %w", err)
	}
	if err := rep.Err(); err != nil {
		return nil, fmt.Errorf("netchaos: integrity check failed: %w", err)
	}

	res.Firings = len(reg.Firings())
	res.Server = srv.StatsSnapshot()
	if res.Commits == 0 {
		return nil, fmt.Errorf("netchaos: no transaction ever committed — the cell measured nothing")
	}
	if res.Firings == 0 {
		return nil, fmt.Errorf("netchaos: no fault ever fired — the cell injected nothing")
	}
	fmt.Fprintf(w, "netchaos: %d commits, %d aborts, %d commit-unknowns, %d firings, %d orphans aborted, %d migrated, drain clean\n",
		res.Commits, res.Aborts, res.Unknowns, res.Firings, res.Server.Orphans, res.Migrated)
	return res, nil
}
