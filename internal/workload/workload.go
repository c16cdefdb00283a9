// Package workload implements the paper's experimental workload (§5.2).
//
// The database holds NUMPARTITIONS partitions of NUMOBJS objects each,
// organized into clusters: each cluster is a tree of ClusterSize (85)
// objects, and each node carries one extra "glue" edge to a node of
// another cluster, which lands in a different partition with probability
// GLUEFACTOR. The roots of the clusters are the persistent roots; a root
// table in partition 0 references them (partition 0 stands in for the
// paper's dedicated persistent-root partition, so every cluster root has
// an entry in its partition's ERT).
//
// MPL worker threads each submit one transaction at a time: a random walk
// of OpsPerTrans objects starting at a random persistent root of the
// thread's home partition, locking each object in exclusive mode with
// probability UpdateProb (shared otherwise). A transaction that hits a
// lock timeout is resubmitted until it commits; its response time spans
// all attempts — that is what makes PQR's response-time tail explode.
//
// One deliberate substitution from the paper's testbed: the experiments
// ran on a single 167 MHz CPU that saturated around MPL 5. To reproduce
// that throughput shape on a modern multi-core host, each object access
// spends CPUPerOp inside a simulated CPU — a semaphore of CPUTokens
// servers, capacity 1 by default, emulating the uniprocessor. Set
// CPUPerOp to zero to disable the charge entirely, or CPUTokens to 0
// (hardware mode) to drop the token and spin-burn on the real CPU, so
// the work parallelizes across however many cores the host has.
package workload

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/db"
	"repro/internal/lock"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/oid"
)

// Params are the Table 1 workload parameters plus implementation knobs.
type Params struct {
	NumPartitions       int     // data partitions (Table 1: 10)
	ObjectsPerPartition int     // Table 1: 4080
	MPL                 int     // Table 1: 30
	OpsPerTrans         int     // Table 1: 8
	UpdateProb          float64 // Table 1: 0.5
	GlueFactor          float64 // Table 1: 0.05
	ClusterSize         int     // §5.2: 85 objects per cluster tree
	PayloadSize         int     // §5.3.3: ~100-byte objects
	// RefChurnProb is the probability that an exclusive access retargets
	// the object's glue edge instead of updating its payload. The paper
	// does not spell out the update mix; a small reference-churn share
	// exercises the TRT machinery the algorithm exists for. Set 0 for
	// payload-only updates.
	RefChurnProb float64
	// CPUPerOp is the simulated uniprocessor cost per object access.
	CPUPerOp time.Duration
	// ReorgCPUPerObject is the simulated uniprocessor cost of migrating
	// one object (copying it and rewriting parents); the reorganizer is
	// charged on the same CPU the transactions use.
	ReorgCPUPerObject time.Duration
	// CPUTokens is the capacity of the simulated-CPU semaphore burnCPU
	// charges against. 1 (the DefaultParams value) reproduces the
	// paper's uniprocessor; N > 1 models an N-way machine by admitting N
	// concurrent burners; 0 bypasses the token entirely — the charge is
	// spun on the real CPU with no serialization, which is hardware
	// mode's "as fast as the host allows" trajectory.
	CPUTokens int
	Seed      int64
}

// DefaultParams returns the paper's defaults (Table 1), with one CPU
// token: the paper's uniprocessor.
func DefaultParams() Params {
	return Params{
		CPUTokens:           1,
		NumPartitions:       10,
		ObjectsPerPartition: 4080,
		MPL:                 30,
		OpsPerTrans:         8,
		UpdateProb:          0.5,
		GlueFactor:          0.05,
		ClusterSize:         85,
		PayloadSize:         64,
		RefChurnProb:        0.05,
		CPUPerOp:            50 * time.Microsecond,
		ReorgCPUPerObject:   200 * time.Microsecond,
		Seed:                1,
	}
}

// RootPartition is the partition holding the root table.
const RootPartition oid.PartitionID = 0

// Workload is a built database plus its graph metadata.
type Workload struct {
	DB     *db.Database
	Params Params
	// ClusterRoots[p] lists the persistent roots (cluster tree roots) of
	// data partition p+1.
	ClusterRoots map[oid.PartitionID][]oid.OID
	// RootTable lists the partition-0 objects referencing the cluster
	// roots (one per cluster). These are the persistent roots: walks
	// start here, so every entry into a data partition passes through an
	// external parent — the property PQR's quiesce argument needs.
	RootTable []oid.OID
	// rootsByPart indexes the root-table entries by the data partition
	// their cluster lives in.
	rootsByPart map[oid.PartitionID][]oid.OID

	// cpu is the simulated-CPU semaphore: capacity Params.CPUTokens.
	// nil means the token is bypassed (CPUTokens 0, hardware mode) and
	// burnCPU charges spin on the real CPU unserialized.
	cpu chan struct{}
}

// CPUTokenCapacity returns the built semaphore's capacity (0 when the
// token is bypassed); benchmark reports stamp it into their JSON.
func (w *Workload) CPUTokenCapacity() int {
	if w.cpu == nil {
		return 0
	}
	return cap(w.cpu)
}

// Build creates the database and object graph.
func Build(cfg db.Config, p Params) (*Workload, error) {
	d := db.Open(cfg)
	w := &Workload{
		DB:           d,
		Params:       p,
		ClusterRoots: make(map[oid.PartitionID][]oid.OID),
		rootsByPart:  make(map[oid.PartitionID][]oid.OID),
	}
	if p.CPUTokens > 0 {
		w.cpu = make(chan struct{}, p.CPUTokens)
	}
	if err := d.CreatePartition(RootPartition); err != nil {
		return nil, err
	}
	for i := 1; i <= p.NumPartitions; i++ {
		if err := d.CreatePartition(oid.PartitionID(i)); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(p.Seed))

	// Pass 1: create all cluster trees.
	var clusters []cluster
	for pi := 1; pi <= p.NumPartitions; pi++ {
		part := oid.PartitionID(pi)
		remaining := p.ObjectsPerPartition
		ci := 0
		for remaining > 0 {
			size := p.ClusterSize
			if size > remaining {
				size = remaining
			}
			nodes, err := w.buildClusterTree(part, ci, size, rng)
			if err != nil {
				return nil, err
			}
			clusters = append(clusters, cluster{part: part, nodes: nodes})
			w.ClusterRoots[part] = append(w.ClusterRoots[part], nodes[0])
			remaining -= size
			ci++
		}
	}

	// Pass 2: glue edges — one per node, to a node of another cluster,
	// crossing partitions with probability GlueFactor.
	tx, err := d.Begin()
	if err != nil {
		return nil, err
	}
	ops := 0
	for ci, c := range clusters {
		for _, n := range c.nodes {
			target, ok := w.pickGlueTarget(clusters, ci, rng)
			if !ok {
				continue
			}
			if err := tx.InsertRef(n, target); err != nil {
				tx.Abort()
				return nil, err
			}
			if ops++; ops >= 2000 {
				if err := tx.Commit(); err != nil {
					return nil, err
				}
				if tx, err = d.Begin(); err != nil {
					return nil, err
				}
				ops = 0
			}
		}
	}

	// Pass 3: the root table in partition 0 (one object per cluster).
	for i, c := range clusters {
		root, err := tx.Create(RootPartition, []byte(fmt.Sprintf("root-%05d", i)), []oid.OID{c.nodes[0]})
		if err != nil {
			tx.Abort()
			return nil, err
		}
		w.RootTable = append(w.RootTable, root)
		w.rootsByPart[c.part] = append(w.rootsByPart[c.part], root)
	}
	if err := tx.Commit(); err != nil {
		return nil, err
	}
	return w, nil
}

// cluster is one tree of objects within a partition.
type cluster struct {
	part  oid.PartitionID
	nodes []oid.OID
}

// buildClusterTree creates one cluster: a random tree of size objects in
// part, committed as one transaction. Node i attaches under a random
// earlier node, giving the varied fan-out of real object graphs.
func (w *Workload) buildClusterTree(part oid.PartitionID, ci, size int, rng *rand.Rand) ([]oid.OID, error) {
	tx, err := w.DB.Begin()
	if err != nil {
		return nil, err
	}
	nodes := make([]oid.OID, 0, size)
	for i := 0; i < size; i++ {
		payload := w.payload(part, ci, i)
		o, err := tx.Create(part, payload, nil)
		if err != nil {
			tx.Abort()
			return nil, err
		}
		if i > 0 {
			parent := nodes[rng.Intn(len(nodes))]
			if err := tx.InsertRef(parent, o); err != nil {
				tx.Abort()
				return nil, err
			}
		}
		nodes = append(nodes, o)
	}
	if err := tx.Commit(); err != nil {
		return nil, err
	}
	return nodes, nil
}

// payload builds the unique padded payload for a node.
func (w *Workload) payload(part oid.PartitionID, ci, i int) []byte {
	s := fmt.Sprintf("p%02d-c%04d-n%04d", part, ci, i)
	if len(s) < w.Params.PayloadSize {
		pad := make([]byte, w.Params.PayloadSize-len(s))
		for j := range pad {
			pad[j] = '.'
		}
		s += string(pad)
	}
	return []byte(s)
}

// pickGlueTarget picks a node from a cluster other than self; the cluster
// is in a different partition with probability GlueFactor.
func (w *Workload) pickGlueTarget(clusters []cluster, self int, rng *rand.Rand) (oid.OID, bool) {
	selfPart := clusters[self].part
	crossPartition := rng.Float64() < w.Params.GlueFactor
	// Rejection-sample a suitable cluster; fall back to any other
	// cluster if the layout makes the wish impossible (e.g. a single
	// partition when a cross-partition edge was drawn).
	for attempt := 0; attempt < 64; attempt++ {
		ci := rng.Intn(len(clusters))
		if ci == self {
			continue
		}
		if crossPartition == (clusters[ci].part != selfPart) {
			return clusters[ci].nodes[rng.Intn(len(clusters[ci].nodes))], true
		}
	}
	for ci := range clusters {
		if ci != self {
			return clusters[ci].nodes[rng.Intn(len(clusters[ci].nodes))], true
		}
	}
	return oid.Nil, false
}

// BurnCPU spends d on the simulated uniprocessor; the harness charges
// the reorganizer's migration work here so it competes with transactions
// for the processor.
func (w *Workload) BurnCPU(d time.Duration) { w.burnCPU(d) }

// burnCPU spends d on the simulated CPU. Sub-millisecond costs are spun
// rather than slept: the Go timer's granularity would otherwise inflate
// a 50 µs charge by an order of magnitude and distort every CPU-bound
// shape in the evaluation. With the token bypassed (CPUTokens 0) the
// spin happens with no admission at all — real CPU, real parallelism.
func (w *Workload) burnCPU(d time.Duration) {
	if d <= 0 {
		return
	}
	if w.cpu != nil {
		if obs.Enabled() {
			start := time.Now()
			w.cpu <- struct{}{}
			obs.Observe(obs.CPUWait, time.Since(start))
		} else {
			w.cpu <- struct{}{}
		}
		defer func() { <-w.cpu }()
	}
	if d < time.Millisecond {
		for start := time.Now(); time.Since(start) < d; {
		}
	} else {
		time.Sleep(d)
	}
}

// Roots returns all persistent roots (for the consistency checker, the
// root-table objects are the true graph roots).
func (w *Workload) Roots() []oid.OID {
	return append([]oid.OID(nil), w.RootTable...)
}

// RootsOf returns the persistent roots whose clusters live in part.
func (w *Workload) RootsOf(part oid.PartitionID) []oid.OID {
	return append([]oid.OID(nil), w.rootsByPart[part]...)
}

// Driver runs MPL worker threads against the workload.
type Driver struct {
	w   *Workload
	rec *metrics.Recorder
	mpl int

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewDriver creates a driver with the workload's MPL.
func NewDriver(w *Workload, rec *metrics.Recorder) *Driver {
	return &Driver{w: w, rec: rec, mpl: w.Params.MPL, stop: make(chan struct{})}
}

// Start launches the MPL threads. Threads are assigned home partitions
// uniformly (thread t → partition 1 + t mod NumPartitions).
func (d *Driver) Start() {
	for t := 0; t < d.mpl; t++ {
		home := oid.PartitionID(1 + t%d.w.Params.NumPartitions)
		d.wg.Add(1)
		go d.thread(t, home)
	}
}

// Stop halts all threads and waits for them to drain.
func (d *Driver) Stop() {
	close(d.stop)
	d.wg.Wait()
}

func (d *Driver) stopped() bool {
	select {
	case <-d.stop:
		return true
	default:
		return false
	}
}

// thread submits transactions one after another; a transaction aborted by
// a lock timeout is resubmitted until it commits, and its response time
// covers all attempts (see package comment).
func (d *Driver) thread(id int, home oid.PartitionID) {
	defer d.wg.Done()
	rng := rand.New(rand.NewSource(d.w.Params.Seed + 1000*int64(id+1)))
	// Each thread records through its own shard handle so the metrics
	// hot path never funnels all MPL threads through one mutex.
	rec := d.rec.Handle(id)
	// Walks start at the persistent roots of the home partition, which
	// live in the root partition — every entry into the data partition
	// goes through an external parent, as the system model requires.
	roots := d.w.rootsByPart[home]
	for !d.stopped() {
		start := time.Now()
		for !d.stopped() {
			committed, err := d.runWalk(rng, roots)
			if err != nil {
				return // database closed
			}
			if committed {
				rec.Record(time.Since(start))
				break
			}
			rec.RecordAbort()
		}
	}
}

// runWalk performs one random-walk transaction attempt. It returns
// (false, nil) when the transaction was aborted by a lock timeout and
// should be resubmitted.
func (d *Driver) runWalk(rng *rand.Rand, roots []oid.OID) (bool, error) {
	p := d.w.Params
	tx, err := d.w.DB.Begin()
	if err != nil {
		return false, err
	}
	cur := roots[rng.Intn(len(roots))]
	// visited is the transaction's "local memory": references it has
	// legitimately obtained by following the graph from a persistent
	// root. Reference churn may only install references from here — the
	// system model forbids conjuring an address from outside (§2).
	var visited []oid.OID
	traced := obs.Enabled()
	for step := 0; step < p.OpsPerTrans; step++ {
		var opStart time.Time
		if traced {
			opStart = time.Now()
		}
		mode := lock.Shared
		if rng.Float64() < p.UpdateProb {
			mode = lock.Exclusive
		}
		if err := tx.Lock(cur, mode); err != nil {
			tx.Abort()
			return false, nil
		}
		obj, err := tx.Read(cur)
		if err != nil {
			// The object vanished between choosing it and locking it
			// (it migrated). Resubmit from a root — exactly what a real
			// application would do on a broken traversal retry.
			tx.Abort()
			return false, nil
		}
		d.w.burnCPU(p.CPUPerOp)
		visited = append(visited, cur)
		if mode == lock.Exclusive {
			if rng.Float64() < p.RefChurnProb && len(obj.Refs) > 1 && len(visited) > 1 {
				// Retarget the glue edge (the last reference) to an
				// object from the transaction's local memory; glue
				// edges are redundant, so the reachable set is intact.
				victim := obj.Refs[len(obj.Refs)-1]
				target := visited[rng.Intn(len(visited)-1)]
				if victim != target && target != cur {
					if err := tx.DeleteRef(cur, victim); err != nil {
						tx.Abort()
						return false, nil
					}
					if err := tx.InsertRef(cur, target); err != nil {
						tx.Abort()
						return false, nil
					}
					obj.Refs[len(obj.Refs)-1] = target
				}
			} else if err := tx.UpdatePayload(cur, obj.Payload); err != nil {
				tx.Abort()
				return false, nil
			}
		}
		if traced {
			obs.Observe(obs.TxnOp, time.Since(opStart))
		}
		if len(obj.Refs) == 0 {
			break
		}
		cur = obj.Refs[rng.Intn(len(obj.Refs))]
	}
	if err := tx.Commit(); err != nil {
		return false, nil
	}
	return true, nil
}
