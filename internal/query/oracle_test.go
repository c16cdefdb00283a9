package query

// The equivalence oracle: random operator pipelines over random object
// graphs must return the same multiset of rows as a naive in-memory
// walk of the graph model — identity is payload, never OID, because
// reorganization changes addresses but must preserve values. Each
// seeded case checks the pipeline three ways: on the quiescent
// database, repeatedly while an IRA compaction pass migrates every
// data partition under it, and once more quiescent after the reorg.

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/db"
	"repro/internal/oid"
	"repro/internal/reorg"
	"repro/internal/testkit"
)

// mnode is one object in the in-memory graph model. Index 0..P-1 are
// the partition anchors (partition 0); the rest are data nodes.
type mnode struct {
	payload string
	part    int
	refs    []int
}

type model struct {
	nodes   []mnode
	anchors []int // node indices of the partition-0 anchors
}

// mrow is the model's Row: what survives of a Row when identity is
// logical. refs carries the outgoing edge list so joins and aggregates
// can be evaluated without the store.
type mrow struct {
	payload string
	refs    []int
	depth   int
}

// buildOracleWorld creates a random graph in both representations.
// Every data node is reachable from its partition's anchor (node i>0
// of a partition is referenced by an earlier node of the same
// partition), plus random extra intra- and cross-partition edges —
// including back edges, so cycles are common.
func buildOracleWorld(t *testing.T, c testkit.Cell, rng *rand.Rand, parts, perPart int) (*db.Database, *model, []oid.OID) {
	t.Helper()
	cfg := db.DefaultConfig()
	cfg.FlushLatency = 0
	// Queries S-lock everything they return, so they collide with the
	// concurrent compaction pass constantly; short lock waits keep the
	// collisions cheap (timeout → restart) instead of serializing both
	// sides behind full-length waits.
	cfg.LockTimeout = 100 * time.Millisecond
	d := db.Open(c.Config(t, cfg))
	t.Cleanup(d.Close)
	for p := 0; p <= parts; p++ {
		if err := d.CreatePartition(oid.PartitionID(p)); err != nil {
			t.Fatal(err)
		}
	}

	m := &model{}
	for p := 1; p <= parts; p++ {
		m.anchors = append(m.anchors, len(m.nodes))
		m.nodes = append(m.nodes, mnode{payload: fmt.Sprintf("p0-anchor%d", p), part: 0})
	}
	byPart := make([][]int, parts+1)
	for p := 1; p <= parts; p++ {
		for i := 0; i < perPart; i++ {
			idx := len(m.nodes)
			m.nodes = append(m.nodes, mnode{payload: fmt.Sprintf("p%d-n%d", p, i), part: p})
			byPart[p] = append(byPart[p], idx)
			if i == 0 {
				from := m.anchors[p-1]
				m.nodes[from].refs = append(m.nodes[from].refs, idx)
			} else {
				from := byPart[p][rng.Intn(i)]
				m.nodes[from].refs = append(m.nodes[from].refs, idx)
			}
		}
	}
	extra := parts * perPart / 2
	for e := 0; e < extra; e++ {
		p := 1 + rng.Intn(parts)
		from := byPart[p][rng.Intn(perPart)]
		var to int
		if rng.Intn(3) == 0 { // cross-partition edge
			q := 1 + rng.Intn(parts)
			to = byPart[q][rng.Intn(perPart)]
		} else {
			to = byPart[p][rng.Intn(perPart)]
		}
		m.nodes[from].refs = append(m.nodes[from].refs, to)
	}

	tx, err := d.Begin()
	if err != nil {
		t.Fatal(err)
	}
	oids := make([]oid.OID, len(m.nodes))
	for i, n := range m.nodes {
		if oids[i], err = tx.Create(oid.PartitionID(n.part), []byte(n.payload), nil); err != nil {
			t.Fatal(err)
		}
	}
	for i, n := range m.nodes {
		for _, c := range n.refs {
			if err := tx.InsertRef(oids[i], oids[c]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	anchorOIDs := make([]oid.OID, len(m.anchors))
	for i, a := range m.anchors {
		anchorOIDs[i] = oids[a]
	}
	return d, m, anchorOIDs
}

// pipelineSpec is a randomly drawn pipeline, evaluable both as a query
// operator tree and as a walk of the model.
type pipelineSpec struct {
	scanPart  int   // >0: source is Scan(part); 0: source is FollowRefs
	rootIdx   []int // anchor indices rooting the traversal
	hops      int
	mids      []int // 0 = filter, 1 = project, 2 = join-by-ref
	aggregate bool
}

func drawPipeline(rng *rand.Rand, parts int) pipelineSpec {
	var s pipelineSpec
	if rng.Intn(2) == 0 {
		s.scanPart = 1 + rng.Intn(parts)
	} else {
		s.rootIdx = rng.Perm(parts)[:1+rng.Intn(parts)]
		s.hops = []int{-1, 0, 1, 2, 3}[rng.Intn(5)]
	}
	for n := rng.Intn(3); n > 0; n-- {
		s.mids = append(s.mids, rng.Intn(3))
	}
	s.aggregate = rng.Intn(3) == 0
	return s
}

// The filter predicate, projection, and grouping key shared by both
// evaluations — all payload-only, so they are address-independent.
func oraclePred(payload string) bool { return len(payload)%2 == 0 }
func oracleProj(payload string) string {
	return "proj:" + payload
}
func oracleKey(payload string) string {
	if len(payload) < 4 {
		return payload
	}
	return payload[:4]
}

// build constructs the operator tree for one attempt.
func (s pipelineSpec) build(anchorOIDs []oid.OID) Operator {
	var op Operator
	if s.scanPart > 0 {
		op = NewScan(oid.PartitionID(s.scanPart))
	} else {
		roots := make([]oid.OID, len(s.rootIdx))
		for i, a := range s.rootIdx {
			roots[i] = anchorOIDs[a]
		}
		op = NewFollowRefs(roots, s.hops)
	}
	for _, mid := range s.mids {
		switch mid {
		case 0:
			op = NewFilter(op, func(r Row) bool { return oraclePred(string(r.Obj.Payload)) })
		case 1:
			op = NewProject(op, func(r Row) Row {
				r.Obj.Payload = []byte(oracleProj(string(r.Obj.Payload)))
				return r
			})
		case 2:
			op = NewJoinRef(op)
		}
	}
	if s.aggregate {
		op = NewAggregate(op, func(r Row) string { return oracleKey(string(r.Obj.Payload)) })
	}
	return op
}

// evalModel is the naive in-memory walk: the ground truth.
func (s pipelineSpec) evalModel(m *model) []string {
	var rows []mrow
	if s.scanPart > 0 {
		for _, n := range m.nodes {
			if n.part == s.scanPart {
				rows = append(rows, mrow{payload: n.payload, refs: n.refs})
			}
		}
	} else {
		visited := map[int]bool{}
		var frontier []mrow
		var frontierIdx []int
		for _, a := range s.rootIdx {
			idx := m.anchors[a]
			if !visited[idx] {
				visited[idx] = true
				frontier = append(frontier, mrow{payload: m.nodes[idx].payload, refs: m.nodes[idx].refs})
				frontierIdx = append(frontierIdx, idx)
			}
		}
		for qi := 0; qi < len(frontier); qi++ {
			cur := frontier[qi]
			rows = append(rows, cur)
			if s.hops < 0 || cur.depth < s.hops {
				for _, c := range m.nodes[frontierIdx[qi]].refs {
					if !visited[c] {
						visited[c] = true
						frontier = append(frontier, mrow{payload: m.nodes[c].payload, refs: m.nodes[c].refs, depth: cur.depth + 1})
						frontierIdx = append(frontierIdx, c)
					}
				}
			}
		}
	}
	for _, mid := range s.mids {
		var next []mrow
		switch mid {
		case 0:
			for _, r := range rows {
				if oraclePred(r.payload) {
					next = append(next, r)
				}
			}
		case 1:
			for _, r := range rows {
				r.payload = oracleProj(r.payload)
				next = append(next, r)
			}
		case 2:
			for _, r := range rows {
				for _, c := range r.refs {
					next = append(next, mrow{payload: m.nodes[c].payload, refs: m.nodes[c].refs, depth: r.depth + 1})
				}
			}
		}
		rows = next
	}
	if s.aggregate {
		groups := map[string]*AggValues{}
		for _, r := range rows {
			k := oracleKey(r.payload)
			g := groups[k]
			if g == nil {
				g = &AggValues{}
				groups[k] = g
			}
			g.Rows++
			g.PayloadBytes += int64(len(r.payload))
			g.Refs += int64(len(r.refs))
		}
		var out []string
		for k, g := range groups {
			out = append(out, fmt.Sprintf("%s|rows=%d|bytes=%d|refs=%d", k, g.Rows, g.PayloadBytes, g.Refs))
		}
		sort.Strings(out)
		return out
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.payload
	}
	return out
}

// renderRows maps a committed query's rows to the same string space.
func (s pipelineSpec) renderRows(rows []Row) []string {
	if s.aggregate {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = fmt.Sprintf("%s|rows=%d|bytes=%d|refs=%d", r.Group, r.Agg.Rows, r.Agg.PayloadBytes, r.Agg.Refs)
		}
		sort.Strings(out)
		return out
	}
	return Payloads(rows)
}

func multisetEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	ma := Multiset(a)
	for s, n := range Multiset(b) {
		if ma[s] != n {
			return false
		}
	}
	return true
}

// checkOnce runs the pipeline once and compares against the model.
func checkOnce(t *testing.T, d *db.Database, s pipelineSpec, anchorOIDs []oid.OID, want []string, stage string) bool {
	t.Helper()
	res, err := Run(d, Options{MaxRestarts: 200}, func(e *Exec) (Operator, error) {
		return s.build(anchorOIDs), nil
	})
	if err != nil {
		t.Errorf("%s: query failed: %v", stage, err)
		return false
	}
	got := s.renderRows(res.Rows)
	if !multisetEqual(got, want) {
		t.Errorf("%s: pipeline %+v returned %d rows, model says %d\n got=%v\nwant=%v",
			stage, s, len(got), len(want), got, want)
		return false
	}
	return true
}

// TestOracleEquivalence runs in each pairwise cell of the configuration
// matrix.
func TestOracleEquivalence(t *testing.T) {
	testkit.Run(t, testkit.Pairwise, testOracleEquivalence)
}

func testOracleEquivalence(t *testing.T, c testkit.Cell) {
	count := 6
	if testing.Short() {
		count = 2
	}
	caseNo := 0
	prop := func(seed uint32) bool {
		caseNo++
		rng := rand.New(rand.NewSource(int64(seed)))
		parts, perPart := 2+rng.Intn(2), 10+rng.Intn(8)
		d, m, anchorOIDs := buildOracleWorld(t, c, rng, parts, perPart)
		s := drawPipeline(rng, parts)
		want := s.evalModel(m)

		// 1. Quiescent.
		if !checkOnce(t, d, s, anchorOIDs, want, fmt.Sprintf("case %d (seed %d) quiescent", caseNo, seed)) {
			return false
		}

		// 2. While an IRA compaction pass migrates every data partition.
		// The addresses of every data object change under the pipeline;
		// the committed row multisets must not.
		reorgDone := make(chan error, 1)
		go func() {
			for p := 1; p <= parts; p++ {
				plan := reorg.CompactPlan(oid.PartitionID(p))
				r := reorg.New(d, oid.PartitionID(p), reorg.Options{
					Mode:        reorg.ModeIRA,
					Plan:        &plan,
					BatchSize:   4,
					MaxRetries:  5000,
					WaitTimeout: 50 * time.Millisecond,
					// Stretch the pass so the overlapped queries genuinely
					// interleave with in-flight batches instead of racing a
					// pass that finishes in a few milliseconds.
					PerObjectWork: func() { time.Sleep(2 * time.Millisecond) },
				})
				if err := r.Run(); err != nil {
					reorgDone <- fmt.Errorf("partition %d: %w", p, err)
					return
				}
			}
			reorgDone <- nil
		}()
		// A bounded number of overlapped queries, with breathing gaps so
		// the single-core schedule interleaves both sides rather than
		// serializing the pass behind a wall of full-graph S-lockers;
		// then wait the pass out.
		ok := true
	overlap:
		for q := 0; q < 4; q++ {
			select {
			case err := <-reorgDone:
				if err != nil {
					t.Errorf("case %d (seed %d): concurrent reorg failed: %v", caseNo, seed, err)
					return false
				}
				reorgDone <- nil
				break overlap
			default:
				ok = checkOnce(t, d, s, anchorOIDs, want, fmt.Sprintf("case %d (seed %d) under reorg", caseNo, seed)) && ok
				time.Sleep(10 * time.Millisecond)
			}
		}
		if err := <-reorgDone; err != nil {
			t.Errorf("case %d (seed %d): concurrent reorg failed: %v", caseNo, seed, err)
			return false
		}
		if !ok {
			return false
		}

		// 3. Quiescent again, post-migration: every OID changed.
		return checkOnce(t, d, s, anchorOIDs, want, fmt.Sprintf("case %d (seed %d) post-reorg", caseNo, seed))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: count}); err != nil {
		t.Fatal(err)
	}
}
