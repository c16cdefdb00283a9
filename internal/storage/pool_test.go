package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/interleave"
	"repro/internal/oid"
)

// newPoolStore opens a disk-backed store in a test temp dir with the
// given frame budget and registers a pin-leak check: every test built on
// it asserts the pinned-frame count returns to zero.
func newPoolStore(t *testing.T, frames int, opts ...Option) *Store {
	t.Helper()
	s, err := NewDiskBacked(t.TempDir(), frames, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if pinned := s.PoolStats().Pinned; pinned != 0 {
			t.Errorf("pin leak: %d frames still pinned at test end", pinned)
		}
		s.Close()
	})
	return s
}

// fillPages allocates objects into part until it spans at least pages
// pages, returning every OID.
func fillPages(t *testing.T, s *Store, part oid.PartitionID, pages int) []oid.OID {
	t.Helper()
	if err := s.CreatePartition(part); err != nil {
		t.Fatal(err)
	}
	var oids []oid.OID
	data := make([]byte, s.PageSize()/4)
	for {
		o, err := s.Allocate(part, data, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, o)
		if int(o.Page()) >= pages {
			return oids
		}
	}
}

// TestPoolPinLeak drives every mutating operation through a tiny pool
// and asserts no operation leaves a frame pinned.
func TestPoolPinLeak(t *testing.T) {
	s := newPoolStore(t, 4, WithPageSize(1024))
	oids := fillPages(t, s, 1, 8)
	check := func(after string) {
		t.Helper()
		if pinned := s.PoolStats().Pinned; pinned != 0 {
			t.Fatalf("after %s: %d frames pinned", after, pinned)
		}
	}
	check("allocate")
	for _, o := range oids[:4] {
		if err := applyUpdate(s, o, []byte("shorter")); err != nil {
			t.Fatal(err)
		}
	}
	check("update")
	buf := make([]byte, 0, 64)
	var err error
	for _, o := range oids {
		if buf, err = s.Read(o, buf[:0]); err != nil {
			t.Fatal(err)
		}
	}
	check("read")
	if err := s.View(oids[5], func([]byte) {}); err != nil {
		t.Fatal(err)
	}
	check("view")
	for _, o := range oids[:4] {
		if err := applyFree(s, o); err != nil {
			t.Fatal(err)
		}
	}
	check("free")
	if _, err := applyFree(s, oids[0]), applyUpdate(s, oids[1], make([]byte, 2000)); err == nil {
		t.Fatal("oversized update unexpectedly succeeded")
	}
	check("failed update")
	if _, err := s.PartitionStats(1); err != nil {
		t.Fatal(err)
	}
	check("stats scan")
	if _, err := s.TrimPages(1); err != nil {
		t.Fatal(err)
	}
	check("trim")
}

// TestPoolEvictionSkipsPinned pins a page by hand, fills the pool past
// its budget, and asserts the pinned frame was never chosen as a victim
// (the pool grows over budget instead).
func TestPoolEvictionSkipsPinned(t *testing.T) {
	s := newPoolStore(t, 3, WithPageSize(1024))
	oids := fillPages(t, s, 1, 6)
	target := oids[0]

	p, err := s.part(1)
	if err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	pg, err := s.fetchPage(p, int(target.Page()))
	p.mu.Unlock()
	if err != nil || pg == nil {
		t.Fatalf("fetch pinned page: %v", err)
	}

	// Touch every other page repeatedly: evictions must all fall on
	// unpinned frames.
	buf := make([]byte, 0, 512)
	for round := 0; round < 3; round++ {
		for _, o := range oids {
			if o.Page() == target.Page() {
				continue
			}
			if buf, err = s.Read(o, buf[:0]); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.pool.mu.Lock()
	f := p.frames[target.Page()]
	s.pool.mu.Unlock()
	if f == nil {
		t.Fatal("pinned frame was evicted")
	}
	if f.pin != 1 {
		t.Fatalf("pinned frame has pin=%d, want 1", f.pin)
	}
	if evs := s.PoolStats().Evictions; evs == 0 {
		t.Fatal("no evictions happened; the test exercised nothing")
	}

	p.mu.Lock()
	s.releasePage(p, int(target.Page()))
	p.mu.Unlock()
}

// TestPoolClockSecondChance verifies CLOCK fairness on a hand-built
// ring: the sweep gives referenced frames a second chance (clearing the
// bit and passing on), takes the first unreferenced frame, and no frame
// is immortal — once its bit stays clear, the rotating hand reaches it.
func TestPoolClockSecondChance(t *testing.T) {
	s := newPoolStore(t, 3, WithPageSize(1024))
	oids := fillPages(t, s, 1, 3)
	p, err := s.part(1)
	if err != nil {
		t.Fatal(err)
	}
	// Make pages 1..3 resident.
	buf := make([]byte, 0, 512)
	for _, o := range oids {
		if buf, err = s.Read(o, buf[:0]); err != nil {
			t.Fatal(err)
		}
	}

	pl := s.pool
	pl.mu.Lock()
	defer pl.mu.Unlock()
	var ring []*frame
	for pn := 1; pn <= 3; pn++ {
		f := p.frames[pn]
		if f == nil {
			t.Fatalf("page %d not resident", pn)
		}
		ring = append(ring, f)
	}
	// Rebuild the clock in page order with the hand at the start so the
	// sweep is deterministic.
	pl.clock = ring
	pl.hand = 0
	f1, f2, f3 := ring[0], ring[1], ring[2]

	f1.ref, f2.ref, f3.ref = true, false, false
	if v := pl.victim(); v != f2 {
		t.Fatalf("victim with f1 referenced: got page %d, want page %d", v.pn, f2.pn)
	}
	if f1.ref {
		t.Fatal("sweep passed f1 without clearing its reference bit")
	}
	// f3 is re-referenced; f1 was not re-referenced since its second
	// chance, so the rotating hand must take f1 next.
	f3.ref = true
	if v := pl.victim(); v != f1 {
		t.Fatalf("victim after f1's second chance expired: got page %d, want page %d", v.pn, f1.pn)
	}
	if f3.ref {
		t.Fatal("sweep passed f3 without clearing its reference bit")
	}
}

// TestPoolStressRace hammers a 16-frame pool from 6 goroutines (the
// paper's MPL) with mixed reads, updates, allocates, and frees across
// partitions; run under -race this is the pool's concurrency oracle.
func TestPoolStressRace(t *testing.T) {
	const (
		mpl    = 6
		frames = 16
		ops    = 400
	)
	s := newPoolStore(t, frames, WithPageSize(1024))
	var seedOIDs [][]oid.OID
	for part := oid.PartitionID(1); part <= mpl; part++ {
		seedOIDs = append(seedOIDs, fillPages(t, s, part, 6))
	}
	var wg sync.WaitGroup
	for g := 0; g < mpl; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			part := oid.PartitionID(g + 1)
			mine := append([]oid.OID(nil), seedOIDs[g]...)
			buf := make([]byte, 0, 512)
			var err error
			for i := 0; i < ops; i++ {
				// Cross-partition reads race against that partition's
				// owner mutating it; ErrNoObject is expected there.
				if rng.Intn(4) == 0 {
					other := seedOIDs[rng.Intn(mpl)]
					_, _ = s.Read(other[rng.Intn(len(other))], nil)
					continue
				}
				switch rng.Intn(3) {
				case 0:
					o, aerr := s.Allocate(part, []byte(fmt.Sprintf("g%d-op%d", g, i)), false, nil)
					if aerr != nil {
						t.Errorf("g%d allocate: %v", g, aerr)
						return
					}
					mine = append(mine, o)
				case 1:
					o := mine[rng.Intn(len(mine))]
					if uerr := applyUpdate(s, o, []byte{byte(i)}); uerr != nil && uerr != ErrNoObject && uerr != ErrWontFit {
						t.Errorf("g%d update: %v", g, uerr)
						return
					}
				case 2:
					if buf, err = s.Read(mine[rng.Intn(len(mine))], buf[:0]); err != nil && err != ErrNoObject {
						t.Errorf("g%d read: %v", g, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	st := s.PoolStats()
	if st.Pinned != 0 {
		t.Fatalf("%d frames pinned after stress", st.Pinned)
	}
	if st.Resident > st.Budget {
		t.Fatalf("pool settled over budget: %d resident, %d frames", st.Resident, st.Budget)
	}
	if st.Evictions == 0 {
		t.Fatal("stress run caused no evictions; pool too large for the workload")
	}
}

// TestMemPartitionInDiskStore exercises per-partition backing: a
// mem-policy partition inside a disk-backed store must never touch the
// buffer pool or grow a segment file, while its disk siblings behave as
// before; the policy must survive snapshot serialization and a
// materialize round trip.
func TestMemPartitionInDiskStore(t *testing.T) {
	s := newPoolStore(t, 4, WithPageSize(1024))
	if err := s.CreatePartition(1); err != nil {
		t.Fatal(err)
	}
	if err := s.CreatePartitionBacked(2, true); err != nil {
		t.Fatal(err)
	}
	if mem, _ := s.MemResident(1); mem {
		t.Fatalf("partition 1 reports mem-resident")
	}
	if mem, _ := s.MemResident(2); !mem {
		t.Fatalf("partition 2 reports disk-backed")
	}

	data := make([]byte, 300)
	var diskOIDs, memOIDs []oid.OID
	for i := 0; i < 20; i++ {
		o, err := s.Allocate(1, data, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		diskOIDs = append(diskOIDs, o)
	}
	before := s.PoolStats()
	for i := 0; i < 20; i++ {
		o, err := s.Allocate(2, data, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		memOIDs = append(memOIDs, o)
		if _, err := s.Read(o, nil); err != nil {
			t.Fatal(err)
		}
	}
	after := s.PoolStats()
	if after.Hits != before.Hits || after.Misses != before.Misses {
		t.Fatalf("mem partition touched the pool: %+v -> %+v", before, after)
	}
	if err := s.FlushAll(); err != nil {
		t.Fatal(err)
	}
	ids, err := s.Segments().Partitions()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if id == 2 {
			t.Fatalf("mem partition grew a segment file")
		}
	}

	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := snap.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	snap2, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	restored := RestoreSnapshot(snap2)
	dst, err := MaterializeDiskBacked(restored, t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	if mem, _ := dst.MemResident(2); !mem {
		t.Fatalf("materialize lost the mem policy")
	}
	if mem, _ := dst.MemResident(1); mem {
		t.Fatalf("materialize lost the disk policy")
	}
	for _, o := range append(append([]oid.OID(nil), diskOIDs...), memOIDs...) {
		got, err := dst.Read(o, nil)
		if err != nil {
			t.Fatalf("read %s after materialize: %v", o, err)
		}
		if len(got) != len(data) {
			t.Fatalf("read %s: %d bytes", o, len(got))
		}
	}
	mids, err := dst.Segments().Partitions()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range mids {
		if id == 2 {
			t.Fatalf("materialize wrote segments for the mem partition")
		}
	}
}

// TestPoolInterleaveTrace checks the interleave emit sites around the
// pool: dirtying a page notes an apply, and pushing a tiny pool over
// budget notes evict and flush events attributed to the right pages.
func TestPoolInterleaveTrace(t *testing.T) {
	ring := interleave.NewRing(256)
	restore := interleave.Install(ring)
	defer restore()

	s := newPoolStore(t, 2, WithPageSize(1024))
	oids := fillPages(t, s, 1, 6) // 6 pages through a 2-frame pool: must evict
	if err := applyUpdate(s, oids[0], []byte("dirty")); err != nil {
		t.Fatal(err)
	}
	var kinds [4]int
	for _, e := range ring.Events() {
		if e.Part != 1 {
			t.Fatalf("event charged to partition %d: %+v", e.Part, e)
		}
		kinds[e.Kind]++
	}
	if kinds[interleave.Apply] == 0 {
		t.Fatal("no apply events from page mutations")
	}
	if kinds[interleave.Evict] == 0 {
		t.Fatal("no evict events from an over-budget pool")
	}
	if kinds[interleave.Flush] == 0 {
		t.Fatal("no flush events from dirty evictions")
	}
}

// armSegmentRead installs a fault registry with one trigger on
// segment/read for the rest of the test.
func armSegmentRead(t *testing.T, tr fault.Trigger) *fault.Registry {
	t.Helper()
	reg := fault.NewRegistry(1)
	tr.Point = fault.SegmentRead
	reg.Arm(tr)
	t.Cleanup(fault.Install(reg))
	return reg
}

// awaitReadInFlight waits until some fault has entered segment/read —
// with a delay trigger armed, that read is now stalled inside it.
func awaitReadInFlight(reg *fault.Registry) {
	for reg.Hits(fault.SegmentRead) == 0 {
		time.Sleep(50 * time.Microsecond)
	}
}

// liveFrames counts the frames in the clock ring that hold (p, pn).
func liveFrames(s *Store, p *partition, pn int) int {
	s.pool.mu.Lock()
	defer s.pool.mu.Unlock()
	n := 0
	for _, f := range s.pool.clock {
		if !f.dead && f.part == p && f.pn == pn {
			n++
		}
	}
	return n
}

// freeBufs returns how many buffers the pool's free list holds.
func freeBufs(s *Store) int {
	s.pool.mu.Lock()
	defer s.pool.mu.Unlock()
	return len(s.pool.free)
}

// TestPoolFaultAllocatesLittle reads pages round-robin through a 4-frame
// pool so that every read faults and evicts. Once the free list is warm,
// a fault reads into the evicted frame's buffer and page view, and the
// only allocation left is the new frame.
func TestPoolFaultAllocatesLittle(t *testing.T) {
	s := newPoolStore(t, 4, WithPageSize(1024))
	oids := fillPages(t, s, 1, 8)
	var firsts []oid.OID // one object per page
	for _, o := range oids {
		if len(firsts) == 0 || firsts[len(firsts)-1].Page() != o.Page() {
			firsts = append(firsts, o)
		}
	}
	if err := s.EvictAll(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, s.PageSize())
	next := 0
	read := func() {
		var err error
		if buf, err = s.Read(firsts[next%len(firsts)], buf); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for i := 0; i < 4*len(firsts); i++ {
		read()
	}
	before := s.PoolStats()
	allocs := testing.AllocsPerRun(200, read)
	st := s.PoolStats()
	misses, hits, evictions := st.Misses-before.Misses, st.Hits-before.Hits, st.Evictions-before.Evictions
	if misses == 0 || hits != 0 || evictions != misses {
		t.Fatalf("the cycle did not fault and evict on every read: %d misses, %d hits, %d evictions", misses, hits, evictions)
	}
	if allocs > 1 {
		t.Fatalf("a fault+evict cycle allocates %v objects, want at most 1 (the frame)", allocs)
	}
}

// TestPoolFreeListBounded grows the pool past its budget with every
// frame pinned, then evicts the partition and drops it: the free list
// never holds more than budget buffers.
func TestPoolFreeListBounded(t *testing.T) {
	const budget = 4
	s := newPoolStore(t, budget, WithPageSize(1024))
	fillPages(t, s, 1, 3*budget)
	if err := s.EvictAll(); err != nil {
		t.Fatal(err)
	}
	p, _ := s.part(1)
	pinAll := func() int {
		p.mu.RLock()
		defer p.mu.RUnlock()
		var pinned []int
		for pn := 1; pn < len(p.pages); pn++ {
			pg, err := s.fetchPage(p, pn)
			if err != nil {
				t.Fatal(err)
			}
			if pg != nil {
				pinned = append(pinned, pn)
			}
		}
		for _, pn := range pinned {
			s.releasePage(p, pn)
		}
		return len(pinned)
	}
	if n := pinAll(); n <= budget {
		t.Fatalf("pinned %d pages, want more than the budget %d", n, budget)
	}
	if st := s.PoolStats(); st.Resident <= budget || st.OverBudget == 0 {
		t.Fatalf("resident %d over-budget %d: the pool did not grow past its budget", st.Resident, st.OverBudget)
	}
	if err := s.EvictAll(); err != nil {
		t.Fatal(err)
	}
	if n := freeBufs(s); n != budget {
		t.Fatalf("free list holds %d buffers after evicting an over-budget pool, want %d", n, budget)
	}
	pinAll()
	if err := s.DropPartition(1); err != nil {
		t.Fatal(err)
	}
	if n := freeBufs(s); n > budget {
		t.Fatalf("free list holds %d buffers after the drop, want at most %d", n, budget)
	}
	if st := s.PoolStats(); st.Resident != 0 {
		t.Fatalf("resident %d after the drop, want 0", st.Resident)
	}
}

// TestPoolFaultDoesNotBlockHits stalls one page fault inside its segment
// read and checks that, while it is stalled, a hit on another partition
// and a fault on a third both complete. The witness is ordering, not
// elapsed time: the stalled fault must not have linked its frame yet.
func TestPoolFaultDoesNotBlockHits(t *testing.T) {
	s := newPoolStore(t, 64, WithPageSize(1024))
	a := fillPages(t, s, 1, 2)
	b := fillPages(t, s, 2, 2)
	c := fillPages(t, s, 3, 2)
	// A cold, clean pool: no access below needs an eviction flush, which
	// would queue a segment write behind the stalled read.
	if err := s.EvictAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(b[0], nil); err != nil {
		t.Fatal(err)
	}
	reg := armSegmentRead(t, fault.Trigger{Kind: fault.KindDelay, Delay: 2 * time.Second})

	stalled := make(chan error, 1)
	go func() {
		_, err := s.Read(a[0], nil)
		stalled <- err
	}()
	awaitReadInFlight(reg)

	if _, err := s.Read(b[0], nil); err != nil {
		t.Fatalf("hit on partition 2: %v", err)
	}
	if _, err := s.Read(c[0], nil); err != nil {
		t.Fatalf("fault on partition 3: %v", err)
	}
	p1, err := s.part(1)
	if err != nil {
		t.Fatal(err)
	}
	if liveFrames(s, p1, int(a[0].Page())) != 0 {
		t.Fatal("the hit and the second fault completed only after the stalled fault linked its frame")
	}
	select {
	case <-stalled:
		t.Fatal("the stalled fault finished before the hit and the second fault")
	default:
	}
	if err := <-stalled; err != nil {
		t.Fatalf("stalled fault: %v", err)
	}
}

// TestPoolConcurrentFaultSamePage races readers faulting one cold page,
// each read widened by a delay: every reader sees the same bytes, the
// page ends up in exactly one frame, and each segment read counts as
// one miss. The error and drop variants check that a failed or orphaned
// read links no frame and leaks no pin.
func TestPoolConcurrentFaultSamePage(t *testing.T) {
	const readers = 8
	setup := func(t *testing.T) (*Store, oid.OID, []byte) {
		s := newPoolStore(t, 4, WithPageSize(1024))
		target := fillPages(t, s, 1, 6)[0]
		want, err := s.Read(target, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.EvictAll(); err != nil {
			t.Fatal(err)
		}
		return s, target, want
	}
	readAll := func(s *Store, target oid.OID) ([][]byte, []error) {
		got := make([][]byte, readers)
		errs := make([]error, readers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < readers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				got[i], errs[i] = s.Read(target, nil)
			}(i)
		}
		close(start)
		wg.Wait()
		return got, errs
	}

	t.Run("same-bytes", func(t *testing.T) {
		s, target, want := setup(t)
		before := s.PoolStats()
		reg := armSegmentRead(t, fault.Trigger{Kind: fault.KindDelay, Delay: 20 * time.Millisecond, Times: readers})
		got, errs := readAll(s, target)
		for i := range got {
			if errs[i] != nil {
				t.Fatalf("reader %d: %v", i, errs[i])
			}
			if !bytes.Equal(got[i], want) {
				t.Fatalf("reader %d read different bytes", i)
			}
		}
		p, _ := s.part(1)
		if n := liveFrames(s, p, int(target.Page())); n != 1 {
			t.Fatalf("%d live frames for the page, want 1", n)
		}
		st := s.PoolStats()
		if st.Resident != 1 || st.Pinned != 0 || st.Resident > st.Budget {
			t.Fatalf("resident %d pinned %d budget %d, want 1, 0, >= resident", st.Resident, st.Pinned, st.Budget)
		}
		if misses, reads := st.Misses-before.Misses, uint64(reg.Hits(fault.SegmentRead)); misses != reads {
			t.Fatalf("%d misses for %d segment reads", misses, reads)
		}
	})

	t.Run("read-error", func(t *testing.T) {
		s, target, want := setup(t)
		free := max(freeBufs(s), 1)
		reg := armSegmentRead(t, fault.Trigger{Kind: fault.KindError, Times: fault.Forever})
		_, errs := readAll(s, target)
		for i, err := range errs {
			if !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("reader %d: err = %v, want the injected read error", i, err)
			}
		}
		p, _ := s.part(1)
		if n := liveFrames(s, p, int(target.Page())); n != 0 {
			t.Fatalf("%d frames linked by failed reads", n)
		}
		if st := s.PoolStats(); st.Resident != 0 || st.Pinned != 0 {
			t.Fatalf("resident %d pinned %d after failed reads, want 0 and 0", st.Resident, st.Pinned)
		}
		// Each failed read gave its buffer back; overlapping readers
		// needed up to one each, and the budget caps what the list keeps.
		if n := freeBufs(s); n < free || n > s.pool.budget {
			t.Fatalf("free list holds %d buffers after failed reads, want %d to %d", n, free, s.pool.budget)
		}
		reg.Disarm(fault.SegmentRead)
		got, err := s.Read(target, nil)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("read after disarm: err = %v, bytes equal = %v", err, bytes.Equal(got, want))
		}
	})

	t.Run("drop", func(t *testing.T) {
		s, target, _ := setup(t)
		free := max(freeBufs(s), 1)
		reg := armSegmentRead(t, fault.Trigger{Kind: fault.KindDelay, Delay: time.Second})
		p, _ := s.part(1)
		done := make(chan error, 1)
		go func() {
			_, err := s.Read(target, nil)
			done <- err
		}()
		awaitReadInFlight(reg)
		if err := s.DropPartition(1); err != nil {
			t.Fatal(err)
		}
		if err := <-done; !errors.Is(err, ErrNoPartition) {
			t.Fatalf("fault straddling the drop: err = %v, want ErrNoPartition", err)
		}
		if n := liveFrames(s, p, int(target.Page())); n != 0 {
			t.Fatalf("%d frames linked for the dropped partition", n)
		}
		if st := s.PoolStats(); st.Resident != 0 || st.Pinned != 0 {
			t.Fatalf("resident %d pinned %d after the drop, want 0 and 0", st.Resident, st.Pinned)
		}
		if n := freeBufs(s); n != free {
			t.Fatalf("free list holds %d buffers after the orphaned read, want %d", n, free)
		}
	})
}
