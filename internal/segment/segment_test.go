package segment

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
	"repro/internal/oid"
)

func openDir(t *testing.T, pageSize int) *Dir {
	t.Helper()
	d, err := Open(t.TempDir(), pageSize)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// readPage reads into a fresh slot buffer.
func readPage(d *Dir, part oid.PartitionID, pn int) ([]byte, uint64, error) {
	return d.ReadPage(part, pn, make([]byte, d.SlotSize()))
}

func pageOf(b byte, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = b
	}
	return p
}

func TestRoundTrip(t *testing.T) {
	d := openDir(t, 256)
	want := pageOf(0xAB, 256)
	if err := d.WritePage(3, 7, want, 42); err != nil {
		t.Fatal(err)
	}
	got, lsn, err := readPage(d, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 42 {
		t.Fatalf("lsn = %d, want 42", lsn)
	}
	if string(got) != string(want) {
		t.Fatal("page bytes differ after round trip")
	}
	// Slots before the written one exist as sparse holes: absent.
	if _, _, err := readPage(d, 3, 2); !errors.Is(err, ErrAbsent) {
		t.Fatalf("sparse hole: err = %v, want ErrAbsent", err)
	}
	// Slots beyond the file are absent too.
	if _, _, err := readPage(d, 3, 100); !errors.Is(err, ErrAbsent) {
		t.Fatalf("beyond EOF: err = %v, want ErrAbsent", err)
	}
	if n, _ := d.NumPages(3); n != 7 {
		t.Fatalf("NumPages = %d, want 7", n)
	}
}

func TestWriteAbsent(t *testing.T) {
	d := openDir(t, 128)
	if err := d.WritePage(1, 1, pageOf(1, 128), 10); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteAbsent(1, 1, 11); err != nil {
		t.Fatal(err)
	}
	_, lsn, err := readPage(d, 1, 1)
	if !errors.Is(err, ErrAbsent) {
		t.Fatalf("err = %v, want ErrAbsent", err)
	}
	if lsn != 11 {
		t.Fatalf("absent slot lsn = %d, want 11", lsn)
	}
}

func TestTornDetection(t *testing.T) {
	d := openDir(t, 128)
	if err := d.WritePage(5, 2, pageOf(7, 128), 99); err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte directly in the file: CRC must reject it.
	path := filepath.Join(d.Path(), "part-5.seg")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[(128+hdrSize)+hdrSize+10] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	// Reopen so the read goes to the mangled bytes.
	d.Close()
	d2, err := Open(d.Path(), 128)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if _, _, err := readPage(d2, 5, 2); !errors.Is(err, ErrTorn) {
		t.Fatalf("err = %v, want ErrTorn", err)
	}
	// A tear inside the header (stale CRC under a new LSN) must also be
	// rejected, not read back as a valid page with the wrong LSN.
	raw[(128+hdrSize)+12] ^= 0x01 // first LSN byte of slot 2
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	d2.Close()
	d3, err := Open(d.Path(), 128)
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	if _, _, err := readPage(d3, 5, 2); !errors.Is(err, ErrTorn) {
		t.Fatalf("header tear: err = %v, want ErrTorn", err)
	}
}

func TestCrashTearsWriteAndFreezes(t *testing.T) {
	d := openDir(t, 128)
	if err := d.WritePage(1, 1, pageOf(1, 128), 5); err != nil {
		t.Fatal(err)
	}
	reg := fault.NewRegistry(1)
	reg.Arm(fault.Trigger{Point: fault.SegmentWrite, Kind: fault.KindCrash})
	restore := fault.Install(reg)
	err := d.WritePage(1, 1, pageOf(2, 128), 6)
	restore()
	if !fault.IsCrash(err) {
		t.Fatalf("err = %v, want injected crash", err)
	}
	if !d.Frozen() {
		t.Fatal("directory not frozen after crash firing")
	}
	if err := d.WritePage(1, 2, pageOf(3, 128), 7); !errors.Is(err, ErrFrozen) {
		t.Fatalf("post-crash write err = %v, want ErrFrozen", err)
	}
	if err := d.Sync(1); !errors.Is(err, ErrFrozen) {
		t.Fatalf("post-crash sync err = %v, want ErrFrozen", err)
	}
	// The slot is now either the intact old page (tear point 0) or torn
	// — never the complete new page with a valid checksum, and never a
	// valid page carrying the new LSN.
	got, lsn, rerr := readPage(d, 1, 1)
	switch {
	case rerr == nil:
		if lsn != 5 || got[0] != 1 {
			t.Fatalf("slot readable but not the old image: lsn=%d first=%d", lsn, got[0])
		}
	case errors.Is(rerr, ErrTorn):
		// expected for any nonzero tear point
	default:
		t.Fatalf("read after tear: %v", rerr)
	}
}

func TestSweepTearPoints(t *testing.T) {
	// Across many seeds the tear lands at many offsets, including inside
	// the header; no seed may yield a valid page with the new LSN.
	for seed := int64(1); seed <= 64; seed++ {
		d, err := Open(t.TempDir(), 64)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.WritePage(1, 1, pageOf(0xAA, 64), 100); err != nil {
			t.Fatal(err)
		}
		reg := fault.NewRegistry(seed)
		reg.Arm(fault.Trigger{Point: fault.SegmentWrite, Kind: fault.KindCrash})
		restore := fault.Install(reg)
		werr := d.WritePage(1, 1, pageOf(0xBB, 64), 200)
		restore()
		if !fault.IsCrash(werr) {
			t.Fatalf("seed %d: err = %v, want crash", seed, werr)
		}
		got, lsn, rerr := readPage(d, 1, 1)
		if rerr == nil && (lsn != 100 || got[0] != 0xAA) {
			t.Fatalf("seed %d: tear produced a valid non-old page (lsn=%d)", seed, lsn)
		}
		if rerr != nil && !errors.Is(rerr, ErrTorn) {
			t.Fatalf("seed %d: unexpected read error %v", seed, rerr)
		}
		d.Close()
	}
}

func TestResetAndDrop(t *testing.T) {
	d := openDir(t, 64)
	for part := 1; part <= 3; part++ {
		if err := d.WritePage(oid.PartitionID(part), 1, pageOf(byte(part), 64), 1); err != nil {
			t.Fatal(err)
		}
	}
	ids, err := d.Partitions()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 {
		t.Fatalf("partitions = %v, want 3 entries", ids)
	}
	if err := d.DropPartition(2); err != nil {
		t.Fatal(err)
	}
	ids, _ = d.Partitions()
	if len(ids) != 2 {
		t.Fatalf("after drop: partitions = %v", ids)
	}
	if err := d.Reset(); err != nil {
		t.Fatal(err)
	}
	ids, _ = d.Partitions()
	if len(ids) != 0 {
		t.Fatalf("after reset: partitions = %v", ids)
	}
	if n, _ := d.NumPages(1); n != 0 {
		t.Fatalf("after reset: NumPages = %d", n)
	}
}

func TestSyncTransientFaultAbsorbed(t *testing.T) {
	// A single error-kind firing is a transient hiccup: the retry loop
	// absorbs it and the sync succeeds.
	d := openDir(t, 64)
	if err := d.WritePage(1, 1, pageOf(1, 64), 1); err != nil {
		t.Fatal(err)
	}
	reg := fault.NewRegistry(2)
	reg.Arm(fault.Trigger{Point: fault.SegmentSync, Kind: fault.KindError})
	restore := fault.Install(reg)
	err := d.SyncAll()
	restore()
	if err != nil {
		t.Fatalf("transient sync fault not absorbed: %v", err)
	}
	if d.IORetries() == 0 {
		t.Fatal("retry counter = 0, want > 0")
	}
	if d.Frozen() {
		t.Fatal("directory frozen by an absorbed transient fault")
	}
}

func TestSyncExhaustionLatchesDeviceFailed(t *testing.T) {
	// A persistent error-kind fault outlives the retry budget: the sync
	// fails with ErrDeviceFailed and the directory freezes.
	d := openDir(t, 64)
	if err := d.WritePage(1, 1, pageOf(1, 64), 1); err != nil {
		t.Fatal(err)
	}
	reg := fault.NewRegistry(2)
	reg.Arm(fault.Trigger{Point: fault.SegmentSync, Kind: fault.KindError, Times: fault.Forever})
	restore := fault.Install(reg)
	err := d.SyncAll()
	restore()
	if !errors.Is(err, ErrDeviceFailed) {
		t.Fatalf("err = %v, want ErrDeviceFailed", err)
	}
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("err = %v, want to keep the injected cause", err)
	}
	if !d.Frozen() {
		t.Fatal("directory not frozen after retry exhaustion")
	}
	if err := d.WritePage(1, 2, pageOf(2, 64), 2); !errors.Is(err, ErrFrozen) {
		t.Fatalf("post-quiesce write = %v, want ErrFrozen", err)
	}
}

func TestWriteTransientFaultAbsorbed(t *testing.T) {
	d := openDir(t, 64)
	reg := fault.NewRegistry(3)
	// Two consecutive firings: still inside the retry budget.
	reg.Arm(fault.Trigger{Point: fault.SegmentWrite, Kind: fault.KindError, Times: 2})
	restore := fault.Install(reg)
	err := d.WritePage(1, 1, pageOf(7, 64), 9)
	restore()
	if err != nil {
		t.Fatalf("transient write faults not absorbed: %v", err)
	}
	got, lsn, err := readPage(d, 1, 1)
	if err != nil || lsn != 9 || got[0] != 7 {
		t.Fatalf("page after absorbed faults: got[0]=%d lsn=%d err=%v", got[0], lsn, err)
	}
	if d.IORetries() < 2 {
		t.Fatalf("retry counter = %d, want >= 2", d.IORetries())
	}
}

func TestWriteExhaustionLatchesDeviceFailed(t *testing.T) {
	d := openDir(t, 64)
	reg := fault.NewRegistry(3)
	reg.Arm(fault.Trigger{Point: fault.SegmentWrite, Kind: fault.KindError, Times: fault.Forever})
	restore := fault.Install(reg)
	err := d.WritePage(1, 1, pageOf(7, 64), 9)
	restore()
	if !errors.Is(err, ErrDeviceFailed) {
		t.Fatalf("err = %v, want ErrDeviceFailed", err)
	}
	if !d.Frozen() {
		t.Fatal("directory not frozen after write retry exhaustion")
	}
}

func TestReadTransientFaultAbsorbed(t *testing.T) {
	d := openDir(t, 64)
	if err := d.WritePage(1, 1, pageOf(5, 64), 3); err != nil {
		t.Fatal(err)
	}
	reg := fault.NewRegistry(4)
	reg.Arm(fault.Trigger{Point: fault.SegmentRead, Kind: fault.KindError})
	restore := fault.Install(reg)
	got, lsn, err := readPage(d, 1, 1)
	restore()
	if err != nil || lsn != 3 || got[0] != 5 {
		t.Fatalf("read under transient fault: got[0]=%v lsn=%d err=%v", got, lsn, err)
	}
	// Permanent conditions are NOT retried: an absent slot fails at the
	// first attempt without burning the budget.
	before := d.IORetries()
	if _, _, err := readPage(d, 1, 99); !errors.Is(err, ErrAbsent) {
		t.Fatalf("absent read = %v, want ErrAbsent", err)
	}
	if d.IORetries() != before {
		t.Fatal("absent slot consumed retry budget")
	}
}

func TestReadExhaustionReportsWithoutFreezing(t *testing.T) {
	// Read failures do not invalidate durability already promised, so
	// exhaustion reports the error but leaves the directory usable.
	d := openDir(t, 64)
	if err := d.WritePage(1, 1, pageOf(5, 64), 3); err != nil {
		t.Fatal(err)
	}
	reg := fault.NewRegistry(4)
	reg.Arm(fault.Trigger{Point: fault.SegmentRead, Kind: fault.KindError, Times: fault.Forever})
	restore := fault.Install(reg)
	_, _, err := readPage(d, 1, 1)
	restore()
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("err = %v, want injected", err)
	}
	if d.Frozen() {
		t.Fatal("read exhaustion must not freeze the directory")
	}
	if _, lsn, err := readPage(d, 1, 1); err != nil || lsn != 3 {
		t.Fatalf("read after fault cleared: lsn=%d err=%v", lsn, err)
	}
}

func TestReadIOErrorIsTransientNotAbsent(t *testing.T) {
	// A read that fails on the device — here a closed handle, which
	// returns zero bytes and an error — is an I/O error, not a missing
	// or torn slot: it must go through the retry budget, and the loader
	// must never mistake it for a trimmed page.
	d := openDir(t, 64)
	if err := d.WritePage(1, 1, pageOf(5, 64), 3); err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	d.files[1].Close()
	d.mu.Unlock()
	before := d.IORetries()
	_, _, err := readPage(d, 1, 1)
	if err == nil {
		t.Fatal("read through a closed handle succeeded")
	}
	if errors.Is(err, ErrAbsent) || errors.Is(err, ErrTorn) {
		t.Fatalf("I/O error misclassified as permanent: %v", err)
	}
	if d.IORetries() == before {
		t.Fatal("I/O error did not consume the retry budget")
	}
}

func TestReadPageBufferContract(t *testing.T) {
	// ReadPage reads into the caller's slot buffer: the page it hands
	// back is a view of that buffer exactly a page long (no spare
	// capacity to append into the next slot's header), two buffers never
	// alias, and a successful read allocates nothing.
	const size = 256
	d := openDir(t, size)
	if err := d.WritePage(1, 1, pageOf(9, size), 4); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.ReadPage(1, 1, make([]byte, d.SlotSize()-1)); err == nil {
		t.Fatal("ReadPage accepted a buffer shorter than a slot")
	}
	slot := make([]byte, d.SlotSize())
	got, _, err := d.ReadPage(1, 1, slot)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != size || cap(got) != size {
		t.Fatalf("len %d cap %d, want %d and %d", len(got), cap(got), size, size)
	}
	if &got[size-1] != &slot[len(slot)-1] {
		t.Fatal("the page is not a view of the caller's buffer")
	}
	for i := range got {
		got[i] = 0
	}
	again, _, err := d.ReadPage(1, 1, make([]byte, d.SlotSize()))
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(pageOf(9, size)) {
		t.Fatal("writing into a returned page changed a read into another buffer")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := d.ReadPage(1, 1, slot); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ReadPage allocates %v times per successful read, want 0", allocs)
	}
}

func TestWritesAllocateNothing(t *testing.T) {
	// Every write encodes into the directory's one scratch slot.
	const size = 256
	d := openDir(t, size)
	data := pageOf(3, size)
	if err := d.WritePage(1, 1, data, 1); err != nil { // opens the file
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := d.WritePage(1, 1, data, 2); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("WritePage allocates %v times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := d.WriteAbsent(1, 2, 3); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("WriteAbsent allocates %v times, want 0", allocs)
	}
	// An absence marker written after a live page leaves no payload
	// behind in the shared scratch slot.
	if err := d.WriteAbsent(1, 1, 4); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(d.Path(), partFileName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !allZero(raw[hdrSize:d.SlotSize()]) {
		t.Fatal("absence marker carries the previous page's payload")
	}
}
