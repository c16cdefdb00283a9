package storage

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/oid"
	"repro/internal/wal"
)

// logAt is an append callback that assigns LSN 1; the tests need a
// logged Apply, not a log.
func logAt() (wal.LSN, error) { return 1, nil }

// shrinkOnTail builds the race of an uncommitted in-place shrink: the
// partition's tail page holds a 100-byte object x and has exactly 96
// free bytes, and transaction 7 applies a logged reference delete that
// shrinks x to 92 bytes. It returns the store, x, the filler object that
// shares x's page and the shrink record.
func shrinkOnTail(t *testing.T) (*Store, oid.OID, oid.OID, *wal.Record) {
	t.Helper()
	s := newStore(t, 1, WithPageSize(1024))
	full := bytes.Repeat([]byte{'x'}, 100)
	x, err := s.Allocate(0, full, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	pg := s.parts[0].pages[x.Page()]
	// A filler of n bytes takes n plus a slot entry.
	filler, err := s.Allocate(0, make([]byte, pg.FreeSpace()-96-4), true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := pg.FreeSpace(); got != 96 {
		t.Fatalf("tail page has %d free bytes, want 96", got)
	}
	shrink := &wal.Record{Type: wal.RecRefDelete, Txn: 7, OID: x, Before: full, After: full[:92]}
	if err := s.Apply(shrink, logAt); err != nil {
		t.Fatal(err)
	}
	return s, x, filler, shrink
}

// denseAllocateAfterShrink allocates a 100-byte object densely after the
// shrink. The 8 bytes the shrink freed stay reserved for transaction 7,
// so the object must not land on x's page.
func denseAllocateAfterShrink(t *testing.T, s *Store, x oid.OID) {
	t.Helper()
	y, err := s.Allocate(0, make([]byte, 100), true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if y.Page() == x.Page() {
		t.Errorf("dense allocation took the shrunk object's page %d", x.Page())
	}
}

// TestShrinkReservesForRegrowWontFit: the shrinking transaction's own regrow
// of the object still fits after another dense allocation.
func TestShrinkReservesForRegrowWontFit(t *testing.T) {
	s, x, _, shrink := shrinkOnTail(t)
	denseAllocateAfterShrink(t, s, x)
	regrow := &wal.Record{Type: wal.RecRefInsert, Txn: 7, OID: x, Before: shrink.After, After: shrink.Before}
	if err := s.Apply(regrow, logAt); err != nil {
		t.Fatalf("regrow by the shrinking transaction: %v", err)
	}
}

// TestShrinkReservesForRollbackWontFit: the rollback CLR that re-inserts
// the deleted reference still fits after another dense allocation.
func TestShrinkReservesForRollbackWontFit(t *testing.T) {
	s, x, _, shrink := shrinkOnTail(t)
	denseAllocateAfterShrink(t, s, x)
	clr := shrink.Compensation()
	clr.Txn = shrink.Txn
	if err := s.Apply(clr, logAt); err != nil {
		t.Fatalf("rollback CLR of the shrink: %v", err)
	}
	got, err := s.Read(x, nil)
	if err != nil || !bytes.Equal(got, shrink.Before) {
		t.Fatalf("after rollback: %d bytes, %v", len(got), err)
	}
}

// TestReservationReleasedAtTxnEnd: another transaction's growth on the
// page may not use the shrinking transaction's reservation; once that
// transaction ends, the freed bytes are ordinary free space again.
func TestReservationReleasedAtTxnEnd(t *testing.T) {
	s, _, filler, shrink := shrinkOnTail(t)
	before, err := s.Read(filler, nil)
	if err != nil {
		t.Fatal(err)
	}
	// An in-place growth needs no new slot entry, so the page has 108
	// bytes for it: 104 more fit only with the 8 that are reserved.
	grow := &wal.Record{Type: wal.RecUpdate, Txn: 8, OID: filler, Before: before, After: make([]byte, len(before)+104)}
	if err := s.Apply(grow, logAt); !errors.Is(err, ErrWontFit) {
		t.Fatalf("growth by another transaction into the reservation: %v, want ErrWontFit", err)
	}
	s.ReleaseReservations(shrink.Txn)
	if err := s.Apply(grow, logAt); err != nil {
		t.Fatalf("same growth after the release: %v", err)
	}
}

// TestUnloggedApplyIgnoresReservations: restart recovery applies records
// unlogged, with no transaction running, so it neither makes nor honors
// reservations.
func TestUnloggedApplyIgnoresReservations(t *testing.T) {
	s := newStore(t, 1, WithPageSize(1024))
	full := bytes.Repeat([]byte{'x'}, 100)
	x, err := s.Allocate(0, full, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(&wal.Record{Type: wal.RecRefDelete, Txn: 7, OID: x, After: full[:92]}, nil); err != nil {
		t.Fatal(err)
	}
	if n := len(s.parts[0].resv); n != 0 {
		t.Fatalf("unlogged apply reserved space on %d pages", n)
	}
}
