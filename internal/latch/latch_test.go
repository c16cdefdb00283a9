package latch

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/oid"
)

func TestMutualExclusion(t *testing.T) {
	tab := New(16)
	o := oid.New(1, 2, 3)
	var counter int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				tab.Latch(o)
				c := counter
				counter = c + 1
				tab.Unlatch(o)
			}
		}()
	}
	wg.Wait()
	if counter != 8000 {
		t.Fatalf("counter = %d, want 8000 (lost updates under write latch)", counter)
	}
}

func TestReadersShareWritersExclude(t *testing.T) {
	tab := New(8)
	o := oid.New(0, 1, 1)
	tab.RLatch(o)
	// A second reader must not block.
	done := make(chan struct{})
	go func() {
		tab.RLatch(o)
		tab.RUnlatch(o)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("second reader blocked by first reader")
	}
	// A writer must block until the reader releases.
	var wrote atomic.Bool
	go func() {
		tab.Latch(o)
		wrote.Store(true)
		tab.Unlatch(o)
	}()
	time.Sleep(20 * time.Millisecond)
	if wrote.Load() {
		t.Fatal("writer acquired latch while reader held it")
	}
	tab.RUnlatch(o)
	deadline := time.Now().Add(2 * time.Second)
	for !wrote.Load() {
		if time.Now().After(deadline) {
			t.Fatal("writer never acquired latch after reader release")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDistinctOIDsUsuallyIndependent(t *testing.T) {
	tab := New(1024)
	// With 1024 stripes, two fixed distinct OIDs should normally land on
	// different stripes; find such a pair and verify independence.
	a := oid.New(1, 1, 1)
	var b oid.OID
	for s := oid.SlotNum(2); s < 100; s++ {
		cand := oid.New(1, 1, s)
		if tab.stripe(cand) != tab.stripe(a) {
			b = cand
			break
		}
	}
	if b.IsNil() {
		t.Skip("could not find OID pair on distinct stripes")
	}
	tab.Latch(a)
	done := make(chan struct{})
	go func() {
		tab.Latch(b)
		tab.Unlatch(b)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("latch on b blocked by latch on a despite distinct stripes")
	}
	tab.Unlatch(a)
}

func TestNewRoundsUpToPowerOfTwo(t *testing.T) {
	tab := New(100)
	if len(tab.stripes) != 128 {
		t.Fatalf("stripes = %d, want 128", len(tab.stripes))
	}
	if def := New(0); len(def.stripes) != DefaultStripes {
		t.Fatalf("default stripes = %d, want %d", len(def.stripes), DefaultStripes)
	}
}
