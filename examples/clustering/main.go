// Clustering (paper §1): co-locating objects that are accessed together.
//
// A linked list is allocated interleaved with unrelated objects, so
// consecutive list elements land on different pages and a scan touches
// almost every page of the partition. The reorganizer migrates objects in
// traversal order with dense placement, which lays the list out
// contiguously — while readers keep scanning it.
package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/check"
	"repro/internal/db"
	"repro/internal/lock"
	"repro/internal/oid"
	"repro/internal/reorg"
)

func main() {
	cfg := db.DefaultConfig()
	cfg.PageSize = 1024 // small pages make locality visible
	// The filler sweep below records physical store addresses as
	// references; pin physical addressing so REORG_LOGICAL_OID cannot
	// reinterpret them as logical identities.
	cfg.PhysicalOIDs = true
	// The scanners hold shared locks down the list while the reorganizer
	// repoints each element's parent, so the two deadlock a few hundred
	// times per run; each deadlock stalls until the lock timeout. At the
	// paper's 1 s that is minutes of idle waiting, so break them sooner.
	cfg.LockTimeout = 20 * time.Millisecond
	d := db.Open(cfg)
	defer d.Close()
	must(d.CreatePartition(0))
	must(d.CreatePartition(1))

	// Interleave list elements with filler objects so the list scatters.
	tx, err := d.Begin()
	must(err)
	const listLen = 120
	pad := func(s string) []byte { // ~100-byte objects, a few per page
		b := make([]byte, 100)
		copy(b, s)
		return b
	}
	var list []oid.OID
	for i := 0; i < listLen; i++ {
		o, err := tx.Create(1, pad(fmt.Sprintf("elem-%03d", i)), nil)
		must(err)
		list = append(list, o)
		for j := 0; j < 6; j++ {
			_, err := tx.Create(1, pad(fmt.Sprintf("filler-%03d-%d", i, j)), nil)
			must(err)
		}
	}
	for i := 0; i+1 < len(list); i++ {
		must(tx.InsertRef(list[i], list[i+1]))
	}
	// Keep the filler reachable through a catch-all object so it is not
	// garbage (we are clustering, not collecting).
	var filler []oid.OID
	d.Store().ForEach(1, func(o oid.OID, _ []byte) bool {
		filler = append(filler, o)
		return true
	})
	// Small pages cap an object's reference fan-out, so the keeper is a
	// two-level tree over the filler.
	var chunks []oid.OID
	for i := 0; i < len(filler); i += 64 {
		end := i + 64
		if end > len(filler) {
			end = len(filler)
		}
		c, err := tx.Create(0, []byte(fmt.Sprintf("keeper-chunk-%d", i)), filler[i:end])
		must(err)
		chunks = append(chunks, c)
	}
	keeper, err := tx.Create(0, []byte("keeper"), chunks)
	must(err)
	root, err := tx.Create(0, []byte("root"), []oid.OID{list[0]})
	must(err)
	must(tx.Commit())

	fmt.Printf("list scan locality before clustering: %.2f page switches per hop\n",
		scanLocality(d, root))

	// Concurrent scanners keep reading the list during reorganization.
	var stop atomic.Bool
	var scans atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if scanList(d, root) {
					scans.Add(1)
				}
			}
		}()
	}

	// The clustering policy: migrate the list elements first, in list
	// order; dense placement then packs them contiguously. This is the
	// MigrationOrder hook — "the driving operation makes these
	// decisions" (paper §2).
	listOrder := append([]oid.OID(nil), list...)
	r := reorg.New(d, 1, reorg.Options{
		Mode: reorg.ModeIRA,
		MigrationOrder: func(objects []oid.OID) []oid.OID {
			return listOrder // remaining objects follow in traversal order
		},
	})
	must(r.Run())
	stop.Store(true)
	wg.Wait()

	fmt.Printf("reorganized %d objects while %d concurrent scans completed\n",
		r.Stats().Migrated, scans.Load())
	fmt.Printf("list scan locality after clustering:  %.2f page switches per hop\n",
		scanLocality(d, root))

	rep, err := check.Verify(d, []oid.OID{root, keeper})
	must(err)
	must(rep.Err())
	fmt.Printf("verified: %d objects, %d references, all valid\n", rep.Objects, rep.Refs)
}

// scanLocality walks the list and returns the fraction of hops that cross
// a page boundary (1.0 = every hop lands on a different page).
func scanLocality(d *db.Database, root oid.OID) float64 {
	tx, err := d.Begin()
	must(err)
	defer tx.Commit()
	obj, err := tx.Read(root)
	must(err)
	cur := obj.Refs[0]
	hops, switches := 0, 0
	for {
		next, err := tx.Read(cur)
		must(err)
		if len(next.Refs) == 0 {
			break
		}
		hops++
		if next.Refs[0].Page() != cur.Page() || next.Refs[0].Partition() != cur.Partition() {
			switches++
		}
		cur = next.Refs[0]
	}
	return float64(switches) / float64(hops)
}

// scanList walks the whole list under shared locks; returns false if a
// lock timed out (it is simply retried).
func scanList(d *db.Database, root oid.OID) bool {
	tx, err := d.Begin()
	if err != nil {
		return false
	}
	cur := root
	for {
		if err := tx.Lock(cur, lock.Shared); err != nil {
			tx.Abort()
			return false
		}
		obj, err := tx.Read(cur)
		if err != nil {
			tx.Abort()
			return false
		}
		if len(obj.Refs) == 0 {
			return tx.Commit() == nil
		}
		cur = obj.Refs[0]
	}
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
