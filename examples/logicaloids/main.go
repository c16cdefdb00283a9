// Logical OIDs: the indirection-table mode.
//
// examples/quickstart shows the paper's headline setting, where
// references are physical addresses and reorganization must rewrite
// every parent of a migrated object. This example pins the other mode:
// references hold logical OIDs that a per-partition indirection table
// (internal/oidmap) maps to storage addresses. Reorganization then
// swings one map entry per migrated object — parents are untouched —
// and an entire partition can move to a different store backing while
// readers keep the OIDs they already hold.
package main

import (
	"fmt"

	"repro/internal/db"
	"repro/internal/oid"
	"repro/internal/reorg"
)

func main() {
	// A disk-backed database (DataDir empty = temp dir removed on
	// Close) with the indirection table switched on.
	cfg := db.DefaultConfig()
	cfg.DiskBacked = true
	cfg.LogicalOIDs = true
	d := db.Open(cfg)
	defer d.Close()

	// Partition 0 holds the persistent root; partition 1 the data.
	must(d.CreatePartition(0))
	must(d.CreatePartition(1))

	tx, err := d.Begin()
	must(err)

	// Create returns LOGICAL OIDs here: stable names drawn from a
	// per-partition sequence, not addresses. The map entry recording
	// where each body lives is WAL-logged with the create itself.
	leaf, err := tx.Create(1, []byte("leaf"), nil)
	must(err)
	mid, err := tx.Create(1, []byte("mid"), []oid.OID{leaf})
	must(err)
	root, err := tx.Create(0, []byte("root"), []oid.OID{mid})
	must(err)
	must(tx.Commit())

	phys := func(l oid.OID) oid.OID {
		p, ok := d.OIDMap().Resolve(l)
		if !ok {
			panic(fmt.Sprintf("no mapping for %v", l))
		}
		return p
	}
	midBefore, leafBefore := phys(mid), phys(leaf)
	fmt.Printf("before reorganization: mid = %v (body at %v), leaf = %v (body at %v)\n",
		mid, midBefore, leaf, leafBefore)

	// Reorganize partition 1 on-line. Same IRA as quickstart, but with
	// the table interposed a migration is one map-entry swing: note
	// ParentsUpdated below.
	r := reorg.New(d, 1, reorg.Options{Mode: reorg.ModeIRA})
	must(r.Run())
	fmt.Printf("reorganization: migrated %d objects, updated %d parent references\n",
		r.Stats().Migrated, r.Stats().ParentsUpdated)

	// Identity stability: the root still holds the SAME logical OIDs,
	// even though the bodies moved.
	tx2, err := d.Begin()
	must(err)
	rootObj, err := tx2.Read(root)
	must(err)
	if rootObj.Refs[0] != mid {
		panic("logical OID changed across reorganization")
	}
	must(tx2.Commit())
	fmt.Printf("after reorganization:  mid = %v (body at %v), leaf = %v (body at %v)\n",
		mid, phys(mid), leaf, phys(leaf))
	if phys(mid) == midBefore && phys(leaf) == leafBefore {
		panic("bodies did not move")
	}

	// Cross-store move: evacuate partition 1's bodies into a new
	// pool-managed partition 9 and drop the old store partition. The
	// logical identities (and partition 1's reference table) survive —
	// readers holding OIDs into partition 1 never notice.
	st, err := reorg.MigrateStore(d, 1, 9, true, reorg.Options{Mode: reorg.ModeIRA})
	must(err)
	fmt.Printf("store move: migrated %d bodies into partition 9, updated %d parents\n",
		st.Migrated, st.ParentsUpdated)

	tx3, err := d.Begin()
	must(err)
	midObj, err := tx3.Read(mid)
	must(err)
	leafObj, err := tx3.Read(leaf)
	must(err)
	must(tx3.Commit())
	fmt.Printf("after store move:      mid = %v (body at %v), leaf = %v (body at %v)\n",
		mid, phys(mid), leaf, phys(leaf))
	fmt.Printf("payloads intact: %q -> %q -> %q\n",
		rootObj.Payload, midObj.Payload, leafObj.Payload)
	if phys(mid).Partition() != 9 || phys(leaf).Partition() != 9 {
		panic("bodies did not land in partition 9")
	}
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
