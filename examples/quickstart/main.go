// Quickstart: the smallest end-to-end use of the library.
//
// It opens an object database, stores a few objects holding physical
// references to each other, migrates the partition they live in with the
// on-line Incremental Reorganization Algorithm (IRA), and shows that the
// graph is intact at new physical addresses.
package main

import (
	"fmt"

	"repro/internal/db"
	"repro/internal/oid"
	"repro/internal/reorg"
)

func main() {
	// Open a database: strict two-phase locking, write-ahead logging,
	// 8 KiB slotted pages. This example demonstrates PHYSICAL references
	// — the paper's headline setting, where reorganization must rewrite
	// parents, and the default (see examples/logicaloids for the
	// indirection-table mode).
	d := db.Open(db.DefaultConfig())
	defer d.Close()

	// Partition 0 holds the persistent root; partition 1 the data.
	must(d.CreatePartition(0))
	must(d.CreatePartition(1))

	// Everything happens in transactions.
	tx, err := d.Begin()
	must(err)

	// Objects hold a payload and outgoing references. References are
	// PHYSICAL: an OID is the object's actual (partition, page, slot)
	// address.
	leaf, err := tx.Create(1, []byte("leaf"), nil)
	must(err)
	mid, err := tx.Create(1, []byte("mid"), []oid.OID{leaf})
	must(err)
	root, err := tx.Create(0, []byte("root"), []oid.OID{mid})
	must(err)
	must(tx.Commit())

	fmt.Printf("before reorganization: mid at %v, leaf at %v\n", mid, leaf)

	// Reorganize partition 1 on-line. (Here nothing else is running; see
	// examples/compaction for concurrent transactions.) IRA finds each
	// object's parents and rewrites their references atomically.
	r := reorg.New(d, 1, reorg.Options{Mode: reorg.ModeIRA})
	must(r.Run())
	fmt.Printf("reorganization: migrated %d objects, updated %d parent references\n",
		r.Stats().Migrated, r.Stats().ParentsUpdated)

	// Follow the graph from the root: the addresses changed, the graph
	// did not.
	tx2, err := d.Begin()
	must(err)
	rootObj, err := tx2.Read(root)
	must(err)
	newMid := rootObj.Refs[0]
	midObj, err := tx2.Read(newMid)
	must(err)
	newLeaf := midObj.Refs[0]
	leafObj, err := tx2.Read(newLeaf)
	must(err)
	must(tx2.Commit())

	fmt.Printf("after reorganization:  mid at %v, leaf at %v\n", newMid, newLeaf)
	fmt.Printf("payloads intact: %q -> %q -> %q\n",
		rootObj.Payload, midObj.Payload, leafObj.Payload)
	if newMid == mid || newLeaf == leaf {
		panic("objects did not move")
	}
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
