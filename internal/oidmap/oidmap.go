// Package oidmap implements the logical→physical OID indirection table
// of logical-OID mode (db.Config.LogicalOIDs).
//
// The paper's system model stores physical OIDs inside objects, which is
// why reorganization must rewrite every parent of a migrated object.
// With an indirection table the trade inverts: references hold logical
// OIDs that never change, a migration updates one map entry, and every
// dereference pays one extra hop through this table. The table is
// sharded with read-write locks so the hot dereference path (Resolve)
// takes only a shard read lock.
//
// Logical OIDs reuse the oid.OID bit layout: the partition field names
// the object's logical partition, and the (page, slot) bits pack a
// per-partition monotonic sequence number. Sequence allocation — never
// address reuse — keeps logical identities collision-free across any
// number of migrations (a recycled physical slot must not mint an OID
// that collides with a live migrated object's identity).
//
// Durability: every map mutation is WAL-logged by the db layer
// (wal.RecCreate/RecDelete with Obj set, wal.RecMapSet), and checkpoints
// embed a Snapshot, so ARIES restart rebuilds the mapping exactly via
// Apply/Undo.
package oidmap

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/oid"
)

// numShards is the shard count of the map; a fixed power of two so the
// shard index is a mask of the mixed hash.
const numShards = 64

// seqStart is the first sequence number handed out in each partition:
// page 1, slot 0, so no logical OID is ever oid.Nil or page-0 (which
// physical addressing also never uses).
const seqStart = 1 << 16

type shard struct {
	mu sync.RWMutex
	m  map[oid.OID]oid.OID
}

// Map is the logical→physical indirection table. The zero value is not
// usable; call New.
type Map struct {
	shards [numShards]shard

	seqMu sync.Mutex
	seq   map[oid.PartitionID]uint64 // next sequence number per partition
}

// New returns an empty map.
func New() *Map {
	m := &Map{seq: make(map[oid.PartitionID]uint64)}
	for i := range m.shards {
		m.shards[i].m = make(map[oid.OID]oid.OID)
	}
	return m
}

// shardOf mixes the OID bits and picks a shard.
func (m *Map) shardOf(l oid.OID) *shard {
	h := uint64(l) * 0x9E3779B97F4A7C15 // Fibonacci hashing
	return &m.shards[h>>(64-6)]
}

// seqOf unpacks the sequence number a logical OID carries.
func seqOf(l oid.OID) uint64 {
	return uint64(l.Page())<<16 | uint64(l.Slot())
}

// oidOf packs a sequence number into a logical OID of part.
func oidOf(part oid.PartitionID, seq uint64) oid.OID {
	return oid.New(part, oid.PageNum(seq>>16), oid.SlotNum(seq&0xffff))
}

// NextID mints a fresh logical OID in part. The identity is reserved
// forever — sequence numbers are never reused, even if the object's
// creation aborts.
func (m *Map) NextID(part oid.PartitionID) oid.OID {
	m.seqMu.Lock()
	s := m.seq[part]
	if s < seqStart {
		s = seqStart
	}
	m.seq[part] = s + 1
	m.seqMu.Unlock()
	return oidOf(part, s)
}

// Resolve returns the physical address of l. This is the hot extra hop
// of logical mode: one shard read lock and one map probe.
func (m *Map) Resolve(l oid.OID) (oid.OID, bool) {
	sh := m.shardOf(l)
	sh.mu.RLock()
	p, ok := sh.m[l]
	sh.mu.RUnlock()
	return p, ok
}

// Set binds l to physical address p, advancing the partition's sequence
// allocator past l so recovery replay can never re-mint a live identity.
func (m *Map) Set(l, p oid.OID) {
	sh := m.shardOf(l)
	sh.mu.Lock()
	sh.m[l] = p
	sh.mu.Unlock()

	next := seqOf(l) + 1
	part := l.Partition()
	m.seqMu.Lock()
	if m.seq[part] < next {
		m.seq[part] = next
	}
	m.seqMu.Unlock()
}

// Delete removes l's binding (object deletion). Unknown identities are
// a no-op, keeping replay idempotent.
func (m *Map) Delete(l oid.OID) {
	sh := m.shardOf(l)
	sh.mu.Lock()
	delete(sh.m, l)
	sh.mu.Unlock()
}

// Len returns the number of live bindings.
func (m *Map) Len() int {
	n := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// ForEach visits every (logical, physical) binding until fn returns
// false. Iteration order is unspecified; each shard is visited under its
// read lock, so concurrent mutation of other shards is tolerated.
func (m *Map) ForEach(fn func(l, p oid.OID) bool) {
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		for l, p := range sh.m {
			if !fn(l, p) {
				sh.mu.RUnlock()
				return
			}
		}
		sh.mu.RUnlock()
	}
}

// PartitionOIDs returns the logical OIDs bound in part, in ascending
// (sequence) order — the logical-mode analogue of a physical-order scan.
func (m *Map) PartitionOIDs(part oid.PartitionID) []oid.OID {
	var out []oid.OID
	m.ForEach(func(l, _ oid.OID) bool {
		if l.Partition() == part {
			out = append(out, l)
		}
		return true
	})
	sortOIDs(out)
	return out
}

// Partitions returns the logical partitions with at least one binding,
// ascending.
func (m *Map) Partitions() []oid.PartitionID {
	seen := make(map[oid.PartitionID]bool)
	m.ForEach(func(l, _ oid.OID) bool {
		seen[l.Partition()] = true
		return true
	})
	m.seqMu.Lock()
	for part := range m.seq {
		seen[part] = true
	}
	m.seqMu.Unlock()
	out := make([]oid.PartitionID, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func sortOIDs(s []oid.OID) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Snapshot is a deep, serializable copy of the map — bindings plus the
// sequence allocators (which must survive restart so identities are
// never re-minted).
type Snapshot struct {
	Seq     map[oid.PartitionID]uint64
	Entries map[oid.OID]oid.OID
}

// Snapshot deep-copies the map. Callers must exclude concurrent
// mutators (the db layer holds its checkpoint gate in write mode).
func (m *Map) Snapshot() *Snapshot {
	s := &Snapshot{
		Seq:     make(map[oid.PartitionID]uint64),
		Entries: make(map[oid.OID]oid.OID, m.Len()),
	}
	m.seqMu.Lock()
	for part, v := range m.seq {
		s.Seq[part] = v
	}
	m.seqMu.Unlock()
	m.ForEach(func(l, p oid.OID) bool {
		s.Entries[l] = p
		return true
	})
	return s
}

// Restore replaces the map's content with the snapshot's.
func (m *Map) Restore(s *Snapshot) {
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		sh.m = make(map[oid.OID]oid.OID)
		sh.mu.Unlock()
	}
	m.seqMu.Lock()
	m.seq = make(map[oid.PartitionID]uint64, len(s.Seq))
	for part, v := range s.Seq {
		m.seq[part] = v
	}
	m.seqMu.Unlock()
	for l, p := range s.Entries {
		m.Set(l, p)
	}
}

// ErrBadSnapshot reports a malformed serialized map snapshot.
var ErrBadSnapshot = errors.New("oidmap: corrupt snapshot")

const snapMagic = 0x4d52414f // "OARM"

// WriteTo serializes the snapshot (little endian):
//
//	magic u32 | nSeq u32 | (part u32, seq u64)* | nEnt u64 | (l u64, p u64)*
func (s *Snapshot) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	write := func(v any) error {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
		n += int64(binary.Size(v))
		return nil
	}
	if err := write(uint32(snapMagic)); err != nil {
		return n, err
	}
	if err := write(uint32(len(s.Seq))); err != nil {
		return n, err
	}
	for part, v := range s.Seq {
		if err := write(uint32(part)); err != nil {
			return n, err
		}
		if err := write(uint64(v)); err != nil {
			return n, err
		}
	}
	if err := write(uint64(len(s.Entries))); err != nil {
		return n, err
	}
	for l, p := range s.Entries {
		if err := write(uint64(l)); err != nil {
			return n, err
		}
		if err := write(uint64(p)); err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// ReadSnapshot parses a snapshot serialized by WriteTo.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	br := bufio.NewReader(r)
	read := func(v any) error { return binary.Read(br, binary.LittleEndian, v) }
	var magic, nSeq uint32
	if err := read(&magic); err != nil || magic != snapMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	if err := read(&nSeq); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	// nSeq is untrusted: no size hint, so a corrupt count fails at the
	// first missing entry instead of allocating for 2³² of them.
	s := &Snapshot{
		Seq:     make(map[oid.PartitionID]uint64),
		Entries: make(map[oid.OID]oid.OID),
	}
	for i := uint32(0); i < nSeq; i++ {
		var part uint32
		var v uint64
		if err := read(&part); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
		}
		if err := read(&v); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
		}
		s.Seq[oid.PartitionID(part)] = v
	}
	var nEnt uint64
	if err := read(&nEnt); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if nEnt > 1<<32 {
		return nil, fmt.Errorf("%w: absurd entry count %d", ErrBadSnapshot, nEnt)
	}
	for i := uint64(0); i < nEnt; i++ {
		var l, p uint64
		if err := read(&l); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
		}
		if err := read(&p); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
		}
		s.Entries[oid.OID(l)] = oid.OID(p)
	}
	return s, nil
}
