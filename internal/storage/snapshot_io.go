package storage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/oid"
)

// Snapshot serialization: a compact binary format so checkpoints can live
// on disk. Layout (little endian):
//
//	magic u32 | pageSize u32 | fillFactor f64bits u64 | nParts u32
//	per partition: id u32 | nLive u64 | cursor u64 | denseFloor u64 |
//	               mem u8 | nPages u64 |
//	               per page: present u8 [+ len u32 + bytes]
const snapMagic = 0x53524f47 // "GORS"

// ErrBadSnapshot reports a malformed serialized snapshot.
var ErrBadSnapshot = errors.New("storage: corrupt snapshot")

// WriteTo serializes the snapshot.
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
	if err := write(uint32(s.pageSize)); err != nil {
		return n, err
	}
	if err := write(uint64(floatBits(s.fillFactor))); err != nil {
		return n, err
	}
	if err := write(uint32(len(s.parts))); err != nil {
		return n, err
	}
	for id, ps := range s.parts {
		if err := write(uint32(id)); err != nil {
			return n, err
		}
		if err := write(uint64(ps.nLive)); err != nil {
			return n, err
		}
		if err := write(uint64(ps.cursor)); err != nil {
			return n, err
		}
		if err := write(uint64(ps.denseFloor)); err != nil {
			return n, err
		}
		var mem uint8
		if ps.mem {
			mem = 1
		}
		if err := write(mem); err != nil {
			return n, err
		}
		if err := write(uint64(len(ps.pages))); err != nil {
			return n, err
		}
		for _, pg := range ps.pages {
			if pg == nil {
				if err := write(uint8(0)); err != nil {
					return n, err
				}
				continue
			}
			if err := write(uint8(1)); err != nil {
				return n, err
			}
			if err := write(uint32(len(pg))); err != nil {
				return n, err
			}
			m, err := bw.Write(pg)
			n += int64(m)
			if err != nil {
				return n, err
			}
		}
	}
	return n, bw.Flush()
}

// ReadSnapshot parses a snapshot serialized by WriteTo.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	br := bufio.NewReader(r)
	read := func(v any) error { return binary.Read(br, binary.LittleEndian, v) }
	var magic, pageSize, nParts uint32
	var fillBits uint64
	if err := read(&magic); err != nil || magic != snapMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	if err := read(&pageSize); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if err := read(&fillBits); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if err := read(&nParts); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	ff := floatFromBits(fillBits)
	if !(ff > 0 && ff <= 1) {
		return nil, fmt.Errorf("%w: fill factor %v", ErrBadSnapshot, ff)
	}
	// The counts are untrusted: no size hints, so a corrupt count fails
	// at the first missing entry instead of allocating for all of them.
	snap := &Snapshot{
		pageSize:   int(pageSize),
		fillFactor: ff,
		parts:      make(map[oid.PartitionID]*partSnap),
	}
	for p := uint32(0); p < nParts; p++ {
		var id uint32
		var nLive, cursor, denseFloor, nPages uint64
		if err := read(&id); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
		}
		if err := read(&nLive); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
		}
		if err := read(&cursor); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
		}
		if err := read(&denseFloor); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
		}
		var mem uint8
		if err := read(&mem); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
		}
		if err := read(&nPages); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
		}
		if nPages > 1<<24 {
			return nil, fmt.Errorf("%w: absurd page count %d", ErrBadSnapshot, nPages)
		}
		ps := &partSnap{
			nLive:      int(nLive),
			cursor:     int(cursor),
			denseFloor: int(denseFloor),
			mem:        mem != 0,
		}
		for i := uint64(0); i < nPages; i++ {
			var present uint8
			if err := read(&present); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
			}
			if present == 0 {
				ps.pages = append(ps.pages, nil)
				continue
			}
			var size uint32
			if err := read(&size); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
			}
			if int(size) > 1<<20 {
				return nil, fmt.Errorf("%w: absurd page size %d", ErrBadSnapshot, size)
			}
			buf := make([]byte, size)
			if _, err := io.ReadFull(br, buf); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
			}
			ps.pages = append(ps.pages, buf)
		}
		snap.parts[oid.PartitionID(id)] = ps
	}
	return snap, nil
}

func floatBits(f float64) uint64     { return math.Float64bits(f) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }
