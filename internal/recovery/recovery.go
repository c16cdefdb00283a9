// Package recovery implements ARIES-style restart recovery.
//
// The durable state of the (memory-resident) database is a checkpoint —
// an action-consistent snapshot of the store plus the LSN of its
// checkpoint record — together with the flushed prefix of the log. A
// crash loses everything else. Restart proceeds in the classic three
// passes:
//
//   - analysis: scan the log to find loser transactions — those with
//     activity but no commit or abort record;
//   - redo: reinstall the after-image of every record past the checkpoint
//     (full-image records make this trivially idempotent);
//   - undo: roll back each loser by walking its Prev chain and applying
//     each record's compensation (wal.Record.Compensation, the CLR live
//     rollback would log) unlogged, honoring CLR UndoNxt pointers so
//     updates already compensated (by a runtime abort that was
//     interrupted mid-flight) are not undone twice.
//
// Recovery itself does not append to the log: re-running it from the same
// durable image is deterministic and idempotent, which is how a crash
// during recovery is modeled. ERTs are rebuilt afterwards by a full
// database scan — the paper's stated alternative to logging ERT updates
// (§4.4 item 1). If the reorganizer was running at crash time its own
// restart protocol (internal/reorg) takes over from there.
package recovery

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/db"
	"repro/internal/fault"
	"repro/internal/oid"
	"repro/internal/oidmap"
	"repro/internal/segment"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Crash-during-recovery fault points, one after each restart pass.
// A firing aborts Recover with the injected error; because recovery
// never appends to the log, rerunning it from the same image is safe
// and must produce the same database — the property the torture
// harness checks by crashing restarts and restarting them.
var (
	fpAnalysis = fault.Point(fault.RecoveryAnalysis)
	fpRedo     = fault.Point(fault.RecoveryRedo)
	fpUndo     = fault.Point(fault.RecoveryUndo)
)

// Image is the durable state available after a crash.
type Image struct {
	Ckpt *db.Checkpoint
	// Records is the flushed prefix of the log, including records from
	// before the checkpoint (needed to undo transactions that were
	// already running when the checkpoint was taken).
	Records []*wal.Record
}

// CaptureImage simulates what survives a crash of d: the given checkpoint
// plus the log prefix up to the durable (flushed) horizon. Records
// appended after the last flush are lost, exactly as they would be on a
// real log device.
func CaptureImage(d *db.Database, ckpt *db.Checkpoint) *Image {
	flushed := d.Log().FlushedLSN()
	var kept []*wal.Record
	for _, r := range d.Log().Records(1) {
		if r.LSN <= flushed {
			kept = append(kept, r)
		}
	}
	return &Image{Ckpt: ckpt, Records: kept}
}

// pageKey identifies one slotted page for redo gating.
type pageKey struct {
	part oid.PartitionID
	pn   int
}

// Recover rebuilds a database from a crash image. The returned database
// contains exactly the effects of committed transactions (and completed
// rollbacks); its ERTs are rebuilt by scan.
//
// For a disk-backed database (cfg.DiskBacked with cfg.DataDir set) the
// durable state additionally includes the segment files: the buffer
// pool's flush-behind may have written pages past the checkpoint, so
// those pages are overlaid onto the snapshot and redo is gated by page
// LSN, exactly as in ARIES. A torn segment page (CRC mismatch from a
// crash mid-write) is discarded — the snapshot copy plus the log
// repairs it. The recovered image is then rematerialized into the
// segment directory before the database reopens.
func Recover(img *Image, cfg db.Config) (*db.Database, error) {
	if img.Ckpt == nil || img.Ckpt.Snap == nil {
		return nil, fmt.Errorf("recovery: image has no checkpoint snapshot")
	}
	st := storage.RestoreSnapshot(img.Ckpt.Snap)

	// Restore the OID indirection map in logical-OID mode. The map has
	// no page LSNs: it is rebuilt exactly by replaying every record past
	// the checkpoint (all map effects are idempotent), then corrected by
	// the undo pass for losers.
	var m *oidmap.Map
	if img.Ckpt.Map != nil || cfg.LogicalOIDs {
		m = oidmap.New()
		if img.Ckpt.Map != nil {
			m.Restore(img.Ckpt.Map)
		}
	}

	// Overlay the durable segment pages. pageLSNs records, per page, the
	// highest LSN whose effect the page already carries; redo skips
	// records at or below it (their effects reached disk before the
	// crash and redoing them would double-apply non-idempotent ops).
	// Pages the pool never flushed after the checkpoint stay at the
	// snapshot image and take the full redo stream.
	diskBacked := cfg.DiskBacked && cfg.DataDir != ""
	pageLSNs := make(map[pageKey]wal.LSN)
	if diskBacked {
		if err := overlaySegments(st, cfg.DataDir, img.Ckpt.LSN, pageLSNs); err != nil {
			return nil, fmt.Errorf("recovery: segment overlay: %w", err)
		}
	}

	// Analysis.
	byLSN := make(map[wal.LSN]*wal.Record, len(img.Records))
	lastLSN := make(map[wal.TxnID]wal.LSN)
	terminal := make(map[wal.TxnID]bool)
	seen := make(map[wal.TxnID]bool)
	for _, r := range img.Records {
		byLSN[r.LSN] = r
		switch r.Type {
		case wal.RecCheckpoint:
			for _, t := range r.Active {
				seen[t] = true
			}
		case wal.RecCommit, wal.RecAbort:
			terminal[r.Txn] = true
			lastLSN[r.Txn] = r.LSN
		default:
			if r.Txn != 0 {
				seen[r.Txn] = true
				lastLSN[r.Txn] = r.LSN
			}
		}
	}
	var losers []wal.TxnID
	for t := range seen {
		if !terminal[t] {
			losers = append(losers, t)
		}
	}
	if ferr := fpAnalysis.Maybe(); ferr != nil {
		return nil, fmt.Errorf("recovery: interrupted after analysis: %w", ferr)
	}

	// Redo everything past the checkpoint.
	for _, r := range img.Records {
		if r.LSN <= img.Ckpt.LSN {
			continue
		}
		if err := redo(st, m, r, pageLSNs); err != nil {
			return nil, fmt.Errorf("recovery: redo LSN %d (%v): %w", r.LSN, r.Type, err)
		}
	}
	if ferr := fpRedo.Maybe(); ferr != nil {
		return nil, fmt.Errorf("recovery: interrupted after redo: %w", ferr)
	}

	// Undo losers.
	for _, t := range losers {
		if err := undoTxn(st, m, byLSN, lastLSN[t]); err != nil {
			return nil, fmt.Errorf("recovery: undo txn %d: %w", t, err)
		}
	}
	if ferr := fpUndo.Maybe(); ferr != nil {
		return nil, fmt.Errorf("recovery: interrupted after undo: %w", ferr)
	}

	// Rematerialize a disk-backed store: the segment directory is reset
	// and rewritten from the recovered image, every page stamped LSN
	// zero. Stamp zero is deliberate: the new database epoch opens a
	// fresh log, and its first checkpoint re-establishes the overlay
	// baseline — until then a re-crash re-recovers from the same image,
	// and the zero stamps make the overlay ignore the materialized pages
	// (lsn <= ckpt.LSN), so re-running recovery stays deterministic even
	// if materialization itself was interrupted halfway.
	if diskBacked {
		dst, err := storage.MaterializeDiskBacked(st, cfg.DataDir, cfg.PoolFrames)
		if err != nil {
			return nil, fmt.Errorf("recovery: materialize segments: %w", err)
		}
		st = dst
	}

	d := db.OpenWithState(cfg, st, m)
	if err := d.RebuildERTs(); err != nil {
		d.Close()
		return nil, err
	}
	return d, nil
}

// overlaySegments installs every durable segment page newer than the
// checkpoint onto the snapshot-restored store and records its LSN in
// pageLSNs for redo gating. Older pages are ignored — the checkpoint
// flushed everything before snapshotting, so their content already
// equals the snapshot. Torn pages are ignored too (kept at the snapshot
// image; gated redo repairs them from the log), as are pages of segment
// files recovery cannot read at all.
func overlaySegments(st *storage.Store, dataDir string, ckptLSN wal.LSN, pageLSNs map[pageKey]wal.LSN) error {
	seg, err := segment.Open(dataDir, st.PageSize())
	if err != nil {
		return err
	}
	defer seg.Close()
	ids, err := seg.Partitions()
	if err != nil {
		return err
	}
	// One read buffer serves every page: InstallPageImage copies.
	slot := make([]byte, seg.SlotSize())
	for _, id := range ids {
		n, err := seg.NumPages(id)
		if err != nil {
			return err
		}
		for pn := 1; pn <= n; pn++ {
			data, lsn, rerr := seg.ReadPage(id, pn, slot)
			switch {
			case rerr == nil:
				if wal.LSN(lsn) > ckptLSN {
					st.InstallPageImage(id, pn, data)
					pageLSNs[pageKey{id, pn}] = wal.LSN(lsn)
				}
			case errors.Is(rerr, segment.ErrAbsent):
				// A durable absence marker newer than the checkpoint:
				// the page was trimmed after the snapshot was taken.
				if wal.LSN(lsn) > ckptLSN {
					st.RemovePageImage(id, pn)
					pageLSNs[pageKey{id, pn}] = wal.LSN(lsn)
				}
			case errors.Is(rerr, segment.ErrTorn):
				// CRC rejected a page the crash tore mid-write. The
				// snapshot copy stays in place; redo repairs it.
			default:
				return fmt.Errorf("partition %d page %d: %w", id, pn, rerr)
			}
		}
	}
	// Overlaying changes liveness behind the per-partition counters.
	st.RecountLive()
	return nil
}

// redo reinstalls the after-image of r unless the overlaid page already
// carries it (pageLSN at or past r.LSN). Map effects are replayed
// unconditionally — the map is never flushed page-wise, only rebuilt
// from the checkpoint snapshot plus the record stream.
func redo(st *storage.Store, m *oidmap.Map, r *wal.Record, pageLSNs map[pageKey]wal.LSN) error {
	oidmap.Apply(m, r)
	switch r.Type {
	case wal.RecPartCreate:
		// Redo-only partition lifecycle record; Child != 0 marks a
		// memory-resident partition of a disk-backed store.
		err := st.CreatePartitionBacked(r.OID.Partition(), r.Child != 0)
		if err != nil && !errors.Is(err, storage.ErrPartitionExists) {
			return err
		}
		return nil
	case wal.RecPartDrop:
		err := st.DropPartition(r.OID.Partition())
		if err != nil && !errors.Is(err, storage.ErrNoPartition) {
			return err
		}
		return nil
	}
	// Page 0 is reserved, so a record addressing it (Begin, Commit,
	// Abort, Checkpoint, MapSet) has no page effect to redo.
	key := pageKey{r.OID.Partition(), int(r.OID.Page())}
	if key.pn == 0 || pageLSNs[key] >= r.LSN {
		return nil // no page effect, or effect already durable in the overlaid page
	}
	err := st.Apply(r, nil)
	if err == nil {
		pageLSNs[key] = r.LSN
	}
	return err
}

// undoTxn walks a loser's chain backwards from last, applying each
// record's compensation unlogged: the same image live rollback would log
// as a CLR. CLRs are never undone; their UndoNxt pointer skips the
// portion of the chain a prior (interrupted) rollback already
// compensated.
func undoTxn(st *storage.Store, m *oidmap.Map, byLSN map[wal.LSN]*wal.Record, last wal.LSN) error {
	cur := last
	for cur != 0 {
		r, ok := byLSN[cur]
		if !ok {
			return fmt.Errorf("undo chain broken at LSN %d (log truncated too aggressively?)", cur)
		}
		if r.CLR {
			cur = r.UndoNxt
			continue
		}
		if r.Type == wal.RecBegin {
			return nil
		}
		if c := r.Compensation(); c != nil {
			if err := st.Apply(c, nil); err != nil {
				return err
			}
			oidmap.Apply(m, c)
		}
		cur = r.Prev
	}
	return nil
}

// SaveCheckpoint persists a checkpoint to a file: the LSN, a
// length-prefixed OID-map snapshot (length zero outside logical-OID
// mode), then the serialized store snapshot. The map blob precedes the
// store snapshot because storage.ReadSnapshot buffers its reader and may
// consume past the snapshot's end — trailing data would be unreliable.
// Together with the WAL segment files this is the complete durable state
// of the database.
func SaveCheckpoint(path string, ckpt *db.Checkpoint) error {
	f, err := os.CreateTemp(filepath.Dir(path), ".ckpt-*")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name())
	var mapBuf bytes.Buffer
	if ckpt.Map != nil {
		if _, err := ckpt.Map.WriteTo(&mapBuf); err != nil {
			f.Close()
			return err
		}
	}
	var hdr [12]byte
	binary.LittleEndian.PutUint64(hdr[:8], uint64(ckpt.LSN))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(mapBuf.Len()))
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(mapBuf.Bytes()); err != nil {
		f.Close()
		return err
	}
	if _, err := ckpt.Snap.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	// Atomic replace: a crash during checkpointing leaves the previous
	// checkpoint intact.
	return os.Rename(f.Name(), path)
}

// LoadCheckpoint reads a checkpoint saved by SaveCheckpoint.
func LoadCheckpoint(path string) (*db.Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var hdr [12]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return nil, fmt.Errorf("recovery: checkpoint header: %w", err)
	}
	var msnap *oidmap.Snapshot
	if mapLen := binary.LittleEndian.Uint32(hdr[8:]); mapLen > 0 {
		blob := make([]byte, mapLen)
		if _, err := io.ReadFull(f, blob); err != nil {
			return nil, fmt.Errorf("recovery: checkpoint map blob: %w", err)
		}
		msnap, err = oidmap.ReadSnapshot(bytes.NewReader(blob))
		if err != nil {
			return nil, err
		}
	}
	snap, err := storage.ReadSnapshot(f)
	if err != nil {
		return nil, err
	}
	return &db.Checkpoint{LSN: wal.LSN(binary.LittleEndian.Uint64(hdr[:8])), Map: msnap, Snap: snap}, nil
}

// LoadRecords reads the durable log records from a WAL segment directory.
func LoadRecords(logDir string) ([]*wal.Record, error) {
	dev, err := wal.NewFileDevice(logDir, 0)
	if err != nil {
		return nil, err
	}
	defer dev.Close()
	return dev.ReadAll()
}

// RecoverFromFiles restores a database from its on-disk state: the
// checkpoint file plus the WAL segment directory. This is the restart
// path for a database opened with Config.LogDir.
func RecoverFromFiles(ckptPath, logDir string, cfg db.Config) (*db.Database, error) {
	ckpt, err := LoadCheckpoint(ckptPath)
	if err != nil {
		return nil, err
	}
	records, err := LoadRecords(logDir)
	if err != nil {
		return nil, err
	}
	return Recover(&Image{Ckpt: ckpt, Records: records}, cfg)
}
