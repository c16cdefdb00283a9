package oidmap

import (
	"repro/internal/wal"
)

// Apply performs the map effect of one log record; storage.Store.Apply
// is its page-side counterpart. Undo is Apply of the record's
// compensation (wal.Record.Compensation). Every effect is idempotent
// (Set overwrites, Delete tolerates absence), so redo can replay
// unconditionally — the map has no page LSNs; it is rebuilt from the
// latest checkpoint snapshot plus the log suffix.
//
// Records of physical-mode objects (Obj == 0) and types without a map
// effect are no-ops.
func Apply(m *Map, r *wal.Record) {
	if m == nil {
		return
	}
	switch r.Type {
	case wal.RecCreate:
		if !r.Obj.IsNil() {
			m.Set(r.Obj, r.OID)
		}
	case wal.RecDelete:
		if !r.Obj.IsNil() {
			m.Delete(r.Obj)
		}
	case wal.RecMapSet:
		// Child → Child2; a CLR built by compensation already carries the
		// swapped pair, so the rule is uniform.
		m.Set(r.Obj, r.Child2)
	}
}
