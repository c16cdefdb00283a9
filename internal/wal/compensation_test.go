package wal

import (
	"reflect"
	"testing"

	"repro/internal/oid"
)

// TestCompensationTable pins the CLR each compensable record type gets:
// type, children, images, UndoNxt, OID, Obj and the CLR flag.
func TestCompensationTable(t *testing.T) {
	var (
		at     = oid.New(1, 2, 3)
		ident  = oid.New(1, 0, 9)
		c1, c2 = oid.New(4, 5, 6), oid.New(7, 8, 9)
		before = []byte("before")
		after  = []byte("after")
	)
	clr := func(typ RecType, child, child2 oid.OID, b, a []byte) *Record {
		return &Record{Type: typ, CLR: true, OID: at, Obj: ident, Child: child, Child2: child2, Before: b, After: a, UndoNxt: 41}
	}
	for _, tc := range []struct {
		typ  RecType
		want *Record
	}{
		{RecUpdate, clr(RecUpdate, 0, 0, nil, before)},
		{RecCreate, clr(RecDelete, 0, 0, after, nil)},
		{RecDelete, clr(RecCreate, 0, 0, nil, before)},
		{RecPhysAlloc, clr(RecPhysFree, 0, 0, after, nil)},
		{RecPhysFree, clr(RecPhysAlloc, 0, 0, nil, before)},
		{RecMapSet, clr(RecMapSet, c2, c1, nil, nil)},
		{RecRefInsert, clr(RecRefDelete, c1, 0, after, before)},
		{RecRefDelete, clr(RecRefInsert, c1, 0, after, before)},
		{RecRefUpdate, clr(RecRefUpdate, c2, c1, after, before)},
	} {
		r := &Record{
			LSN: 42, Prev: 41, Type: tc.typ, Txn: 7, OID: at, Obj: ident,
			Child: c1, Child2: c2, Before: before, After: after,
		}
		if got := r.Compensation(); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%v: compensation\n  got  %+v\n  want %+v", tc.typ, got, tc.want)
		}
		// A CLR is redo-only: it has no compensation of its own.
		if got := tc.want.Compensation(); got != nil {
			t.Errorf("CLR %v has compensation %+v", tc.want.Type, got)
		}
	}
	for _, typ := range []RecType{RecBegin, RecCommit, RecAbort, RecCheckpoint, RecPartCreate, RecPartDrop, RecType(0), RecType(200)} {
		r := &Record{LSN: 3, Prev: 2, Type: typ, Txn: 1, OID: at, Before: before, After: after}
		if got := r.Compensation(); got != nil {
			t.Errorf("%v: compensation %+v, want none", typ, got)
		}
	}
}
