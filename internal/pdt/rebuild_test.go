package pdt

import (
	"errors"
	"testing"

	"pdtstore/internal/types"
)

// TestRebuildRejectsIllTypedEntries: an entry whose payload does not fit the
// schema is an error from Rebuild. A ghost key of the wrong kind once passed
// (only its arity was checked), and replaying a later record that inserts at
// the ghost's position then compared a string with an int64 and panicked, on
// both ways a log tail is applied: Propagate, as recovery does, and Fold.
func TestRebuildRejectsIllTypedEntries(t *testing.T) {
	schema := intSchema() // k Int64 (the sort key), a Int64, b String
	for _, bad := range []RebuildEntry{
		{SID: 1, Kind: KindDel, Del: types.Row{types.Str("x")}},
		{SID: 1, Kind: KindDel, Del: types.Row{types.Int(20), types.Int(1)}},
		{SID: 1, Kind: KindDel},
		{SID: 1, Kind: 1, Mod: types.Str("x")},
		{SID: 1, Kind: 0, Mod: types.Int(5)},
		{SID: 1, Kind: 3, Mod: types.Int(5)},
		{SID: 1, Kind: KindIns, Ins: types.Row{types.Int(15), types.Str("x"), types.Str("x")}},
	} {
		if p, err := Rebuild(schema, 0, []RebuildEntry{bad}); err == nil {
			t.Errorf("Rebuild accepted %+v:\n%s", bad, p)
		}
	}
	if _, err := Rebuild(schema, 0, []RebuildEntry{{SID: 1, Kind: KindDel, Del: types.Row{types.Str("x")}}}); !errors.Is(err, types.ErrKey) {
		t.Errorf("a ghost key of the wrong kind: %v, want a types.ErrKey", err)
	}

	tail := [][]RebuildEntry{
		{{SID: 1, Kind: KindDel, Del: types.Row{types.Str("x")}}},
		{{SID: 1, Kind: KindIns, Ins: types.Row{types.Int(15), types.Int(0), types.Str("y")}}},
	}
	for _, fold := range []func(w, p *PDT) (*PDT, error){
		func(w, p *PDT) (*PDT, error) { return w, w.Propagate(p) },
		Fold,
	} {
		w := New(schema, 0)
		var err error
		for _, rec := range tail {
			var p *PDT
			if p, err = Rebuild(schema, 0, rec); err != nil {
				break
			}
			if w, err = fold(w, p); err != nil {
				break
			}
		}
		if err == nil {
			t.Fatalf("replaying an ill-typed ghost key succeeded:\n%s", w)
		}
	}
}
