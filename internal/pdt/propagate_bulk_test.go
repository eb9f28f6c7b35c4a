package pdt

// Directed inputs for the downward-merge differential (fold_test.go's
// checkFold: bulk Fold ≡ Snapshot + per-entry Propagate ≡ FoldSnap, inputs
// untouched): the §2.1 interaction cases one by one, whose merged view must
// also match the row-slice reference model. smallscope_test.go folds every
// small two-layer mix.

import (
	"fmt"
	"testing"

	"pdtstore/internal/types"
)

func TestBulkPropagateEmptyCases(t *testing.T) {
	schema := intSchema()
	stable := buildIntTable(10)

	// Empty w: no-op either way.
	base := New(schema, 4)
	ref := newRefModel(schema, stable)
	applyInsert(t, base, ref, types.Row{types.Int(15), types.Int(1), types.Str("x")})
	checkFold(t, base, New(schema, 4), stable, ref)

	// Empty base: the result is a re-SIDed copy of w.
	w := New(schema, 4)
	wref := newRefModel(schema, stable)
	applyDelete(t, w, wref, 3)
	applyInsert(t, w, wref, types.Row{types.Int(15), types.Int(1), types.Str("x")})
	applyModify(t, w, wref, 0, 1, types.Int(7))
	checkFold(t, New(schema, 4), w, stable, wref)
}

// TestBulkPropagateDirected exercises the §2.1 interaction cases one by one:
// ghost ordering of inserts among deletes, delete-of-insert collapse, delete
// of a modified tuple, modify of an inserted tuple, and same-column modify
// collisions across the two layers.
func TestBulkPropagateDirected(t *testing.T) {
	schema := intSchema()
	stable := buildIntTable(8) // keys 10..80
	row := func(k int64) types.Row {
		return types.Row{types.Int(k), types.Int(k), types.Str(fmt.Sprintf("r%d", k))}
	}

	cases := []struct {
		name string
		base func(t *testing.T, p *PDT, ref *refModel)
		w    func(t *testing.T, p *PDT, ref *refModel)
	}{
		{
			name: "insert-among-ghosts",
			base: func(t *testing.T, p *PDT, ref *refModel) {
				applyDelete(t, p, ref, 2) // ghost key 30
				applyDelete(t, p, ref, 2) // ghost key 40
			},
			w: func(t *testing.T, p *PDT, ref *refModel) {
				// Keys on both sides of the ghosts, at the same position.
				applyInsert(t, p, ref, row(25))
				applyInsert(t, p, ref, row(35))
				applyInsert(t, p, ref, row(45))
			},
		},
		{
			name: "delete-of-insert-collapse",
			base: func(t *testing.T, p *PDT, ref *refModel) {
				applyInsert(t, p, ref, row(25))
				applyInsert(t, p, ref, row(55))
			},
			w: func(t *testing.T, p *PDT, ref *refModel) {
				applyDelete(t, p, ref, 2) // removes base's insert of 25
				applyModify(t, p, ref, 5, 1, types.Int(-1))
			},
		},
		{
			name: "delete-of-modified-tuple",
			base: func(t *testing.T, p *PDT, ref *refModel) {
				applyModify(t, p, ref, 3, 1, types.Int(100))
				applyModify(t, p, ref, 3, 2, types.Str("mm"))
			},
			w: func(t *testing.T, p *PDT, ref *refModel) {
				applyDelete(t, p, ref, 3)
			},
		},
		{
			name: "modify-of-base-insert",
			base: func(t *testing.T, p *PDT, ref *refModel) {
				applyInsert(t, p, ref, row(45))
			},
			w: func(t *testing.T, p *PDT, ref *refModel) {
				applyModify(t, p, ref, 4, 1, types.Int(-9))
				applyModify(t, p, ref, 4, 2, types.Str("patched"))
			},
		},
		{
			name: "modify-collisions",
			base: func(t *testing.T, p *PDT, ref *refModel) {
				applyModify(t, p, ref, 1, 1, types.Int(11))
				applyModify(t, p, ref, 6, 2, types.Str("base"))
			},
			w: func(t *testing.T, p *PDT, ref *refModel) {
				applyModify(t, p, ref, 1, 1, types.Int(22))    // same column: overwrite
				applyModify(t, p, ref, 6, 1, types.Int(66))    // disjoint columns: interleave
				applyModify(t, p, ref, 6, 2, types.Str("top")) // collision after interleave
			},
		},
		{
			name: "reinsert-deleted-key",
			base: func(t *testing.T, p *PDT, ref *refModel) {
				applyDelete(t, p, ref, 4) // ghost key 50
			},
			w: func(t *testing.T, p *PDT, ref *refModel) {
				applyInsert(t, p, ref, row(50))
			},
		},
		{
			name: "edges-front-and-back",
			base: func(t *testing.T, p *PDT, ref *refModel) {
				applyInsert(t, p, ref, row(5))
				applyDelete(t, p, ref, len(ref.rows)-1)
			},
			w: func(t *testing.T, p *PDT, ref *refModel) {
				applyInsert(t, p, ref, row(1))
				applyInsert(t, p, ref, row(90))
				applyDelete(t, p, ref, 0)
			},
		},
	}
	for _, tc := range cases {
		for _, fanout := range []int{3, DefaultFanout} {
			t.Run(fmt.Sprintf("%s/fanout=%d", tc.name, fanout), func(t *testing.T) {
				base := New(schema, fanout)
				ref := newRefModel(schema, stable)
				tc.base(t, base, ref)
				w := New(schema, fanout)
				wref := newRefModel(schema, ref.rows)
				tc.w(t, w, wref)
				checkFold(t, base, w, stable, wref)
			})
		}
	}
}
