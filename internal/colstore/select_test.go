package colstore

import (
	"math"
	"testing"

	"pdtstore/internal/types"
	"pdtstore/internal/vector"
)

// q6Schema is lineitem's Q6 columns under a row-id key.
var q6Schema = types.MustSchema([]types.Column{
	{Name: "id", Kind: types.Int64},
	{Name: "shipdate", Kind: types.Date},
	{Name: "discount", Kind: types.Float64},
	{Name: "quantity", Kind: types.Float64},
	{Name: "extendedprice", Kind: types.Float64},
}, []int{0})

// TestSelectGathersOnlySurvivors is Q6 on a clean image, read through the
// scanner's own counters: the shipdate range selects on the encoded blocks
// and shipdate, read by no one else, is never decoded; discount is gathered
// at the rows the shipdate range keeps, quantity at those discount keeps too,
// and extendedprice only at the rows that survive all three — which is also
// where every projected value must be right.
func TestSelectGathersOnlySurvivors(t *testing.T) {
	const n = 20000
	b := NewBuilder(q6Schema, nil, 1024, true)
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{
			types.Int(int64(i)),
			types.DateVal(int64(8766 + i*7919%2557)),
			types.Float(float64(i*37%11) / 100),
			types.Float(float64(1 + i*13%50)),
			types.Float(float64(i) * 1.5),
		}
		if err := b.Add(rows[i]); err != nil {
			t.Fatal(err)
		}
	}
	store, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := int64(9131), int64(9495) // 1995-01-01 .. 1995-12-31
	var wantDate, wantDisc, wantAll int
	for _, r := range rows {
		if r[1].I < lo || r[1].I > hi {
			continue
		}
		wantDate++
		if r[2].F < 0.05 || r[2].F > 0.07 {
			continue
		}
		wantDisc++
		if r[3].F < 24 {
			wantAll++
		}
	}

	// Slots: extendedprice and discount projected, shipdate and quantity
	// read by the filters alone.
	cols := []int{4, 2, 1, 3}
	chain := &vector.Chain{Outputs: 2, Filters: []vector.Filter{
		{Slot: 2, Pred: vector.Pred{Op: vector.PredInt64Range, ILo: lo, IHi: hi}},
		{Slot: 1, Pred: vector.Pred{Op: vector.PredFloat64Range, FLo: 0.05, FHi: 0.07}},
		{Slot: 3, Pred: vector.Pred{Op: vector.PredFloat64Lt, FLo: math.Inf(-1), FHi: 24}},
	}}
	sc := store.NewScanner(cols, 0, n)
	out := vector.NewBatch([]types.Kind{types.Float64, types.Float64, types.Date, types.Float64}, 1024)
	sel := vector.NewSelection(1024)
	rowAt, got := 0, 0
	for {
		out.Reset()
		m, err := sc.Select(out, 1000, chain, sel)
		if err != nil {
			t.Fatal(err)
		}
		if m == 0 {
			break
		}
		for _, v := range out.Vecs {
			if v.Len() != m {
				t.Fatalf("a %d-row batch holds a %d-value vector", m, v.Len())
			}
		}
		for _, i := range sel.Indexes() {
			r := rows[rowAt+int(i)]
			if out.Vecs[0].F[i] != r[4].F || out.Vecs[1].F[i] != r[2].F {
				t.Fatalf("row %d: projected (%v, %v), want (%v, %v)", rowAt+int(i), out.Vecs[0].F[i], out.Vecs[1].F[i], r[4].F, r[2].F)
			}
		}
		got += sel.Len()
		rowAt += m
	}
	if rowAt != n || got != wantAll || wantAll == 0 {
		t.Fatalf("scanned %d rows, selected %d; want %d and %d (of which none is vacuous)", rowAt, got, n, wantAll)
	}
	gathered := sc.sel.gathered
	for slot, want := range []int{wantAll, wantDate, 0, wantDisc} {
		if gathered[slot] != uint64(want) {
			t.Errorf("column %s: %d values gathered, want %d", q6Schema.Cols[cols[slot]].Name, gathered[slot], want)
		}
	}
}
