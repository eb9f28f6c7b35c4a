package colstore

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"pdtstore/internal/pdt"
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
	src := pdt.Numbered(sc, 0).(pdt.Selector)
	out := vector.NewBatch([]types.Kind{types.Float64, types.Float64, types.Date, types.Float64}, 1024)
	sel := vector.NewSelection(1024)
	rowAt, got := 0, 0
	for {
		out.Reset()
		m, err := src.Select(out, 1000, chain, sel)
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

// runsSchema is a table with room between its keys and a column of each kind
// a filter reads.
var runsSchema = types.MustSchema([]types.Column{
	{Name: "id", Kind: types.Int64},
	{Name: "day", Kind: types.Date},
	{Name: "price", Kind: types.Float64},
	{Name: "mode", Kind: types.String},
	{Name: "flag", Kind: types.Bool},
}, []int{0})

func runsRow(i int) types.Row {
	return types.Row{
		types.Int(int64(2 * i)),
		types.DateVal(int64(i * 7919 % 365)),
		types.Float(float64(i*37%50) / 2),
		types.Str([]string{"AIR", "MAIL", "SHIP", "RAIL", "TRUCK"}[i*13%5]),
		types.BoolVal(i%3 == 0),
	}
}

// TestSelectRunsMatchesRows holds the scanner's side of a merge to the rows
// it stores: random runs — gaps between them, runs that cross block
// boundaries, empty ones — at random batch positions, with kept positions in
// and between them, under random chains, the empty one (a read without a
// filter) included. sel must hold every kept position and exactly the other
// run rows that pass, the outputs must be the rows' values there, and a kept
// run row must be written in every slot.
func TestSelectRunsMatchesRows(t *testing.T) {
	const n = 3000
	b := NewBuilder(runsSchema, nil, 128, true)
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = runsRow(i)
		if err := b.Add(rows[i]); err != nil {
			t.Fatal(err)
		}
	}
	store, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	preds := []vector.Pred{
		{Col: 1, Op: vector.PredInt64Range, ILo: 30, IHi: 300},
		{Col: 2, Op: vector.PredFloat64Range, FLo: 3, FHi: 20},
		{Col: 3, Op: vector.PredStrIn, Strs: []string{"AIR", "RAIL"}},
		{Col: 4, Op: vector.PredInt64Range, ILo: 1, IHi: 1},
		{Col: 2, Op: vector.PredFloat64Lt, FHi: 24.5},
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		// Slots: a projection of one to three columns, then the columns only
		// the filters read.
		cols := rng.Perm(5)[:1+rng.Intn(3)]
		chain := &vector.Chain{Outputs: len(cols)}
		for _, pi := range rng.Perm(len(preds))[:rng.Intn(4)] {
			p := preds[pi]
			slot := slices.Index(cols, p.Col)
			if slot < 0 {
				slot = len(cols)
				cols = append(cols, p.Col)
			}
			chain.Filters = append(chain.Filters, vector.Filter{Slot: slot, Pred: p})
		}
		kinds := make([]types.Kind, len(cols))
		for i, c := range cols {
			kinds[i] = runsSchema.Cols[c].Kind
		}
		lo := rng.Intn(n / 2)
		sc := store.NewScanner(cols, uint64(lo), n)
		out, sel := vector.NewBatch(kinds, 64), vector.NewSelection(64)
		for sid := lo; sid < n; {
			var runs []vector.Run
			var keep []uint32
			at, srcOf := 0, map[int]int{} // batch position -> stored row
			for len(runs) < 1+rng.Intn(6) && sid < n {
				r := vector.Run{Skip: min(rng.Intn(4), n-sid)}
				r.N = min(rng.Intn(300), n-sid-r.Skip)
				at = gap(rng, at, &keep)
				r.At = at
				for i := 0; i < r.N; i++ {
					srcOf[at+i] = sid + r.Skip + i
					if rng.Intn(9) == 0 {
						keep = append(keep, uint32(at+i))
					}
				}
				runs = append(runs, r)
				sid += r.Skip + r.N
				at += r.N
			}
			at = gap(rng, at, &keep)
			slices.Sort(keep)
			out.Reset()
			out.Extend(at)
			if err := sc.SelectRuns(out, runs, keep, chain, sel); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			var want []uint32
			for p := 0; p < at; p++ {
				r, inRun := srcOf[p]
				kept := slices.Contains(keep, uint32(p))
				if kept && inRun {
					for slot, c := range cols {
						if types.Compare(out.Vecs[slot].Get(p), rows[r][c]) != 0 {
							t.Fatalf("trial %d: kept row %d, slot %d = %v, want %v", trial, r, slot, out.Vecs[slot].Get(p), rows[r][c])
						}
					}
				}
				if kept || inRun && passes(rows[r], cols, chain) {
					want = append(want, uint32(p))
				}
			}
			if !slices.Equal(sel.Indexes(), want) {
				t.Fatalf("trial %d: runs %v keep %v chain %+v: sel %v, want %v", trial, runs, keep, chain.Filters, sel.Indexes(), want)
			}
			for _, p := range want {
				if r, ok := srcOf[int(p)]; ok {
					for slot := 0; slot < chain.Outputs; slot++ {
						if types.Compare(out.Vecs[slot].Get(int(p)), rows[r][cols[slot]]) != 0 {
							t.Fatalf("trial %d: row %d, output %d = %v, want %v", trial, r, slot, out.Vecs[slot].Get(int(p)), rows[r][cols[slot]])
						}
					}
				}
			}
		}
	}
}

// gap leaves up to two positions from at to rows the caller writes itself,
// keeping some of them, and returns where the next run may start.
func gap(rng *rand.Rand, at int, keep *[]uint32) int {
	for end := at + rng.Intn(3); at < end; at++ {
		if rng.Intn(2) == 0 {
			*keep = append(*keep, uint32(at))
		}
	}
	return at
}

// passes evaluates chain on one stored row, one value at a time.
func passes(row types.Row, cols []int, chain *vector.Chain) bool {
	for _, f := range chain.Filters {
		v := vector.New(runsSchema.Cols[cols[f.Slot]].Kind, 1)
		v.Append(row[cols[f.Slot]])
		sel := vector.NewSelection(1)
		sel.All(1)
		sel.Filter(v, f.Pred)
		if sel.Len() == 0 {
			return false
		}
	}
	return true
}

// TestSelectUnderLiveStack is TestSelectGathersOnlySurvivors under a live
// Read+Write stack: Q6 through two PDT merges. Their runs select on the
// encoded blocks, so the scanner never decodes a window, and extendedprice is
// gathered exactly at the stable rows that pass untouched plus the rows a
// layer patches, which it writes whole. What comes out is what Next followed
// by the chain gives.
func TestSelectUnderLiveStack(t *testing.T) {
	const n = 20000
	b := NewBuilder(q6Schema, nil, 1024, true)
	stable := make([]types.Row, n)
	for i := range stable {
		stable[i] = types.Row{
			types.Int(int64(2 * i)),
			types.DateVal(int64(8766 + i*7919%2557)),
			types.Float(float64(i*37%11) / 100),
			types.Float(float64(1 + i*13%50)),
			types.Float(float64(i) * 1.5),
		}
		if err := b.Add(stable[i]); err != nil {
			t.Fatal(err)
		}
	}
	store, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	// image lists the visible rows by the stable row each came from (-1: an
	// insert), so the layers can address them by RID.
	image := make([]int, n)
	for i := range image {
		image[i] = i
	}
	ridOf := func(sid int) uint64 { return uint64(slices.Index(image, sid)) }
	read, write := pdt.New(q6Schema, 0), pdt.New(q6Schema, 0)
	touched := map[int]bool{}    // stable rows a layer patches
	gone := map[int]bool{}       // stable rows a layer deletes
	for i := 5; i < n; i += 97 { // discount into and out of [0.05, 0.07]
		if err := read.Modify(ridOf(i), 2, types.Float([]float64{0.02, 0.06}[i%2])); err != nil {
			t.Fatal(err)
		}
		touched[i] = true
	}
	for i := 11; i < n; i += 89 {
		if err := read.Delete(ridOf(i), types.Row{stable[i][0]}); err != nil {
			t.Fatal(err)
		}
		image = slices.Delete(image, int(ridOf(i)), int(ridOf(i))+1)
		gone[i] = true
	}
	for i := 17; i < n; i += 101 { // odd keys: between two stable rows
		row := slices.Clone(stable[i])
		row[0] = types.Int(int64(2*i + 1))
		at := ridOf(i) + 1
		if err := read.Insert(at, row); err != nil {
			t.Fatal(err)
		}
		image = slices.Insert(image, int(at), -1)
	}
	for i := 23; i < n; i += 53 { // quantity across 24, over the read layer
		if gone[i] {
			continue
		}
		if err := write.Modify(ridOf(i), 3, types.Float(float64(10+i%30))); err != nil {
			t.Fatal(err)
		}
		touched[i] = true
	}
	for i := 29; i < n; i += 71 {
		if gone[i] || touched[i] {
			continue
		}
		if err := write.Delete(ridOf(i), types.Row{stable[i][0]}); err != nil {
			t.Fatal(err)
		}
		image = slices.Delete(image, int(ridOf(i)), int(ridOf(i))+1)
		gone[i] = true
	}

	cols := []int{4, 2, 1, 3}
	kinds := []types.Kind{types.Float64, types.Float64, types.Date, types.Float64}
	lo, hi := int64(9131), int64(9495)
	chain := &vector.Chain{Outputs: 2, Filters: []vector.Filter{
		{Slot: 2, Pred: vector.Pred{Op: vector.PredInt64Range, ILo: lo, IHi: hi}},
		{Slot: 1, Pred: vector.Pred{Op: vector.PredFloat64Range, FLo: 0.05, FHi: 0.07}},
		{Slot: 3, Pred: vector.Pred{Op: vector.PredFloat64Lt, FLo: math.Inf(-1), FHi: 24}},
	}}
	stack := func(sc *Scanner) pdt.BatchSource {
		r := pdt.NewMergeScan(read, sc, cols, 0, true)
		w := pdt.NewMergeScan(write, r, cols, r.StartRID(), true)
		return pdt.Numbered(w, w.StartRID())
	}
	render := func(b *vector.Batch, sel []uint32) (lines []string) {
		for _, i := range sel {
			lines = append(lines, fmt.Sprintf("@%d:%v|%v", b.Rids[i], b.Vecs[0].F[i], b.Vecs[1].F[i]))
		}
		return lines
	}

	all, err := pdt.ScanAll(stack(store.NewScanner(cols, 0, n)), kinds)
	if err != nil {
		t.Fatal(err)
	}
	ref := vector.NewSelection(all.Len())
	ref.All(all.Len())
	chain.Apply(all, ref)
	want := render(all, ref.Indexes())

	sc := store.NewScanner(cols, 0, n)
	src, ok := stack(sc).(pdt.Selector)
	if !ok {
		t.Fatal("a Read+Write stack over the scanner does not select")
	}
	out, sel := vector.NewBatch(kinds, 1024), vector.NewSelection(1024)
	var got []string
	for {
		out.Reset()
		m, err := src.Select(out, 1024, chain, sel)
		if err != nil {
			t.Fatal(err)
		}
		if m == 0 {
			break
		}
		got = append(got, render(out, sel.Indexes())...)
	}
	if !slices.Equal(got, want) || len(want) == 0 {
		t.Fatalf("Select kept %d rows, Next then the chain %d", len(got), len(want))
	}
	if sc.winHi != 0 || slices.ContainsFunc(sc.bufs, func(v *vector.Vector) bool { return v != nil }) {
		t.Error("the scanner decoded a window")
	}
	survivors := len(touched)
	for i, r := range stable {
		if !gone[i] && !touched[i] && r[1].I >= lo && r[1].I <= hi && r[2].F >= 0.05 && r[2].F <= 0.07 && r[3].F < 24 {
			survivors++
		}
	}
	for i := range touched {
		if gone[i] {
			survivors--
		}
	}
	if g := sc.sel.gathered[0]; g != uint64(survivors) {
		t.Errorf("extendedprice gathered at %d rows, want %d: the untouched survivors and the patched rows", g, survivors)
	}
}

// fuzzRuns is the store FuzzSelectRuns reads: runsRow's rows in blocks of
// 128, built once.
var fuzzRuns = sync.OnceValues(func() ([]types.Row, *Store) {
	const n = 3000
	b := NewBuilder(runsSchema, nil, 128, true)
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = runsRow(i)
		if err := b.Add(rows[i]); err != nil {
			panic(err)
		}
	}
	store, err := b.Finish()
	if err != nil {
		panic(err)
	}
	return rows, store
})

// fuzzPreds are the filters FuzzSelectRuns draws from:
// TestSelectRunsMatchesRows' and one that keeps no row.
var fuzzPreds = []vector.Pred{
	{Col: 1, Op: vector.PredInt64Range, ILo: 30, IHi: 300},
	{Col: 2, Op: vector.PredFloat64Range, FLo: 3, FHi: 20},
	{Col: 3, Op: vector.PredStrIn, Strs: []string{"AIR", "RAIL"}},
	{Col: 4, Op: vector.PredInt64Range, ILo: 1, IHi: 1},
	{Col: 2, Op: vector.PredFloat64Lt, FHi: 24.5},
	{Col: 1, Op: vector.PredInt64Range, ILo: 400, IHi: 500},
}

// FuzzSelectRuns drives Scanner.SelectRuns with runs, skips, kept positions
// and a filter chain decoded from bytes, and holds every call to the rows
// the store holds, as TestSelectRunsMatchesRows does. head picks the scan's
// first row (2*head), the projected columns (bits of proj) and the chain
// (each byte of chain a filter); script is read four bytes per run: the
// positions before it the caller writes itself (the low two bits of the
// first byte, kept by the bits above), its skip (0-3), its length (0-255),
// and which of its rows are kept (bit 0 the first, bit 1 the last, the
// rest a stride). A call takes 1 + calls%6 runs.
func FuzzSelectRuns(f *testing.F) {
	// Merge-shaped: 1-60-row pieces between one-row skips and inserts, a
	// modify here and there.
	f.Add(uint8(0), uint8(0b00111), []byte{0, 2, 1}, uint8(5), []byte{
		0b101, 1, 40, 0, 1, 1, 1, 0, 0b1101, 1, 60, 1, 0, 0, 17, 2,
		2, 1, 33, 0, 1, 1, 55, 16, 0, 0, 9, 0, 3, 1, 48, 3})
	// Kept rows on a piece's first and last row, runs of one row.
	f.Add(uint8(3), uint8(0b11000), []byte{1, 3}, uint8(2), []byte{
		0, 1, 50, 3, 0, 0, 1, 1, 0, 1, 1, 2, 0, 2, 45, 3, 1, 0, 20, 1})
	// Runs across block boundaries.
	f.Add(uint8(60), uint8(0b00110), []byte{0, 4}, uint8(0), []byte{
		0, 0, 200, 0, 0, 3, 255, 8, 0, 0, 255, 0})
	// A multi-piece block whose first filter keeps ≥ 3/4 of the rows: every
	// later column is decoded whole over the pieces.
	f.Add(uint8(0), uint8(0b01111), []byte{4, 3}, uint8(5), []byte{
		1, 1, 30, 0, 0, 1, 25, 4, 2, 1, 40, 1, 0, 1, 20, 0, 0, 2, 50, 2})
	// A multi-piece block whose first filter keeps none: only the kept rows
	// are read.
	f.Add(uint8(0), uint8(0b10101), []byte{5, 1}, uint8(4), []byte{
		0b111, 1, 30, 3, 0, 1, 25, 4, 2, 1, 40, 1, 0, 1, 20, 0})
	f.Add(uint8(0), uint8(0), []byte{}, uint8(0), []byte{0, 0, 255, 0})
	f.Fuzz(func(t *testing.T, head, proj uint8, chainBytes []byte, calls uint8, script []byte) {
		rows, store := fuzzRuns()
		n := len(rows)
		var cols []int
		for c := range runsSchema.Cols {
			if proj&(1<<c) != 0 {
				cols = append(cols, c)
			}
		}
		if len(cols) == 0 {
			cols = []int{0}
		}
		chain := &vector.Chain{Outputs: len(cols)}
		for _, b := range chainBytes[:min(len(chainBytes), 4)] {
			p := fuzzPreds[int(b)%len(fuzzPreds)]
			slot := slices.Index(cols, p.Col)
			if slot < 0 {
				slot = len(cols)
				cols = append(cols, p.Col)
			}
			chain.Filters = append(chain.Filters, vector.Filter{Slot: slot, Pred: p})
		}
		kinds := make([]types.Kind, len(cols))
		for i, c := range cols {
			kinds[i] = runsSchema.Cols[c].Kind
		}
		sid := min(2*int(head), n)
		sc := store.NewScanner(cols, uint64(sid), uint64(n))
		out, sel := vector.NewBatch(kinds, 64), vector.NewSelection(64)
		next := func() byte {
			if len(script) == 0 {
				return 0
			}
			b := script[0]
			script = script[1:]
			return b
		}
		for len(script) > 0 && sid < n {
			var runs []vector.Run
			var keep []uint32
			at, srcOf := 0, map[int]int{}
			for len(runs) < 1+int(calls)%6 && len(script) > 0 && sid < n {
				g, skip, rn, kb := next(), int(next()%4), int(next()), next()
				for i := 0; i < int(g&3); i++ {
					if g>>(2+i)&1 != 0 {
						keep = append(keep, uint32(at))
					}
					at++
				}
				r := vector.Run{Skip: min(skip, n-sid), At: at}
				r.N = min(rn, n-sid-r.Skip)
				for i := 0; i < r.N; i++ {
					srcOf[at+i] = sid + r.Skip + i
					stride := int(kb >> 2)
					if i == 0 && kb&1 != 0 || i == r.N-1 && kb&2 != 0 || stride > 0 && i%(stride+1) == stride {
						keep = append(keep, uint32(at+i))
					}
				}
				runs = append(runs, r)
				sid += r.Skip + r.N
				at += r.N
			}
			slices.Sort(keep)
			keep = slices.Compact(keep)
			out.Reset()
			out.Extend(at)
			if err := sc.SelectRuns(out, runs, keep, chain, sel); err != nil {
				t.Fatalf("runs %v keep %v: %v", runs, keep, err)
			}
			checkRunsCall(t, rows, cols, chain, out, srcOf, keep, at, sel.Indexes())
		}
	})
}

// checkRunsCall holds one SelectRuns call over at batch positions to the
// rows: srcOf maps the positions its runs placed to their stored rows. sel
// must hold every kept position and exactly the other run rows that pass
// the chain, a kept run row must be written in every slot, and the outputs
// must be the rows' values at sel.
func checkRunsCall(t *testing.T, rows []types.Row, cols []int, chain *vector.Chain, out *vector.Batch, srcOf map[int]int, keep []uint32, at int, sel []uint32) {
	t.Helper()
	var want []uint32
	for p := 0; p < at; p++ {
		r, inRun := srcOf[p]
		kept := slices.Contains(keep, uint32(p))
		if kept || inRun && passes(rows[r], cols, chain) {
			want = append(want, uint32(p))
		}
		if !inRun || !kept && !slices.Contains(want, uint32(p)) {
			continue
		}
		slots := chain.Outputs
		if kept {
			slots = len(cols)
		}
		for slot := 0; slot < slots; slot++ {
			if types.Compare(out.Vecs[slot].Get(p), rows[r][cols[slot]]) != 0 {
				t.Fatalf("row %d at %d (kept %v), slot %d = %v, want %v", r, p, kept, slot, out.Vecs[slot].Get(p), rows[r][cols[slot]])
			}
		}
	}
	if !slices.Equal(sel, want) {
		t.Fatalf("keep %v chain %+v: sel %v, want %v", keep, chain.Filters, sel, want)
	}
}
