package colstore_test

// Segments written before ForInt and the packed dictionary existed still open
// and read. testdata/legacy-ad4cc9b.seg is the file commit ad4cc9b — the last
// whose encoders wrote delta-varint and varint-code dictionary blocks — built
// from legacyRows at 128 rows per block, compressed.

import (
	"fmt"
	"sort"
	"testing"

	"pdtstore/internal/colstore"
	"pdtstore/internal/compress"
	"pdtstore/internal/engine"
	"pdtstore/internal/storage"
	"pdtstore/internal/table"
	"pdtstore/internal/types"
	"pdtstore/internal/vector"
)

// legacySchema sorts on (d, k): an RLE leading key column with delta-varint
// ties under it.
var legacySchema = types.MustSchema([]types.Column{
	{Name: "d", Kind: types.Date},
	{Name: "k", Kind: types.Int64},
	{Name: "q", Kind: types.Int64},
	{Name: "flag", Kind: types.String},
	{Name: "note", Kind: types.String},
	{Name: "f", Kind: types.Float64},
	{Name: "b", Kind: types.Bool},
}, []int{0, 1})

// legacyRows is the file's content: 1000 rows, d in runs of 40, k strictly
// increasing by 10..16, q full-range, two low-cardinality strings.
func legacyRows() []types.Row {
	rows := make([]types.Row, 1000)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range rows {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		rows[i] = types.Row{
			types.DateVal(int64(9000 + i/40)),
			types.Int(int64(10*i + i%7)),
			types.Int(int64(x)),
			types.Str([]string{"A", "N", "R"}[i*7%3]),
			types.Str(fmt.Sprintf("n%d", i%50)),
			types.Float(float64(i) / 4),
			types.BoolVal(i%3 == 0),
		}
	}
	return rows
}

func openLegacy(t *testing.T) *colstore.Store {
	t.Helper()
	seg, err := storage.OpenSegment("testdata/legacy-ad4cc9b.seg")
	if err != nil {
		t.Fatal(err)
	}
	st, err := colstore.FromSegmentChain([]*storage.Segment{seg}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func TestLegacySegmentReads(t *testing.T) {
	st := openLegacy(t)
	rows := legacyRows()
	if st.NRows() != uint64(len(rows)) || st.NumBlocks() != 8 {
		t.Fatalf("%d rows in %d blocks, want %d in 8", st.NRows(), st.NumBlocks(), len(rows))
	}
	seen := map[compress.Scheme]bool{}
	for c := range legacySchema.Cols {
		for b := 0; b < st.NumBlocks(); b++ {
			enc, err := st.EncodedBlock(c, b)
			if err != nil {
				t.Fatal(err)
			}
			seen[compress.BlockScheme(enc)] = true
		}
	}
	for _, s := range []compress.Scheme{compress.DeltaVarint, compress.RLEInt, compress.DictString, compress.PlainInt} {
		if !seen[s] {
			t.Errorf("the file holds no scheme %d block", s)
		}
	}
	if seen[compress.ForInt] || seen[compress.PackedDict] {
		t.Error("the file holds blocks of a scheme its commit could not write")
	}

	cols := make([]int, len(legacySchema.Cols))
	kinds := make([]types.Kind, len(cols))
	for i, c := range legacySchema.Cols {
		cols[i], kinds[i] = i, c.Kind
	}
	// Whole-table and mid-block windows, in odd batch sizes.
	for _, w := range [][2]int{{0, len(rows)}, {5, 300}, {127, 129}, {640, 1000}, {999, 1000}} {
		out := vector.NewBatch(kinds, 64)
		sc := st.NewScanner(cols, uint64(w[0]), uint64(w[1]))
		for {
			n, err := sc.Next(out, 37)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				break
			}
		}
		if out.Len() != w[1]-w[0] {
			t.Fatalf("scan [%d, %d): %d rows", w[0], w[1], out.Len())
		}
		for i := 0; i < out.Len(); i++ {
			if got, want := out.Row(i), rows[w[0]+i]; types.CompareRows(got, want) != 0 {
				t.Fatalf("scan [%d, %d) row %d = %v, want %v", w[0], w[1], w[0]+i, got, want)
			}
		}
	}

	// A filtered plan over the clean image selects in the scanner: the first
	// filter decodes its delta-varint window, the later ones are gathered from
	// varint-code dictionary and bool blocks, and delta, dictionary, RLE and
	// float columns are gathered at the survivors.
	tbl, err := table.FromStore(st, table.Options{Mode: table.ModePDT})
	if err != nil {
		t.Fatal(err)
	}
	got, err := engine.Scan(tbl, 1, 4, 0, 5).
		FilterInt64Range(1, 500, 8000).FilterStrIn(3, "A", "R").FilterInt64Eq(6, 1).
		Parallel(1).BatchSize(100).Collect()
	if err != nil {
		t.Fatal(err)
	}
	var want []types.Row
	for _, r := range rows {
		if r[1].I >= 500 && r[1].I <= 8000 && r[3].S != "N" && r[6].I == 1 {
			want = append(want, types.Row{r[1], r[4], r[0], r[5]})
		}
	}
	if got.Len() != len(want) || len(want) == 0 {
		t.Fatalf("filtered plan: %d rows, want %d (none is vacuous)", got.Len(), len(want))
	}
	for i, w := range want {
		if g := got.Row(i); types.CompareRows(g, w) != 0 {
			t.Fatalf("filtered plan row %d = %v, want %v", i, g, w)
		}
	}

	// LowerBound on full and prefix keys, present and in gaps; Seek on the
	// full ones, projecting every column.
	lowerBound := func(key types.Row) int {
		return sort.Search(len(rows), func(i int) bool {
			return types.CompareRows(types.Row{rows[i][0], rows[i][1]}[:len(key)], key) >= 0
		})
	}
	var probes []types.Row
	for _, r := range rows {
		probes = append(probes, types.Row{r[0], r[1]}, types.Row{r[0], types.Int(r[1].I - 1)}, types.Row{r[0]}, types.Row{types.DateVal(r[0].I + 1)})
	}
	probes = append(probes, types.Row{types.DateVal(0), types.Int(0)}, types.Row{types.DateVal(1 << 40), types.Int(0)})
	for _, key := range probes {
		want := lowerBound(key)
		if got, err := st.LowerBound(key); err != nil || got != uint64(want) {
			t.Fatalf("LowerBound(%v) = %d, %v; want %d", key, got, err, want)
		}
		if len(key) != 2 {
			continue
		}
		rid, row, exact, err := engine.Seek(st, key, cols)
		wantExact := want < len(rows) && types.CompareRows(types.Row{rows[want][0], rows[want][1]}, key) == 0
		if err != nil || rid != uint64(want) || exact != wantExact {
			t.Fatalf("Seek(%v) = %d, exact %v, %v; want %d, exact %v", key, rid, exact, err, want, wantExact)
		}
		if exact && types.CompareRows(row, rows[want]) != 0 {
			t.Fatalf("Seek(%v) row %v, want %v", key, row, rows[want])
		}
	}
}
