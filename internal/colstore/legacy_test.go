package colstore_test

// Segments written before ForInt and the packed dictionary existed still open
// and read. testdata/legacy-ad4cc9b.seg is the file commit ad4cc9b — the last
// whose encoders wrote delta-varint and varint-code dictionary blocks — built
// from legacyRows at 128 rows per block, compressed. Its blocks of those
// retired schemes are upgraded where they are read (compress.Upgrade), so no
// reader above the store sees one, and checkpoints over it write none.

import (
	"errors"
	"fmt"
	"path/filepath"
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

// allCols lists every column of the legacy schema, and their kinds.
func allCols() ([]int, []types.Kind) {
	cols := make([]int, len(legacySchema.Cols))
	kinds := make([]types.Kind, len(cols))
	for i, c := range legacySchema.Cols {
		cols[i], kinds[i] = i, c.Kind
	}
	return cols, kinds
}

// scanAll reads rows [from, to) of every column of st in batches of 37.
func scanAll(t *testing.T, st *colstore.Store, from, to int) *vector.Batch {
	t.Helper()
	cols, kinds := allCols()
	out := vector.NewBatch(kinds, 64)
	sc := st.NewScanner(cols, uint64(from), uint64(to))
	for {
		n, err := sc.Next(out, 37)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			return out
		}
	}
}

func TestLegacySegmentReads(t *testing.T) {
	st := openLegacy(t)
	rows := legacyRows()
	if st.NRows() != uint64(len(rows)) || st.NumBlocks() != 8 {
		t.Fatalf("%d rows in %d blocks, want %d in 8", st.NRows(), st.NumBlocks(), len(rows))
	}
	// The file holds the retired schemes; the store hands out none of them.
	seg := st.Segment()
	raw, read := map[compress.Scheme]bool{}, map[compress.Scheme]bool{}
	segBytes := uint64(0)
	for c := range legacySchema.Cols {
		for b := 0; b < st.NumBlocks(); b++ {
			buf, err := seg.ReadBlock(c, b)
			if err != nil {
				t.Fatal(err)
			}
			raw[compress.BlockScheme(buf)] = true
			segBytes += uint64(seg.BlockLen(c, b))
			enc, err := st.EncodedBlock(c, b)
			if err != nil {
				t.Fatal(err)
			}
			read[compress.BlockScheme(enc)] = true
		}
	}
	for _, s := range []compress.Scheme{compress.DeltaVarint, compress.RLEInt, compress.DictString, compress.PlainInt} {
		if !raw[s] {
			t.Errorf("the file holds no scheme %d block", s)
		}
	}
	if raw[compress.ForInt] || raw[compress.PackedDict] {
		t.Error("the file holds blocks of a scheme its commit could not write")
	}
	if read[compress.DeltaVarint] || read[compress.DictString] {
		t.Errorf("the store hands out blocks of a retired scheme: %v", read)
	}
	// A cold scan still charges the bytes the segment holds, not the
	// upgraded blocks' size.
	dev := st.Device()
	dev.DropCaches()
	dev.ResetStats()
	scanAll(t, st, 0, len(rows))
	if got, _ := dev.Stats(); got != segBytes {
		t.Errorf("a cold scan charged %d bytes, the segment's blocks hold %d", got, segBytes)
	}
	checkLegacyReads(t, st, rows)

	// An incremental checkpoint over it rewrites one inherited block and the
	// last one, and inherits the rest, still in their retired schemes.
	const shiftBlk = 7
	inc, err := colstore.NewCheckpointBuilder(st, shiftBlk, 0, true, filepath.Join(t.TempDir(), "inc.seg"))
	if err != nil {
		t.Fatal(err)
	}
	block := scanAll(t, st, 3*128, 4*128)
	if err := inc.WriteBlock(4, 3, block.Vecs[4]); err != nil {
		t.Fatal(err)
	}
	if err := inc.AddBatch(scanAll(t, st, shiftBlk*128, len(rows))); err != nil {
		t.Fatal(err)
	}
	incSt, err := inc.Finish()
	if err != nil {
		t.Fatal(err)
	}
	defer incSt.Close()
	if segs := incSt.Segments(); len(segs) != 2 || segs[0] != seg {
		t.Fatalf("the incremental image is a chain of %d segments, want the legacy file and its own", len(segs))
	}
	t.Run("incremental", func(t *testing.T) { checkLegacyReads(t, incSt, rows) })

	// A full checkpoint writes every block again, none in a retired scheme.
	full, err := colstore.NewCheckpointBuilder(st, 0, 128, true, filepath.Join(t.TempDir(), "full.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if err := full.AddBatch(scanAll(t, st, 0, len(rows))); err != nil {
		t.Fatal(err)
	}
	fullSt, err := full.Finish()
	if err != nil {
		t.Fatal(err)
	}
	defer fullSt.Close()
	fseg := fullSt.Segment()
	if len(fullSt.Segments()) != 1 {
		t.Fatalf("the full image is a chain of %d segments", len(fullSt.Segments()))
	}
	for c := range legacySchema.Cols {
		for b := 0; b < fullSt.NumBlocks(); b++ {
			buf, err := fseg.ReadBlock(c, b)
			if err != nil {
				t.Fatal(err)
			}
			if s := compress.BlockScheme(buf); s == compress.DeltaVarint || s == compress.DictString {
				t.Errorf("the full checkpoint wrote column %d block %d in scheme %d", c, b, s)
			}
		}
	}
	t.Run("full", func(t *testing.T) { checkLegacyReads(t, fullSt, rows) })
}

// checkLegacyReads holds scans, a filtered plan, LowerBound and Seek over st
// to rows.
func checkLegacyReads(t *testing.T, st *colstore.Store, rows []types.Row) {
	t.Helper()
	cols, _ := allCols()
	// Whole-table and mid-block windows, in odd batch sizes.
	for _, w := range [][2]int{{0, len(rows)}, {5, 300}, {127, 129}, {640, 1000}, {999, 1000}} {
		out := scanAll(t, st, w[0], w[1])
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
	// filter on the key column, the later ones gathered from string and bool
	// blocks, and the outputs gathered at the survivors.
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
	probe := st.NewProbe(st.Schema().SortKey)
	defer probe.Release()
	for _, key := range probes {
		want := lowerBound(key)
		if got, err := probe.LowerBound(key); err != nil || got != uint64(want) {
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

// TestLegacyPointReadsWhole: the legacy file's footer has no page section,
// so each of its blocks is one whole unit of a point read's plan, under the
// pool rule of a paged block. The first cold point read of a row reads every
// column's block of its block index whole, in one coalesced pread, and pools
// nothing; the second reads them so again and pools them all; the third is a
// pool hit.
func TestLegacyPointReadsWhole(t *testing.T) {
	st := openLegacy(t)
	seg, dev := st.Segment(), st.Device()
	cols, kinds := allCols()
	read := func(sid int) (uint64, uint64) {
		t.Helper()
		dev.ResetStats()
		out := vector.NewBatch(kinds, 1)
		if n, err := st.NewScanner(cols, uint64(sid), uint64(sid+1)).Next(out, 1); err != nil || n != 1 {
			t.Fatalf("point read of row %d: %d rows, %v", sid, n, err)
		}
		if got, want := out.Row(0), legacyRows()[sid]; types.CompareRows(got, want) != 0 {
			t.Fatalf("row %d = %v, want %v", sid, got, want)
		}
		return dev.Stats()
	}
	for _, sid := range []int{0, 300, 999} {
		dev.DropCaches()
		want := uint64(0)
		for c := range cols {
			if seg.Pages(c, sid/128) != 0 {
				t.Fatalf("column %d block %d reports pages", c, sid/128)
			}
			want += uint64(seg.BlockLen(c, sid/128))
		}
		if bytes, reads := read(sid); bytes != want || reads != 1 || dev.PoolBlocks() != 0 {
			t.Fatalf("first read of row %d: %d bytes in %d reads, %d pooled; want the %d whole blocks' %d bytes in 1, none pooled", sid, bytes, reads, dev.PoolBlocks(), len(cols), want)
		}
		if bytes, reads := read(sid); bytes != want || reads != 1 || dev.PoolBlocks() != len(cols) {
			t.Fatalf("second read of row %d: %d bytes in %d reads, %d pooled; want the %d whole blocks' %d bytes in 1, all pooled", sid, bytes, reads, dev.PoolBlocks(), len(cols), want)
		}
		if bytes, reads := read(sid); bytes != 0 || reads != 0 {
			t.Fatalf("third read of row %d: %d bytes in %d reads, want a pool hit", sid, bytes, reads)
		}
	}
}

// TestLegacyCheckpointWritesScaledFloats: the legacy file's float column,
// quarters, is PlainFloat throughout — its commit wrote no other float
// scheme. A checkpoint over it writes that column's blocks as ScaledFloat: an
// incremental one the block it rewrites and the tail, beside inherited plain
// blocks, and a full one every block. Every row of both reads back equal.
func TestLegacyCheckpointWritesScaledFloats(t *testing.T) {
	const fcol = 5
	st := openLegacy(t)
	rows := legacyRows()
	schemes := func(st *colstore.Store) []compress.Scheme {
		seg := st.Segments()[len(st.Segments())-1]
		var out []compress.Scheme
		for b := 0; b < st.NumBlocks(); b++ {
			if buf, err := seg.ReadBlock(fcol, b); err == nil {
				out = append(out, compress.BlockScheme(buf))
			}
		}
		return out
	}
	for b, s := range schemes(st) {
		if s != compress.PlainFloat {
			t.Fatalf("legacy float block %d has scheme %d", b, s)
		}
	}

	inc, err := colstore.NewCheckpointBuilder(st, 7, 0, true, filepath.Join(t.TempDir(), "inc.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.WriteBlock(fcol, 3, scanAll(t, st, 3*128, 4*128).Vecs[fcol]); err != nil {
		t.Fatal(err)
	}
	if err := inc.AddBatch(scanAll(t, st, 7*128, len(rows))); err != nil {
		t.Fatal(err)
	}
	incSt, err := inc.Finish()
	if err != nil {
		t.Fatal(err)
	}
	defer incSt.Close()
	for b := 0; b < incSt.NumBlocks(); b++ {
		enc, err := incSt.EncodedBlock(fcol, b)
		if err != nil {
			t.Fatal(err)
		}
		want := compress.PlainFloat
		if b == 3 || b == 7 {
			want = compress.ScaledFloat
		}
		if got := compress.BlockScheme(enc); got != want {
			t.Errorf("incremental checkpoint: float block %d has scheme %d, want %d", b, got, want)
		}
	}
	t.Run("incremental", func(t *testing.T) { checkLegacyReads(t, incSt, rows) })

	full, err := colstore.NewCheckpointBuilder(st, 0, 128, true, filepath.Join(t.TempDir(), "full.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if err := full.AddBatch(scanAll(t, st, 0, len(rows))); err != nil {
		t.Fatal(err)
	}
	fullSt, err := full.Finish()
	if err != nil {
		t.Fatal(err)
	}
	defer fullSt.Close()
	got := schemes(fullSt)
	if len(got) != fullSt.NumBlocks() {
		t.Fatalf("read %d of %d float blocks", len(got), fullSt.NumBlocks())
	}
	for b, s := range got {
		if s != compress.ScaledFloat {
			t.Errorf("full checkpoint: float block %d has scheme %d, want ScaledFloat", b, s)
		}
	}
	t.Run("full", func(t *testing.T) { checkLegacyReads(t, fullSt, rows) })
}

// TestUpgradeErrorAtFetch: a retired block whose bytes pass the segment's
// checksum but do not decode fails its fetch with ErrCorrupt naming the
// block, and neither enters the pool nor is charged.
func TestUpgradeErrorAtFetch(t *testing.T) {
	schema := types.MustSchema([]types.Column{{Name: "k", Kind: types.Int64}}, []int{0})
	w, err := storage.CreateSegment("", schema, 128, true)
	if err != nil {
		t.Fatal(err)
	}
	// Two delta-varint values, the second varint cut short.
	if err := w.AppendBlock(0, []byte{byte(compress.DeltaVarint), 2, 0, 0, 0, 2, 0x80}, storage.Zone{}); err != nil {
		t.Fatal(err)
	}
	seg, err := w.Finish(2, []types.Row{{types.Int(1)}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := colstore.FromSegmentChain([]*storage.Segment{seg}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.EncodedBlock(0, 0); !errors.Is(err, compress.ErrCorrupt) {
		t.Fatalf("fetch of a damaged retired block: err = %v, want ErrCorrupt", err)
	}
	if bytes, reads := st.Device().Stats(); bytes != 0 || reads != 0 || st.Device().PoolBlocks() != 0 {
		t.Errorf("a failed fetch charged %d bytes in %d reads and left %d blocks pooled", bytes, reads, st.Device().PoolBlocks())
	}
}
