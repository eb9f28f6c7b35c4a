package engine_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"pdtstore/internal/colstore"
	"pdtstore/internal/engine"
	"pdtstore/internal/table"
	"pdtstore/internal/tpch"
	"pdtstore/internal/types"
	"pdtstore/internal/vector"
)

// TestWideScanAllocsPerRow bounds what a scan of all sixteen lineitem columns
// under a live PDT allocates: no heap object per row. Blocks decode strings
// into one arena each and the merge stages nothing, so what is left is per
// plan (the batch and the scanner's windows: two objects per column each,
// about 90 in all) and per string block (arena, dictionary). SF 0.01 is 60 000
// rows in 15 blocks: the smallest table over which the per-plan part alone
// stays below the bound. (One string per value put this at 1 000 per 1 000.)
func TestWideScanAllocsPerRow(t *testing.T) {
	db, err := tpch.Load(0.01, table.ModePDT, true, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ApplyRefresh(2, 0.01); err != nil {
		t.Fatal(err)
	}
	if db.Lineitem.PDT().Empty() {
		t.Fatal("refresh left lineitem's PDT empty: the scan would not merge")
	}
	cols := make([]int, tpch.LineitemSchema.NumCols())
	for i := range cols {
		cols[i] = i
	}
	rows := 0
	scan := func() {
		rows = 0
		err := engine.Scan(db.Lineitem, cols...).Parallel(1).Run(func(b *vector.Batch, sel []uint32) error {
			rows += len(sel)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(5, scan)
	if perK := allocs / (float64(rows) / 1e3); perK > 5 {
		t.Fatalf("%.0f allocations for %d rows of %d columns: %.1f per 1000 rows, want <= 5", allocs, rows, len(cols), perK)
	}
}

// lineitemProbes loads TPC-H lineitem at SF 0.01 (60 000 rows, 15 blocks of
// 4096) into a compressed store and picks keys spread over every block and
// every offset within one, each the full (l_orderkey, l_linenumber) key of a
// stored row.
func lineitemProbes(t testing.TB) (*colstore.Store, []types.Row) {
	_, rows := tpch.NewGen(0.01, 1).OrdersAndLineitems()
	store, err := colstore.BulkLoad(tpch.LineitemSchema, nil, 4096, true, rows)
	if err != nil {
		t.Fatal(err)
	}
	var keys []types.Row
	for i := 17; i < len(rows); i += 997 {
		keys = append(keys, types.Row{rows[i][tpch.LOrderkey], rows[i][tpch.LLinenumber]})
	}
	return store, keys
}

// TestSeekAllocBytes is the probe's byte guard: a 16-column Seek on warm
// blocks searches the key columns in place and decodes a 16-row window of
// every column, so what it allocates is the batch, the scanner's windows and
// one string arena per string column — about 10 KB, not the 43.7 KB of a
// probe that decoded the leading key column's whole block and walked the
// other columns' varints (it would be more again at larger blocks).
func TestSeekAllocBytes(t *testing.T) {
	store, keys := lineitemProbes(t)
	cols := make([]int, tpch.LineitemSchema.NumCols())
	for i := range cols {
		cols[i] = i
	}
	seek := func() {
		for _, k := range keys {
			if _, row, exact, err := engine.Seek(store, k, cols); err != nil || !exact || len(row) != len(cols) {
				t.Fatalf("Seek(%v): exact=%v err=%v", k, exact, err)
			}
		}
	}
	seek() // warm the pool
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const rounds = 5
	for i := 0; i < rounds; i++ {
		seek()
	}
	runtime.ReadMemStats(&after)
	if perSeek := (after.TotalAlloc - before.TotalAlloc) / uint64(rounds*len(keys)); perSeek > 12<<10 {
		t.Errorf("a 16-column Seek allocates %d bytes, want <= %d", perSeek, 12<<10)
	}
}

// BenchmarkSeekLineitem is one warm 16-column key probe of lineitem.
func BenchmarkSeekLineitem(b *testing.B) {
	store, keys := lineitemProbes(b)
	cols := make([]int, tpch.LineitemSchema.NumCols())
	for i := range cols {
		cols[i] = i
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := engine.Seek(store, keys[i%len(keys)], cols); err != nil {
			b.Fatal(err)
		}
	}
}
