package engine_test

import (
	"testing"

	"pdtstore/internal/engine"
	"pdtstore/internal/table"
	"pdtstore/internal/tpch"
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
