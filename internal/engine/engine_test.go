package engine_test

// The engine tests exercise the pipeline through its real consumers: tables
// in all three delta modes (hence the external test package — table depends
// on engine), raw PDT layer stacks, and the projection-pushdown I/O contract.

import (
	"fmt"
	"testing"

	"pdtstore/internal/colstore"
	"pdtstore/internal/engine"
	"pdtstore/internal/pdt"
	"pdtstore/internal/table"
	"pdtstore/internal/tpch"
	"pdtstore/internal/types"
	"pdtstore/internal/vector"
)

var testSchema = types.MustSchema([]types.Column{
	{Name: "k", Kind: types.Int64},
	{Name: "a", Kind: types.Int64},
	{Name: "b", Kind: types.Float64},
	{Name: "s", Kind: types.String},
}, []int{0})

func testRows(n int) []types.Row {
	rows := make([]types.Row, n)
	for i := 0; i < n; i++ {
		rows[i] = types.Row{
			types.Int(int64(i) * 2), // even keys; odd keys are insert space
			types.Int(int64(i) % 7),
			types.Float(float64(i) / 4),
			types.Str(fmt.Sprintf("s%03d", i%5)),
		}
	}
	return rows
}

// loadUpdated builds a table in the given mode and applies the same logical
// updates regardless of mode: inserts at odd keys, a delete, and a modify.
func loadUpdated(t *testing.T, mode table.DeltaMode) *table.Table {
	t.Helper()
	tbl, err := table.Load(testSchema, testRows(100), table.Options{Mode: mode, BlockRows: 16})
	if err != nil {
		t.Fatal(err)
	}
	if mode == table.ModeNone {
		return tbl
	}
	ops := []table.Op{
		{Kind: table.OpDelete, Key: types.Row{types.Int(40)}},
		{Kind: table.OpUpdate, Key: types.Row{types.Int(10)}, Col: 1, Val: types.Int(42)},
	}
	for _, k := range []int64{7, 33, 121} {
		ops = append(ops, table.Op{Kind: table.OpInsert, Row: types.Row{types.Int(k), types.Int(k % 7), types.Float(0.5), types.Str("ins")}})
	}
	if _, err := tbl.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// fingerprint renders the plan's output deterministically.
func fingerprint(t *testing.T, p *engine.Plan, cols int) string {
	t.Helper()
	out := ""
	err := p.Run(func(b *vector.Batch, sel []uint32) error {
		for _, i := range sel {
			for c := 0; c < cols; c++ {
				out += b.Vecs[c].Get(int(i)).String() + "|"
			}
			out += "\n"
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestPlanAgreesAcrossDeltaModes(t *testing.T) {
	// The same plan — projected columns, a range, and filters including one
	// on an unprojected column — must give identical results whether the
	// updates live in a PDT, a VDT, or a checkpointed stable image.
	plans := func(tbl *table.Table) *engine.Plan {
		return engine.Scan(tbl, 1, 2). // project a, b — not the sort key
						Range(types.Row{types.Int(8)}, types.Row{types.Int(90)}).
						FilterInt64Range(0, 8, 90). // exact bound on unprojected sort key
						FilterInt64Le(1, 5)
	}
	pdtTbl := loadUpdated(t, table.ModePDT)
	vdtTbl := loadUpdated(t, table.ModeVDT)
	want := fingerprint(t, plans(pdtTbl), 2)
	if want == "" {
		t.Fatal("plan selected nothing; test is vacuous")
	}
	if got := fingerprint(t, plans(vdtTbl), 2); got != want {
		t.Errorf("VDT disagrees with PDT:\nPDT:\n%s\nVDT:\n%s", want, got)
	}
	if err := pdtTbl.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(t, plans(pdtTbl), 2); got != want {
		t.Errorf("checkpointed image disagrees:\nbefore:\n%s\nafter:\n%s", want, got)
	}
}

// TestFilterStrInOwnsItsSet: a plan keeps its own copy of an IN list, so a
// caller reusing the slice after FilterStrIn changes neither what the scan
// keeps nor what pruning assumes it keeps — on a clean image, where the
// scanner tests the dictionary, and under a live PDT, where the kernel runs
// after the merge.
func TestFilterStrInOwnsItsSet(t *testing.T) {
	for _, mode := range []table.DeltaMode{table.ModeNone, table.ModePDT} {
		tbl := loadUpdated(t, mode)
		want := fingerprint(t, engine.Scan(tbl, 0, 3).FilterStrIn(3, "s001", "s003"), 2)
		if want == "" {
			t.Fatal("the IN list selects nothing; test is vacuous")
		}
		for _, noPrune := range []bool{false, true} {
			set := []string{"s001", "s003"}
			p := engine.Scan(tbl, 0, 3).FilterStrIn(3, set...)
			set[0], set[1] = "s002", "zzz"
			if noPrune {
				p.NoPrune()
			}
			if got := fingerprint(t, p, 2); got != want {
				t.Errorf("%v, NoPrune=%v: the caller's edit reached the plan:\nwant:\n%s\ngot:\n%s", mode, noPrune, want, got)
			}
		}
	}
}

func TestPlanEmptyAndAllFiltered(t *testing.T) {
	tbl := loadUpdated(t, table.ModePDT)
	// all rows filtered out: the sink must never run
	calls := 0
	err := engine.Scan(tbl, 0).FilterInt64Ge(0, 1<<40).
		Run(func(*vector.Batch, []uint32) error { calls++; return nil })
	if err != nil || calls != 0 {
		t.Fatalf("all-filtered: calls=%d err=%v", calls, err)
	}
	b, err := engine.Scan(tbl, 0, 1).FilterInt64Ge(0, 1<<40).Collect()
	if err != nil || b.Len() != 0 || len(b.Vecs) != 2 {
		t.Fatalf("all-filtered collect: %d rows, %d vecs (%v)", b.Len(), len(b.Vecs), err)
	}
	// probing beyond every key: the sparse-index range is conservative (it
	// may surface a trailing partial block), so the exact kernel pairs with
	// it — together they must select nothing
	b, err = engine.Scan(tbl, 0).
		Range(types.Row{types.Int(1 << 40)}, nil).
		FilterInt64Ge(0, 1<<40).
		Collect()
	if err != nil || b.Len() != 0 {
		t.Fatalf("beyond-range collect: %d rows (%v)", b.Len(), err)
	}
}

func TestPlanUnprojectedSortKeyVDT(t *testing.T) {
	// A VDT merge must read the sort key internally but never leak it: the
	// collected batch holds exactly the projected columns.
	tbl := loadUpdated(t, table.ModeVDT)
	b, err := engine.Scan(tbl, 2, 3).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Vecs) != 2 || b.Vecs[0].Kind != types.Float64 || b.Vecs[1].Kind != types.String {
		t.Fatalf("projection leaked: %d vecs", len(b.Vecs))
	}
	if b.Len() != int(tbl.NRows()) {
		t.Fatalf("rows = %d, want %d", b.Len(), tbl.NRows())
	}
}

func TestProjectionPushdownIO(t *testing.T) {
	// The defining pushdown property: a plan that touches fewer columns
	// fetches fewer encoded bytes from the device, and a filter on an
	// unprojected column costs exactly that one extra column.
	dev := colstore.NewDevice()
	tbl, err := table.Load(testSchema, testRows(2000),
		table.Options{Mode: table.ModeNone, BlockRows: 64, Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	cold := func(p *engine.Plan) uint64 {
		dev.DropCaches()
		dev.ResetStats()
		if err := p.Run(func(*vector.Batch, []uint32) error { return nil }); err != nil {
			t.Fatal(err)
		}
		n, _ := dev.Stats()
		return n
	}
	one := cold(engine.Scan(tbl, 1))
	all := cold(engine.Scan(tbl, 0, 1, 2, 3))
	if one == 0 || all <= one {
		t.Fatalf("pushdown broken: 1-col=%d all-col=%d", one, all)
	}
	withFilter := cold(engine.Scan(tbl, 1).FilterFloat64Lt(2, 1e18))
	if withFilter <= one || withFilter >= all {
		t.Fatalf("filter column cost off: 1-col=%d +filter=%d all=%d", one, withFilter, all)
	}
}

func TestStackedPDTScan(t *testing.T) {
	// Three stacked layers over a 5-row stable image (keys 0,2,4,6,8), each
	// layer's SIDs addressing the view of the layer below — the transaction
	// scheme's Read/Write/Trans stack in miniature.
	schema := types.MustSchema([]types.Column{
		{Name: "k", Kind: types.Int64},
		{Name: "v", Kind: types.Int64},
	}, []int{0})
	var rows []types.Row
	for i := int64(0); i < 5; i++ {
		rows = append(rows, types.Row{types.Int(i * 2), types.Int(i)})
	}
	store, err := colstore.BulkLoad(schema, nil, 4, false, rows)
	if err != nil {
		t.Fatal(err)
	}
	read := pdt.New(schema, 0)
	write := pdt.New(schema, 0)
	trans := pdt.New(schema, 0)
	// read: insert key 1 before SID 1  -> view 0,1,2,4,6,8
	if err := read.Insert(1, types.Row{types.Int(1), types.Int(10)}); err != nil {
		t.Fatal(err)
	}
	// write: modify the row at read-RID 3 (key 4) -> v=99
	if err := write.Modify(3, 1, types.Int(99)); err != nil {
		t.Fatal(err)
	}
	// trans: delete the row at write-RID 0 (key 0)
	if err := trans.Delete(0, types.Row{types.Int(0)}); err != nil {
		t.Fatal(err)
	}
	cols := []int{0, 1}
	base := store.NewScanner(cols, 0, store.NRows())
	src := engine.StackPDTs(base, cols, 0, true, read, write, trans)
	out, err := pdt.ScanAll(src, []types.Kind{types.Int64, types.Int64})
	if err != nil {
		t.Fatal(err)
	}
	wantK := []int64{1, 2, 4, 6, 8}
	wantV := []int64{10, 1, 99, 3, 4}
	if out.Len() != len(wantK) {
		t.Fatalf("rows = %d, want %d", out.Len(), len(wantK))
	}
	for i := range wantK {
		if out.Vecs[0].I[i] != wantK[i] || out.Vecs[1].I[i] != wantV[i] {
			t.Fatalf("row %d = (%d,%d), want (%d,%d)",
				i, out.Vecs[0].I[i], out.Vecs[1].I[i], wantK[i], wantV[i])
		}
		if out.Rids[i] != uint64(i) {
			t.Fatalf("rid %d = %d", i, out.Rids[i])
		}
	}
	// no live layers (none, nil, empty): rows and RIDs of the bare scan
	bare, err := pdt.ScanAll(store.NewScanner(cols, 2, store.NRows()), []types.Kind{types.Int64, types.Int64})
	if err != nil {
		t.Fatal(err)
	}
	for _, layers := range [][]*pdt.PDT{nil, {nil}, {pdt.New(schema, 0), nil, pdt.New(schema, 0)}} {
		src := engine.StackPDTs(store.NewScanner(cols, 2, store.NRows()), cols, 2, true, layers...)
		got, err := pdt.ScanAll(src, []types.Kind{types.Int64, types.Int64})
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != bare.Len() || len(got.Rids) != bare.Len() {
			t.Fatalf("%d dead layers: %d rows, %d rids, want %d", len(layers), got.Len(), len(got.Rids), bare.Len())
		}
		for i := 0; i < bare.Len(); i++ {
			if types.CompareRows(got.Row(i), bare.Row(i)) != 0 || got.Rids[i] != uint64(2+i) {
				t.Fatalf("%d dead layers: row %d = %v rid %d, want %v rid %d",
					len(layers), i, got.Row(i), got.Rids[i], bare.Row(i), 2+i)
			}
		}
	}
}

func TestCollectRidsAndStop(t *testing.T) {
	tbl := loadUpdated(t, table.ModePDT)
	b, err := engine.Scan(tbl, 0).WithRids().FilterInt64Range(0, 20, 30).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() == 0 || len(b.Rids) != b.Len() {
		t.Fatalf("rids not carried: %d rows, %d rids", b.Len(), len(b.Rids))
	}
	// without WithRids, Collect drops them
	b, err = engine.Scan(tbl, 0).Collect()
	if err != nil || len(b.Rids) != 0 {
		t.Fatalf("rids leaked: %d (%v)", len(b.Rids), err)
	}
	// Stop ends a Run early without error
	seen := 0
	err = engine.Scan(tbl, 0).BatchSize(8).Run(func(b *vector.Batch, sel []uint32) error {
		seen += len(sel)
		return engine.Stop
	})
	if err != nil || seen != 8 {
		t.Fatalf("stop: seen=%d err=%v", seen, err)
	}
}

// TestFilteredRids holds a filtered WithRids scan to the RIDs of the
// unfiltered scan, filtered afterwards: a selecting pipeline writes a RID
// only where its selection keeps a row, and every one of those must be
// right — under a two-layer stack, across two shards (each shifted by
// OffsetRids, joined by Concat), and through the morsel stitch at one and
// at four workers.
func TestFilteredRids(t *testing.T) {
	merged, _ := mergeLineitem(t)
	rels := map[string]engine.Relation{"two-layer stack": merged, "two shards": shardedLineitem(t)}
	lo, hi := tpch.Days(1994, 1, 1), tpch.Days(1995, 1, 1)-1
	for name, rel := range rels {
		all, err := engine.Scan(rel, tpch.LExtendedprice, tpch.LShipdate, tpch.LDiscount, tpch.LQuantity).WithRids().Parallel(1).Collect()
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		for i := 0; i < all.Len(); i++ {
			ship, disc, qty := all.Vecs[1].I[i], all.Vecs[2].F[i], all.Vecs[3].F[i]
			if ship >= lo && ship <= hi && disc >= 0.05 && disc <= 0.07 && qty < 24 {
				want = append(want, fmt.Sprintf("@%d:%v", all.Rids[i], all.Vecs[0].F[i]))
			}
		}
		for _, workers := range []int{1, 4} {
			got, err := engine.Scan(rel, tpch.LExtendedprice).
				FilterInt64Range(tpch.LShipdate, lo, hi).
				FilterFloat64Range(tpch.LDiscount, 0.05, 0.07).
				FilterFloat64Lt(tpch.LQuantity, 24).
				WithRids().Parallel(workers).Collect()
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Rids) != got.Len() || got.Len() != len(want) || len(want) == 0 {
				t.Fatalf("%s, %d workers: %d rows and %d RIDs, want %d of each", name, workers, got.Len(), len(got.Rids), len(want))
			}
			for i, w := range want {
				if g := fmt.Sprintf("@%d:%v", got.Rids[i], got.Vecs[0].F[i]); g != w {
					t.Fatalf("%s, %d workers: row %d is %s, want %s", name, workers, i, g, w)
				}
			}
		}
	}
}

// TestSizeHints: the Sources a table's pipeline is built of — the stable
// scanner and a merge over it — know exactly how many rows they have left.
func TestSizeHints(t *testing.T) {
	tbl := loadUpdated(t, table.ModePDT)
	st := tbl.Store()
	var src pdt.Source = pdt.NewMergeScan(tbl.PDT(), st.NewScanner([]int{0}, 0, st.NRows()), []int{0}, 0, true)
	if h := src.SizeHint(); h != int(tbl.NRows()) {
		t.Fatalf("merged hint = %d, want %d", h, tbl.NRows())
	}
	clean, err := table.Load(testSchema, testRows(50), table.Options{Mode: table.ModeNone, BlockRows: 16})
	if err != nil {
		t.Fatal(err)
	}
	if h := clean.Store().NewScanner([]int{0}, 0, 50).SizeHint(); h != 50 {
		t.Fatalf("plain hint = %d, want 50", h)
	}
}
