package engine_test

import (
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"

	"pdtstore/internal/colstore"
	"pdtstore/internal/engine"
	"pdtstore/internal/table"
	"pdtstore/internal/tpch"
	"pdtstore/internal/txn"
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

// q6Plan is TPC-H Q6's plan: two projected columns, three filters, the first
// on the unprojected shipdate.
func q6Plan(rel engine.Relation) *engine.Plan {
	return engine.Scan(rel, tpch.LExtendedprice, tpch.LDiscount).
		FilterInt64Range(tpch.LShipdate, tpch.Days(1994, 1, 1), tpch.Days(1995, 1, 1)-1).
		FilterFloat64Range(tpch.LDiscount, 0.05, 0.07).
		FilterFloat64Lt(tpch.LQuantity, 24).
		Parallel(1)
}

// cleanLineitem loads TPC-H at SF 0.01 (lineitem: 60 000 rows in 15 blocks of
// 4096) with an empty PDT, so every scan of it filters in the stable scanner.
func cleanLineitem(t testing.TB) *table.Table {
	db, err := tpch.Load(0.01, table.ModePDT, true, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if !db.Lineitem.PDT().Empty() {
		t.Fatal("a fresh load left lineitem's PDT non-empty")
	}
	return db.Lineitem
}

// TestQ6AllocsPerRow holds the selection-first scan to the wide scan's bound:
// Q6 over a clean image allocates per plan (batch, scanner, the first
// filter's survivor list), never per row or per block.
func TestQ6AllocsPerRow(t *testing.T) {
	li := cleanLineitem(t)
	rows := int(li.Store().NRows())
	matched := 0
	scan := func() {
		matched = 0
		err := q6Plan(li).Run(func(b *vector.Batch, sel []uint32) error {
			matched += len(sel)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(5, scan)
	if matched == 0 {
		t.Fatal("Q6 selected nothing: the bound would be vacuous")
	}
	if perK := allocs / (float64(rows) / 1e3); perK > 5 {
		t.Fatalf("%.0f allocations for a Q6 over %d rows: %.1f per 1000 rows, want <= 5", allocs, rows, perK)
	}
}

// BenchmarkQ6Clean is one Q6 over a clean SF 0.01 image on one worker.
func BenchmarkQ6Clean(b *testing.B) {
	li := cleanLineitem(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum := 0.0
		err := q6Plan(li).Run(func(bt *vector.Batch, sel []uint32) error {
			price, disc := bt.Vecs[0].F, bt.Vecs[1].F
			for _, r := range sel {
				sum += price[r] * disc[r]
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		q6Sink = sum
	}
}

var q6Sink float64

// mergeLineitem loads lineitem at SF 0.01 and puts 2.5 % of its rows under
// scattered updates (scatteredOps) in a Read+Write stack, the shape of the
// benchmark's merge workload. The table's own PDT, which becomes the
// manager's Read-PDT, holds half of them; the other half is committed
// through the manager into its Write-PDT. The transaction returned reads
// through both layers; n is the stable row count.
func mergeLineitem(t testing.TB) (rel *txn.Txn, n int) {
	_, rows := tpch.NewGen(0.01, 19920601).OrdersAndLineitems()
	tbl, err := table.Load(tpch.LineitemSchema, rows, table.Options{Mode: table.ModePDT, BlockRows: 4096, Compressed: true})
	if err != nil {
		t.Fatal(err)
	}
	ops := scatteredOps(rows)
	half := len(ops) / 2
	if _, err := tbl.ApplyBatch(ops[:half]); err != nil {
		t.Fatal(err)
	}
	mgr := txn.NewManager(tbl.Store(), tbl.PDT(), txn.Options{WriteBudget: 1 << 30})
	tx := mgr.Begin()
	if _, err := tx.ApplyBatch(ops[half:]); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if mgr.ReadPDT().Empty() || mgr.WritePDT().Empty() {
		t.Fatal("the updates did not land in both layers")
	}
	return mgr.Begin(), len(rows)
}

// scatteredOps updates 2.5 % of lineitem's rows, drawn at random: a third
// each inserts, deletes and modifies of l_quantity or l_discount (Q6 filter
// columns both, so modifies flip verdicts either way).
func scatteredOps(rows []types.Row) []table.Op {
	rng := rand.New(rand.NewSource(1))
	var ops []table.Op
	for i, at := range rng.Perm(len(rows))[:len(rows)/40] {
		r := rows[at]
		key := tpch.LineitemSchema.KeyOf(r)
		switch i % 3 {
		case 0: // a new line of the same order: line numbers stop at 7
			ins := r.Clone()
			ins[tpch.LLinenumber] = types.Int(int64(8 + i))
			ops = append(ops, table.Op{Kind: table.OpInsert, Row: ins})
		case 1:
			ops = append(ops, table.Op{Kind: table.OpDelete, Key: key})
		default:
			op := table.Op{Kind: table.OpUpdate, Key: key, Col: tpch.LQuantity, Val: types.Float(float64(1 + rng.Intn(50)))}
			if rng.Intn(2) == 0 {
				op.Col, op.Val = tpch.LDiscount, types.Float(float64(rng.Intn(11))/100)
			}
			ops = append(ops, op)
		}
	}
	return ops
}

// shardedLineitem splits lineitem at SF 0.01 into two shards and puts
// scatteredOps in two layers of each: half committed into the shards'
// Write-PDTs, half left in the returned transaction's Trans-PDTs. Its scan
// concatenates the two shards' stacks, the second's RIDs shifted by the
// first's rows (engine.OffsetRids, engine.Concat).
func shardedLineitem(t testing.TB) *txn.STxn {
	_, rows := tpch.NewGen(0.01, 19920601).OrdersAndLineitems()
	opts := table.Options{Mode: table.ModePDT, BlockRows: 4096, Compressed: true}
	tbl, err := table.Load(tpch.LineitemSchema, rows, opts)
	if err != nil {
		t.Fatal(err)
	}
	stores, keys, err := table.ShardSplit(tbl.Store(), 2, tbl.Store().Device(), 4096, true)
	if err != nil {
		t.Fatal(err)
	}
	mgrs := make([]*txn.Manager, len(stores))
	for i, st := range stores {
		mgrs[i] = txn.NewManager(st, nil, txn.Options{WriteBudget: 1 << 30})
	}
	s, err := txn.NewSharded(mgrs, keys)
	if err != nil {
		t.Fatal(err)
	}
	ops := scatteredOps(rows)
	half := len(ops) / 2
	tx := s.Begin()
	if _, err := tx.ApplyBatch(ops[:half]); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx = s.Begin()
	if _, err := tx.ApplyBatch(ops[half:]); err != nil {
		t.Fatal(err)
	}
	for i := range mgrs {
		live := 0
		_, layers := tx.ShardTxn(i).Stack()
		for _, l := range layers {
			if l != nil && !l.Empty() {
				live++
			}
		}
		if live != 2 {
			t.Fatalf("shard %d reads through %d live layers, want 2", i, live)
		}
	}
	return tx
}

// TestQ6MergeAllocsPerRow holds Q6 under a live Read+Write stack to what it
// allocates per plan and per layer, never per row or per batch: the merges
// plan each batch in buffers they keep, and the scanner maps each block's
// survivors to batch positions in buffers it keeps: 138 allocations over
// 60 577 rows (152 under the race detector, whose sync.Pool drops items),
// plus a tenth.
func TestQ6MergeAllocsPerRow(t *testing.T) {
	rel, rows := mergeLineitem(t)
	matched := 0
	scan := func() {
		matched = 0
		err := q6Plan(rel).Run(func(b *vector.Batch, sel []uint32) error {
			matched += len(sel)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(5, scan)
	if matched == 0 {
		t.Fatal("Q6 selected nothing: the bound would be vacuous")
	}
	if perK := allocs / (float64(rows) / 1e3); perK > 2.75 {
		t.Fatalf("%.0f allocations for a merged Q6 over %d rows: %.2f per 1000 rows, want <= 2.75", allocs, rows, perK)
	}
}

// BenchmarkQ6Merge is BenchmarkQ6Clean under mergeLineitem's two live layers.
func BenchmarkQ6Merge(b *testing.B) {
	rel, _ := mergeLineitem(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum := 0.0
		err := q6Plan(rel).Run(func(bt *vector.Batch, sel []uint32) error {
			price, disc := bt.Vecs[0].F, bt.Vecs[1].F
			for _, r := range sel {
				sum += price[r] * disc[r]
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		q6Sink = sum
	}
}

// q1Plan is TPC-H Q1's plan: six projected columns, two of them strings, and
// a shipdate filter that keeps 98 % of the rows — the dense selection.
func q1Plan(rel engine.Relation) *engine.Plan {
	return engine.Scan(rel, tpch.LQuantity, tpch.LExtendedprice, tpch.LDiscount, tpch.LTax, tpch.LReturnflag, tpch.LLinestatus).
		FilterInt64Le(tpch.LShipdate, tpch.Days(1998, 12, 1)-90).
		Parallel(1)
}

// TestQ1MergeAllocsPerRow is TestQ6MergeAllocsPerRow for Q1: what a dense
// selection under two live layers allocates is per plan and per string
// block, never per row or per batch: 277 allocations over 60 577 rows (285
// under the race detector), plus a tenth.
func TestQ1MergeAllocsPerRow(t *testing.T) {
	rel, rows := mergeLineitem(t)
	matched := 0
	scan := func() {
		matched = 0
		err := q1Plan(rel).Run(func(b *vector.Batch, sel []uint32) error {
			matched += len(sel)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(5, scan)
	if matched == 0 {
		t.Fatal("Q1 selected nothing: the bound would be vacuous")
	}
	if perK := allocs / (float64(rows) / 1e3); perK > 5.2 {
		t.Fatalf("%.0f allocations for a merged Q1 over %d rows: %.2f per 1000 rows, want <= 5.2", allocs, rows, perK)
	}
}

// benchQ1 runs Q1 over rel with a group-by sink.
func benchQ1(b *testing.B, rel engine.Relation) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sums [8][8]float64
		err := q1Plan(rel).Run(func(bt *vector.Batch, sel []uint32) error {
			qty, price, disc, tax := bt.Vecs[0].F, bt.Vecs[1].F, bt.Vecs[2].F, bt.Vecs[3].F
			rf, ls := bt.Vecs[4].S, bt.Vecs[5].S
			for _, r := range sel {
				sums[rf[r][0]&7][ls[r][0]&7] += qty[r] + price[r]*(1-disc[r])*(1+tax[r])
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		q6Sink = sums['N'&7]['O'&7]
	}
}

// BenchmarkQ1Clean is one Q1 over a clean SF 0.01 image on one worker.
func BenchmarkQ1Clean(b *testing.B) {
	benchQ1(b, cleanLineitem(b))
}

// BenchmarkQ1Merge is BenchmarkQ1Clean under mergeLineitem's two live layers:
// the dense selection a merge-carried filter must not slow down.
func BenchmarkQ1Merge(b *testing.B) {
	rel, _ := mergeLineitem(b)
	benchQ1(b, rel)
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
	return store, lineitemKeys(rows)
}

// lineitemKeys are the keys of every 997th row of rows, from row 17.
func lineitemKeys(rows []types.Row) []types.Row {
	var keys []types.Row
	for i := 17; i < len(rows); i += 997 {
		keys = append(keys, types.Row{rows[i][tpch.LOrderkey], rows[i][tpch.LLinenumber]})
	}
	return keys
}

// lineitemFileProbes is lineitemProbes over a segment file: the image a cold
// probe preads from and checksums.
func lineitemFileProbes(t testing.TB) (*colstore.Store, []types.Row) {
	_, rows := tpch.NewGen(0.01, 1).OrdersAndLineitems()
	b, err := colstore.NewFileBuilder(tpch.LineitemSchema, nil, 4096, true, filepath.Join(t.TempDir(), "lineitem.seg"))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := b.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	store, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return store, lineitemKeys(rows)
}

// TestSeekAllocBytes is the probe's byte guard: a 16-column Seek on warm
// blocks searches the key columns in place and decodes the one row of every
// column it finds straight into a pooled batch, so what it allocates is the
// scanner, the answer row and one string arena per string column — about
// 1.6 KB, not the 10 KB of a probe that decoded a 16-row window into buffers
// of its own and copied it into a fresh batch, nor the 43.7 KB of one that
// decoded the leading key column's whole block and walked the other columns'
// varints (it would be more again at larger blocks).
func TestSeekAllocBytes(t *testing.T) {
	store, keys := lineitemProbes(t)
	cols := make([]int, tpch.LineitemSchema.NumCols())
	for i := range cols {
		cols[i] = i
	}
	seek := func(k types.Row) {
		if _, row, exact, err := engine.Seek(store, k, cols); err != nil || !exact || len(row) != len(cols) {
			t.Fatalf("Seek(%v): exact=%v err=%v", k, exact, err)
		}
	}
	for _, k := range keys {
		seek(k) // warm the pools
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	var total uint64
	for _, k := range keys {
		least := uint64(math.MaxUint64)
		for range warmRuns {
			runtime.ReadMemStats(&before)
			seek(k)
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		total += least
	}
	if perSeek := total / uint64(len(keys)); perSeek > 2<<10 {
		t.Errorf("a 16-column Seek allocates %d bytes, want <= %d", perSeek, 2<<10)
	}
}

// TestSeekAllocs is the probe's object guard: one warm 16-column Seek
// allocates its scanner, its column lists, the answer row and the string
// arenas — no batch and no window buffers.
func TestSeekAllocs(t *testing.T) {
	store, keys := lineitemProbes(t)
	cols := make([]int, tpch.LineitemSchema.NumCols())
	for i := range cols {
		cols[i] = i
	}
	for _, k := range keys {
		got := warmAllocs(func() {
			if _, _, exact, err := engine.Seek(store, k, cols); err != nil || !exact {
				t.Fatalf("Seek(%v): exact=%v err=%v", k, exact, err)
			}
		})
		if got > 16 {
			t.Fatalf("a 16-column Seek of %v allocates %v objects, want <= 16", k, got)
		}
	}
}

// warmRuns is how many single calls a warm-call guard measures. A probe's
// batch comes from a sync.Pool, which under the race detector drops a
// quarter of what is put back, so one call in a few pays for a fresh batch
// there; the fewest of warmRuns calls is the warm call's cost in any build.
const warmRuns = 20

// warmAllocs is the fewest objects one call of f allocates over warmRuns
// calls.
func warmAllocs(f func()) float64 {
	least := math.Inf(1)
	for range warmRuns {
		least = min(least, testing.AllocsPerRun(1, f))
	}
	return least
}

// TestColdSeekReadsPages: a cold 16-column probe of a lineitem file — the
// pool dropped before each — reads the pages its row lies in, not its
// blocks: at most 64 KB in at most 20 preads on average (whole blocks were
// 179 KB in 16 at SF 0.05), and allocates at most 32 KB (190 KB when every
// block was read into a fresh buffer).
func TestColdSeekReadsPages(t *testing.T) {
	store, keys := lineitemFileProbes(t)
	dev := store.Device()
	cols := make([]int, tpch.LineitemSchema.NumCols())
	for i := range cols {
		cols[i] = i
	}
	seek := func(k types.Row) {
		if _, row, exact, err := engine.Seek(store, k, cols); err != nil || !exact || len(row) != len(cols) {
			t.Fatalf("Seek(%v): exact=%v err=%v", k, exact, err)
		}
	}
	var bytes, reads, most uint64
	for _, k := range keys {
		dev.DropCaches()
		dev.ResetStats()
		seek(k)
		b, r := dev.Stats()
		bytes, reads, most = bytes+b, reads+r, max(most, b)
	}
	n := uint64(len(keys))
	t.Logf("a cold probe reads %d bytes in %.1f preads on average, at most %d bytes", bytes/n, float64(reads)/float64(n), most)
	if bytes/n > 64<<10 || reads > 20*n {
		t.Errorf("a cold probe reads %d bytes in %.1f preads on average, want <= %d in <= 20", bytes/n, float64(reads)/float64(n), 64<<10)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	var total uint64
	for _, k := range keys {
		least := uint64(math.MaxUint64)
		for range warmRuns {
			dev.DropCaches()
			runtime.ReadMemStats(&before)
			seek(k)
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		total += least
	}
	if perSeek := total / n; perSeek > 32<<10 {
		t.Errorf("a cold 16-column Seek allocates %d bytes, want <= %d", perSeek, 32<<10)
	} else {
		t.Logf("a cold 16-column Seek allocates %d bytes", perSeek)
	}
}

// BenchmarkSeekLineitemCold is one cold 16-column key probe of a lineitem
// file: the pool is dropped before each, and the device's bytes and preads
// per probe are reported beside the time.
func BenchmarkSeekLineitemCold(b *testing.B) {
	store, keys := lineitemFileProbes(b)
	dev := store.Device()
	cols := make([]int, tpch.LineitemSchema.NumCols())
	for i := range cols {
		cols[i] = i
	}
	dev.ResetStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dev.DropCaches()
		if _, _, _, err := engine.Seek(store, keys[i%len(keys)], cols); err != nil {
			b.Fatal(err)
		}
	}
	bytes, reads := dev.Stats()
	b.ReportMetric(float64(bytes)/float64(b.N), "dev-B/op")
	b.ReportMetric(float64(reads)/float64(b.N), "preads/op")
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
