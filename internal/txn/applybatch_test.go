package txn_test

// ApplyBatch over TPC-H lineitem in the three shapes a batch takes, each
// aborted so every run starts from the same image: scattered modifies in the
// first half of the table (a transaction's write set), a modify of every 10th
// row (a refresh), and a load of every row into an empty store (the durable
// store's set-up build).

import (
	"math/rand"
	"testing"

	"pdtstore/internal/table"
	"pdtstore/internal/tpch"
	"pdtstore/internal/txn"
	"pdtstore/internal/types"
)

// lineitemManager loads rows (lineitem tuples in key order) as a compressed
// image of 4096-row blocks under a transaction manager.
func lineitemManager(tb testing.TB, rows []types.Row) *txn.Manager {
	tb.Helper()
	tbl, err := table.Load(tpch.LineitemSchema, rows, table.Options{Mode: table.ModePDT, BlockRows: 4096, Compressed: true})
	if err != nil {
		tb.Fatal(err)
	}
	m := txn.NewManager(tbl.Store(), nil, txn.Options{})
	return m
}

func modifyOp(r types.Row, q float64) table.Op {
	return table.Op{Kind: table.OpUpdate, Key: types.Row{r[tpch.LOrderkey], r[tpch.LLinenumber]}, Col: tpch.LQuantity, Val: types.Float(q)}
}

// scatteredModifies sets l_quantity of n distinct rows drawn from rows.
func scatteredModifies(rows []types.Row, n int, seed int64) []table.Op {
	ops := make([]table.Op, 0, n)
	for _, i := range rand.New(rand.NewSource(seed)).Perm(len(rows))[:n] {
		ops = append(ops, modifyOp(rows[i], float64(i%50)))
	}
	return ops
}

// applyAborted applies ops in a fresh transaction and aborts it.
func applyAborted(tb testing.TB, m *txn.Manager, ops []table.Op) {
	tx := m.Begin()
	defer tx.Abort()
	if n, err := tx.ApplyBatch(ops); err != nil || n != len(ops) {
		tb.Fatalf("ApplyBatch applied %d of %d ops: %v", n, len(ops), err)
	}
}

// BenchmarkApplyBatch runs the three shapes over SF 0.05 (300k rows).
func BenchmarkApplyBatch(b *testing.B) {
	_, rows := tpch.NewGen(0.05, 1).OrdersAndLineitems()
	full, empty := lineitemManager(b, rows), lineitemManager(b, nil)
	var dense, load []table.Op
	for i, r := range rows {
		if i%10 == 0 {
			dense = append(dense, modifyOp(r, 1))
		}
		load = append(load, table.Op{Kind: table.OpInsert, Row: r})
	}
	for _, c := range []struct {
		name string
		m    *txn.Manager
		ops  []table.Op
	}{
		{"scattered256", full, scatteredModifies(rows[:len(rows)/2], 256, 1)},
		{"dense30k", full, dense},
		{"load300k", empty, load},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				applyAborted(b, c.m, c.ops)
			}
		})
	}
}

// TestApplyBatchAllocs pins what 256 scattered modifies allocate over
// lineitem (SF 0.02, keys ≈ 470 rows apart, as in scattered256) under a
// Write-PDT that one such batch has filled: a stack open per key, or per run
// of keys close enough to share a window.
func TestApplyBatchAllocs(t *testing.T) {
	_, rows := tpch.NewGen(0.02, 1).OrdersAndLineitems()
	m := lineitemManager(t, rows)
	tx := m.Begin()
	if _, err := tx.ApplyBatch(scatteredModifies(rows, 256, 2)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	ops := scatteredModifies(rows, 256, 1)
	applyAborted(t, m, ops) // warm the pool
	const want = 2247
	if got := testing.AllocsPerRun(5, func() { applyAborted(t, m, ops) }); got > want*1.1 {
		t.Errorf("256 scattered modifies allocate %.0f objects, want at most %d + 10 %%", got, want)
	}
}
