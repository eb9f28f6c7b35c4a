package table

import (
	"fmt"
	"math/rand"
	"testing"

	"pdtstore/internal/types"
	"pdtstore/internal/vector"
)

func batchSchema() *types.Schema {
	return types.MustSchema([]types.Column{
		{Name: "k", Kind: types.Int64},
		{Name: "a", Kind: types.Int64},
		{Name: "b", Kind: types.String},
	}, []int{0})
}

func loadBatchTable(t *testing.T, mode DeltaMode, n int) *Table {
	t.Helper()
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.Int(int64((i + 1) * 10)), types.Int(int64(i)), types.Str(fmt.Sprintf("s%d", i))}
	}
	tbl, err := Load(batchSchema(), rows, Options{Mode: mode, BlockRows: 16})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func allRows(t *testing.T, tbl *Table) []types.Row {
	t.Helper()
	cols := allCols(tbl.Schema())
	src, err := tbl.Scan(cols, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := vector.NewBatch(tbl.Kinds(cols), 64)
	for {
		n, err := src.Next(b, 64)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
	}
	out := make([]types.Row, b.Len())
	for i := range out {
		out[i] = b.Row(i)
	}
	return out
}

// TestTableApplyBatchMatchesPerOp drives the same randomized batches through
// ApplyBatch on one table and, op by op in submitted order, as one-op
// batches on another, for both delta modes, and compares full scans (plus
// the PDT invariant audit): one resolution pass with a running shift places
// every op where its own probe would.
func TestTableApplyBatchMatchesPerOp(t *testing.T) {
	for _, mode := range []DeltaMode{ModePDT, ModeVDT} {
		for seed := int64(0); seed < 4; seed++ {
			t.Run(fmt.Sprintf("%v/seed=%d", mode, seed), func(t *testing.T) {
				batched := loadBatchTable(t, mode, 25)
				perOp := loadBatchTable(t, mode, 25)
				rng := rand.New(rand.NewSource(seed))
				tag := int64(0)
				for round := 0; round < 3; round++ {
					var ops []Op
					used := map[int64]bool{}
					for len(ops) < 20 {
						switch rng.Intn(3) {
						case 0:
							tag++
							k := tag*10 + 5
							if used[k] {
								continue
							}
							used[k] = true
							ops = append(ops, Op{Kind: OpInsert,
								Row: types.Row{types.Int(k), types.Int(tag), types.Str(fmt.Sprintf("i%d", tag))}})
						case 1:
							k := int64(1+rng.Intn(29)) * 10
							if used[k] {
								continue
							}
							used[k] = true
							ops = append(ops, Op{Kind: OpDelete, Key: types.Row{types.Int(k)}})
						default:
							k := int64(1+rng.Intn(29)) * 10
							if used[k] {
								continue
							}
							used[k] = true
							tag++
							ops = append(ops, Op{Kind: OpUpdate, Key: types.Row{types.Int(k)}, Col: 1, Val: types.Int(tag)})
						}
					}
					nB, err := batched.ApplyBatch(ops)
					if err != nil {
						t.Fatal(err)
					}
					nP := 0
					for _, op := range ops {
						n, err := apply(perOp, op)
						if err != nil {
							t.Fatal(err)
						}
						nP += n
					}
					if nB != nP {
						t.Fatalf("round %d: batch applied %d, per-op %d", round, nB, nP)
					}
					got, want := allRows(t, batched), allRows(t, perOp)
					if len(got) != len(want) {
						t.Fatalf("round %d: %d rows vs %d", round, len(got), len(want))
					}
					for i := range got {
						if types.CompareRows(got[i], want[i]) != 0 {
							t.Fatalf("round %d row %d: %v vs %v", round, i, got[i], want[i])
						}
					}
					if mode == ModePDT {
						if err := batched.PDT().Validate(); err != nil {
							t.Fatalf("round %d: %v", round, err)
						}
					}
				}
				// Checkpoint both and compare the rebuilt stable images.
				if err := batched.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				if err := perOp.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				got, want := allRows(t, batched), allRows(t, perOp)
				for i := range got {
					if types.CompareRows(got[i], want[i]) != 0 {
						t.Fatalf("checkpointed row %d: %v vs %v", i, got[i], want[i])
					}
				}
			})
		}
	}
}

func TestTableApplyBatchEdges(t *testing.T) {
	for _, mode := range []DeltaMode{ModePDT, ModeVDT} {
		tbl := loadBatchTable(t, mode, 10)

		// Batch touching positions before the first and past the last stable row.
		n, err := tbl.ApplyBatch([]Op{
			{Kind: OpInsert, Row: types.Row{types.Int(1), types.Int(0), types.Str("front")}},
			{Kind: OpInsert, Row: types.Row{types.Int(500), types.Int(0), types.Str("back")}},
			{Kind: OpDelete, Key: types.Row{types.Int(10)}},
			{Kind: OpDelete, Key: types.Row{types.Int(100)}},
			{Kind: OpUpdate, Key: types.Row{types.Int(999)}, Col: 1, Val: types.Int(1)}, // miss
		})
		if err != nil {
			t.Fatal(err)
		}
		if n != 4 {
			t.Fatalf("%v: applied %d, want 4", mode, n)
		}
		rows := allRows(t, tbl)
		if rows[0][0].I != 1 || rows[len(rows)-1][0].I != 500 {
			t.Fatalf("%v: edge inserts misplaced: %v", mode, rows)
		}
		if tbl.NRows() != 10 {
			t.Fatalf("%v: NRows %d, want 10", mode, tbl.NRows())
		}

		// Empty batch is a no-op.
		if n, err := tbl.ApplyBatch(nil); err != nil || n != 0 {
			t.Fatalf("%v: empty batch: n=%d err=%v", mode, n, err)
		}
	}

	// ModeNone rejects batches.
	none := loadBatchTable(t, ModeNone, 5)
	if _, err := none.ApplyBatch([]Op{{Kind: OpDelete, Key: types.Row{types.Int(10)}}}); err == nil {
		t.Fatal("ModeNone accepted a batch")
	}
}
