package txn_test

// Randomized differential test for sharded writes (external test package so
// it can drive the TPC-H workload without an import cycle): one deterministic
// mixed script of bulk ApplyBatch rounds — RF1 lineitem inserts, RF2 deletes,
// l_quantity updates — interleaved with commits, Write→Read freezes (forced
// by a small write budget) and full checkpoints, applied to the same lineitem
// image sharded 1, 2, 4 and 8 ways. Every shard count must converge to
// byte-identical row state and produce identical TPC-H Q1 and Q6 answers.

import (
	"fmt"
	"strings"
	"testing"

	"pdtstore/internal/engine"
	"pdtstore/internal/table"
	"pdtstore/internal/tpch"
	"pdtstore/internal/txn"
	"pdtstore/internal/types"
	"pdtstore/internal/vector"
)

// diffScript is the shared op script: batches applied one transaction each,
// with checkpoint set after every checkpointEvery batches.
type diffScript struct {
	batches         [][]table.Op
	checkpointEvery int
}

// genDiffScript derives the script once from the loaded generator, so every
// shard count replays exactly the same operations in the same order.
func genDiffScript(g *tpch.Gen, rounds, perRound int) diffScript {
	var s diffScript
	s.checkpointEvery = 4
	var prevInserted []types.Row // lineitem keys inserted by the last RF1 batch
	for r := 0; r < rounds; r++ {
		var ins, del, upd []table.Op
		var inserted []types.Row
		for _, ro := range g.RF1(perRound) {
			for _, lr := range ro.Lineitems {
				ins = append(ins, table.Op{Kind: table.OpInsert, Row: lr})
				inserted = append(inserted, types.Row{lr[tpch.LOrderkey], lr[tpch.LLinenumber]})
			}
		}
		for _, meta := range g.RF2(perRound) {
			for ln := 1; ln <= meta.Lines; ln++ {
				del = append(del, table.Op{Kind: table.OpDelete,
					Key: types.Row{types.Int(meta.Key), types.Int(int64(ln))}})
			}
		}
		// Update l_quantity of the previous round's inserts: keys known to be
		// visible and scattered across the whole key space (hence shards).
		for i, key := range prevInserted {
			upd = append(upd, table.Op{Kind: table.OpUpdate, Key: key,
				Col: tpch.LQuantity, Val: types.Float(float64(100 + i%50))})
		}
		prevInserted = inserted
		s.batches = append(s.batches, ins, del)
		if len(upd) > 0 {
			s.batches = append(s.batches, upd)
		}
	}
	return s
}

// runDiffScript stands up an n-way sharded copy of the base image, replays
// the script, and returns the final row state as one string plus the Q1/Q6
// answers computed over a table rebuilt from that state.
func runDiffScript(t *testing.T, base *table.Table, s diffScript, n int) (state, q1, q6 string) {
	t.Helper()
	stores, keys, err := table.ShardSplit(base.Store(), n, nil, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	mgrs := make([]*txn.Manager, n)
	for i, st := range stores {
		// A small budget forces Write→Read freezes mid-script.
		mgrs[i] = txn.NewManager(st, nil, txn.Options{WriteBudget: 64 << 10})
	}
	sh, err := txn.NewSharded(mgrs, keys)
	if err != nil {
		t.Fatal(err)
	}
	for bi, batch := range s.batches {
		tx := sh.Begin()
		if _, err := tx.ApplyBatch(batch); err != nil {
			t.Fatalf("shards=%d batch %d: %v", n, bi, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("shards=%d batch %d commit: %v", n, bi, err)
		}
		if (bi+1)%s.checkpointEvery == 0 {
			if err := sh.Checkpoint(); err != nil {
				t.Fatalf("shards=%d checkpoint after batch %d: %v", n, bi, err)
			}
		}
	}
	if err := sh.WaitMaintenance(); err != nil {
		t.Fatal(err)
	}

	schema := base.Schema()
	cols := make([]int, schema.NumCols())
	for i := range cols {
		cols[i] = i
	}
	tx := sh.Begin()
	defer tx.Abort()
	var sb strings.Builder
	var rows []types.Row
	err = engine.Scan(tx, cols...).Run(func(b *vector.Batch, sel []uint32) error {
		for _, i := range sel {
			row := b.Row(int(i)).Clone()
			rows = append(rows, row)
			fmt.Fprintf(&sb, "%v\n", row)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Q1 and Q6 read only the lineitem table: rebuild one from the final
	// sharded state and run the real query code over it.
	qtbl, err := table.Load(tpch.LineitemSchema, rows, table.Options{Mode: table.ModePDT})
	if err != nil {
		t.Fatal(err)
	}
	qdb := &tpch.DB{Lineitem: qtbl}
	if q1, err = tpch.Q1(qdb); err != nil {
		t.Fatal(err)
	}
	if q6, err = tpch.Q6(qdb); err != nil {
		t.Fatal(err)
	}
	return sb.String(), q1, q6
}

func TestShardedDifferentialTPCH(t *testing.T) {
	if testing.Short() {
		t.Skip("TPC-H differential is not a -short test")
	}
	db, err := tpch.Load(0.005, table.ModePDT, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	script := genDiffScript(db.Gen, 6, 12)

	var refState, refQ1, refQ6 string
	for _, n := range []int{1, 2, 4, 8} {
		state, q1, q6 := runDiffScript(t, db.Lineitem, script, n)
		if n == 1 {
			refState, refQ1, refQ6 = state, q1, q6
			if strings.Count(refState, "\n") == 0 {
				t.Fatal("empty final state: the script did nothing")
			}
			continue
		}
		if state != refState {
			t.Fatalf("shards=%d: final state diverges from unsharded (%d vs %d bytes)", n, len(state), len(refState))
		}
		if q1 != refQ1 {
			t.Fatalf("shards=%d: Q1 diverges:\n%s\nwant:\n%s", n, q1, refQ1)
		}
		if q6 != refQ6 {
			t.Fatalf("shards=%d: Q6 diverges:\n%s\nwant:\n%s", n, q6, refQ6)
		}
	}
}
