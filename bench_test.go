package pdtstore_test

// One benchmark family per figure of the paper's evaluation (§4). These run
// at laptop-friendly sizes; cmd/pdtbench sweeps the full parameter grids and
// prints the paper-style series tables.

import (
	"fmt"
	"math/rand"
	"testing"

	"pdtstore/internal/bench"
	"pdtstore/internal/engine"
	"pdtstore/internal/pdt"
	"pdtstore/internal/table"
	"pdtstore/internal/tpch"
	"pdtstore/internal/types"
	"pdtstore/internal/vector"
)

// BenchmarkFig16_PDTMaintenance measures per-operation PDT update cost at
// growing tree sizes (Figure 16: insert vs modify vs delete, logarithmic in
// PDT size).
func BenchmarkFig16_PDTMaintenance(b *testing.B) {
	schema := types.MustSchema([]types.Column{
		{Name: "k", Kind: types.Int64},
		{Name: "v", Kind: types.Int64},
	}, []int{0})
	for _, size := range []int{10_000, 100_000} {
		size := size
		grow := func() (*pdt.PDT, int64) {
			p := pdt.New(schema, 0)
			visible := int64(size)
			for i := 0; i < size; i++ {
				rid := uint64(int64(i*7919) % (visible + 1))
				key := int64(1)<<40 + int64(i)
				if err := p.Insert(rid, types.Row{types.Int(key), types.Int(0)}); err != nil {
					b.Fatal(err)
				}
				visible++
			}
			return p, visible
		}
		b.Run(fmt.Sprintf("insert/size=%d", size), func(b *testing.B) {
			p, visible := grow()
			key := int64(1 << 50)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rid := uint64(int64(i*6271) % (visible + 1))
				key++
				if err := p.Insert(rid, types.Row{types.Int(key), types.Int(0)}); err != nil {
					b.Fatal(err)
				}
				visible++
			}
		})
		b.Run(fmt.Sprintf("modify/size=%d", size), func(b *testing.B) {
			p, visible := grow()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rid := uint64(int64(i*6271) % visible)
				if err := p.Modify(rid, 1, types.Int(int64(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("delete/size=%d", size), func(b *testing.B) {
			p, visible := grow()
			key := int64(1 << 50)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// keep cardinality stable: delete one, insert one (untimed
				// compensation would distort; both ops are timed and noted)
				rid := uint64(int64(i*6271) % visible)
				key++
				if err := p.Delete(rid, types.Row{types.Int(key)}); err != nil {
					b.Fatal(err)
				}
				if err := p.Insert(rid, types.Row{types.Int(key), types.Int(0)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig17_MergeScan measures merged projection scans of a 4-data-
// column table under growing update ratios, PDT vs VDT, int vs string keys
// (Figure 17).
func BenchmarkFig17_MergeScan(b *testing.B) {
	for _, strKeys := range []bool{false, true} {
		for _, ratio := range []float64{0, 2.5} {
			for _, mode := range []table.DeltaMode{table.ModePDT, table.ModeVDT} {
				kt := "int"
				if strKeys {
					kt = "str"
				}
				name := fmt.Sprintf("keys=%s/upd=%.1f/%v", kt, ratio, mode)
				b.Run(name, func(b *testing.B) {
					cfg := bench.ScanConfig{
						Tuples: 100_000, DataCols: 4, KeyCols: 1,
						StringKeys: strKeys, UpdatesPer100: ratio,
						Mode: mode, BlockRows: 8192,
					}
					tbl, err := bench.BuildScanTable(cfg)
					if err != nil {
						b.Fatal(err)
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := bench.MeasureScan(tbl, cfg); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkFig18_MultiColumnKeys measures the same scan with 1- vs 4-column
// string keys (Figure 18: VDT merge cost grows with key arity and width;
// PDT cost does not).
func BenchmarkFig18_MultiColumnKeys(b *testing.B) {
	for _, keyCols := range []int{1, 4} {
		for _, mode := range []table.DeltaMode{table.ModePDT, table.ModeVDT} {
			name := fmt.Sprintf("keycols=%d/%v", keyCols, mode)
			b.Run(name, func(b *testing.B) {
				cfg := bench.ScanConfig{
					Tuples: 50_000, DataCols: 6 - keyCols, KeyCols: keyCols,
					StringKeys: true, UpdatesPer100: 1.5,
					Mode: mode, BlockRows: 8192,
				}
				tbl, err := bench.BuildScanTable(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := bench.MeasureScan(tbl, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig19_TPCH runs each of the 22 TPC-H queries under the three
// delta modes after two refresh streams (Figure 19's time panels; the I/O
// panels are printed by pdtbench -fig 19).
func BenchmarkFig19_TPCH(b *testing.B) {
	dbs := map[table.DeltaMode]*tpch.DB{}
	for _, mode := range []table.DeltaMode{table.ModeNone, table.ModeVDT, table.ModePDT} {
		db, err := tpch.Load(0.005, mode, true, 4096)
		if err != nil {
			b.Fatal(err)
		}
		if err := db.ApplyRefresh(2, 0.001); err != nil {
			b.Fatal(err)
		}
		dbs[mode] = db
	}
	for _, q := range tpch.Queries {
		for _, mode := range []table.DeltaMode{table.ModeNone, table.ModeVDT, table.ModePDT} {
			q, mode := q, mode
			b.Run(fmt.Sprintf("Q%02d/%v", q.ID, mode), func(b *testing.B) {
				db := dbs[mode]
				for i := 0; i < b.N; i++ {
					if _, err := q.Run(db); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkScanPipeline measures the engine read pipeline on lineitem:
// projected (2-column) vs full-width scans and the TPC-H Q1 scan path, with
// allocs/op reported (benchmark/ records the same pipeline end to end as
// q1_ms_p50, wide_mrows_per_s and engine.allocs_per_krow_*).
func BenchmarkScanPipeline(b *testing.B) {
	for _, mode := range []table.DeltaMode{table.ModeNone, table.ModePDT} {
		db, err := tpch.Load(0.005, mode, true, 4096)
		if err != nil {
			b.Fatal(err)
		}
		if err := db.ApplyRefresh(2, 0.001); err != nil {
			b.Fatal(err)
		}
		li := db.Lineitem
		allCols := make([]int, li.Schema().NumCols())
		for i := range allCols {
			allCols[i] = i
		}
		drain := func(b *testing.B, cols []int) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				err := engine.Scan(li, cols...).Run(func(*vector.Batch, []uint32) error { return nil })
				if err != nil {
					b.Fatal(err)
				}
			}
		}
		b.Run(fmt.Sprintf("projected-2col/%v", mode), func(b *testing.B) {
			drain(b, []int{tpch.LExtendedprice, tpch.LDiscount})
		})
		b.Run(fmt.Sprintf("full-width/%v", mode), func(b *testing.B) {
			drain(b, allCols)
		})
		b.Run(fmt.Sprintf("Q1/%v", mode), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tpch.Q1(db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_Fanout sweeps the PDT fanout (the paper fixes F=8 for
// cache-line alignment; this quantifies that choice).
func BenchmarkAblation_Fanout(b *testing.B) {
	schema := types.MustSchema([]types.Column{
		{Name: "k", Kind: types.Int64},
		{Name: "v", Kind: types.Int64},
	}, []int{0})
	for _, fanout := range []int{4, 8, 16, 32, 64} {
		b.Run(fmt.Sprintf("fanout=%d", fanout), func(b *testing.B) {
			p := pdt.New(schema, fanout)
			visible := int64(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rid := uint64(int64(i*6271) % visible)
				if err := p.Insert(rid, types.Row{types.Int(int64(i)), types.Int(0)}); err != nil {
					b.Fatal(err)
				}
				visible++
			}
		})
	}
}

// BenchmarkAblation_SerializePropagate measures the commit-path transforms.
func BenchmarkAblation_SerializePropagate(b *testing.B) {
	schema := types.MustSchema([]types.Column{
		{Name: "k", Kind: types.Int64},
		{Name: "v", Kind: types.Int64},
	}, []int{0})
	mkTxn := func(base int64) *pdt.PDT {
		p := pdt.New(schema, 0)
		for i := int64(0); i < 500; i++ {
			if err := p.Insert(uint64(i), types.Row{types.Int(base + i*2), types.Int(0)}); err != nil {
				b.Fatal(err)
			}
		}
		return p
	}
	tx := mkTxn(1_000_000)
	ty := mkTxn(9_000_000)
	b.Run("serialize-500v500", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := tx.Serialize(ty); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fold-500", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pdt.Fold(tx, ty); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWritePath measures the vectorized write path at smoke-test sizes:
// bulk vs per-entry propagate, the batched update API against row-at-a-time
// transactions, and the streaming checkpoint.
func BenchmarkWritePath(b *testing.B) {
	base, delta, err := bench.BuildPropagatePair(5_000, 1_000)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("propagate-bulk-1k-into-5k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := pdt.Fold(base, delta); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("propagate-entrywise-1k-into-5k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := base.Snapshot().Propagate(delta); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Table batches and checkpoints use the write-path workload generator
	// (bench.LoadUpdateTable / bench.MixedOps).
	b.Run("table-apply-batch-128", func(b *testing.B) {
		b.ReportAllocs()
		rng := rand.New(rand.NewSource(1))
		nextOdd := int64(1)
		var tbl *table.Table
		for i := 0; i < b.N; i++ {
			if i%16 == 0 {
				b.StopTimer()
				var err error
				if tbl, err = bench.LoadUpdateTable(5_000, 1024, table.ModePDT); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			if _, err := tbl.ApplyBatch(bench.MixedOps(rng, 5_000, 128, &nextOdd)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("checkpoint-5k", func(b *testing.B) {
		b.ReportAllocs()
		rng := rand.New(rand.NewSource(2))
		nextOdd := int64(1)
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			tbl, err := bench.LoadUpdateTable(5_000, 1024, table.ModePDT)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := tbl.ApplyBatch(bench.MixedOps(rng, 5_000, 256, &nextOdd)); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if err := tbl.Checkpoint(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
