package colstore_test

// The checkpoint builder's flush encodes a block's columns on up to
// GOMAXPROCS goroutines; the file it writes must not depend on how many.

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"pdtstore/internal/colstore"
	"pdtstore/internal/tpch"
	"pdtstore/internal/types"
	"pdtstore/internal/vector"
)

// lineitemBatches cuts TPC-H lineitem at sf, in its sort order, into
// schema-aligned batches of 1000 rows, so AddBatch crosses block boundaries
// mid-batch at any block size that is not a divisor of it.
func lineitemBatches(sf float64) (batches []*vector.Batch, rows int) {
	_, lineitems := tpch.NewGen(sf, 1).OrdersAndLineitems()
	kinds := make([]types.Kind, tpch.LineitemSchema.NumCols())
	for i, c := range tpch.LineitemSchema.Cols {
		kinds[i] = c.Kind
	}
	for from := 0; from < len(lineitems); from += 1000 {
		part := lineitems[from:min(from+1000, len(lineitems))]
		b := vector.NewBatch(kinds, len(part))
		for _, r := range part {
			b.AppendRow(r)
		}
		batches = append(batches, b)
	}
	return batches, len(lineitems)
}

// buildFile builds a compressed lineitem segment file at path from batches.
func buildFile(t testing.TB, batches []*vector.Batch, blockRows int, path string) {
	b, err := colstore.NewFileBuilder(tpch.LineitemSchema, nil, blockRows, true, path)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range batches {
		if err := b.AddBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	s, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
}

// TestBuildIsByteIdenticalAtAnyGOMAXPROCS: lineitem built at GOMAXPROCS 1
// (no helpers), 2 and 8 is the same file, byte for byte.
func TestBuildIsByteIdenticalAtAnyGOMAXPROCS(t *testing.T) {
	batches, _ := lineitemBatches(0.002)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want []byte
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		path := filepath.Join(t.TempDir(), "lineitem.seg")
		buildFile(t, batches, 1024, path)
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Fatalf("GOMAXPROCS %d: %d-byte file differs from the %d-byte file GOMAXPROCS 1 built", procs, len(got), len(want))
		}
	}
}

// BenchmarkBuildLineitem times a whole-image build, the work of a full
// checkpoint's builder: TPC-H lineitem SF 0.01 handed over in 1000-row
// batches to a memory builder of 4096-row blocks, through Finish.
func BenchmarkBuildLineitem(b *testing.B) {
	batches, rows := lineitemBatches(0.01)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bld := colstore.NewBuilder(tpch.LineitemSchema, nil, 4096, true)
		for _, batch := range batches {
			if err := bld.AddBatch(batch); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := bld.Finish(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
}
