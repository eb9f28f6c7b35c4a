package compress_test

import (
	"bytes"
	"testing"

	"pdtstore/internal/compress"
	"pdtstore/internal/tpch"
	"pdtstore/internal/types"
)

// TestLineitemBlocksMatchReference sweeps every column block of TPC-H
// lineitem at SF 0.002 — the data every recorded checkpoint encodes — through
// the new encoders and the reference, compressed and not.
func TestLineitemBlocksMatchReference(t *testing.T) {
	_, rows := tpch.NewGen(0.002, 1).OrdersAndLineitems()
	const blockRows = 4096
	blocks := 0
	for c, col := range tpch.LineitemSchema.Cols {
		for from := 0; from < len(rows); from += blockRows {
			block := rows[from:min(from+blockRows, len(rows))]
			ints, floats, strs := make([]int64, len(block)), make([]float64, len(block)), make([]string, len(block))
			for i, r := range block {
				ints[i], floats[i], strs[i] = r[c].I, r[c].F, r[c].S
			}
			for _, compressed := range []bool{true, false} {
				var got, want []byte
				switch col.Kind {
				case types.Float64:
					got, want = compress.EncodeFloat64s(floats), compress.RefEncodeFloat64s(floats)
				case types.String:
					got, want = compress.EncodeStrings(strs, compressed), compress.RefEncodeStrings(strs, compressed)
				case types.Bool:
					got, want = compress.EncodeBools(ints), compress.RefEncodeBools(ints)
				default:
					got, want = compress.EncodeInt64s(ints, compressed), compress.RefEncodeInt64s(ints, compressed)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s rows [%d, %d) compressed=%v: scheme %d, %d bytes; reference scheme %d, %d bytes",
						col.Name, from, from+len(block), compressed, compress.BlockScheme(got), len(got), compress.BlockScheme(want), len(want))
				}
			}
			blocks++
		}
	}
	if blocks < 3*len(tpch.LineitemSchema.Cols) {
		t.Fatalf("swept %d blocks of %d rows: too few to mean anything", blocks, len(rows))
	}
}
