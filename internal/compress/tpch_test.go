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
// the new encoders and the reference, compressed and not. Compressed, the
// decimal measures l_quantity, l_discount and l_tax encode as ScaledFloat;
// l_extendedprice, a product computed in floating point, has values that are
// not the nearest double of any short decimal, and stays plain.
func TestLineitemBlocksMatchReference(t *testing.T) {
	_, rows := tpch.NewGen(0.002, 1).OrdersAndLineitems()
	const blockRows = 4096
	blocks := 0
	floatScheme := map[string]compress.Scheme{"l_quantity": compress.ScaledFloat, "l_discount": compress.ScaledFloat,
		"l_tax": compress.ScaledFloat, "l_extendedprice": compress.PlainFloat}
	for c, col := range tpch.LineitemSchema.Cols {
		if want, ok := floatScheme[col.Name]; !ok && col.Kind == types.Float64 {
			t.Fatalf("float column %s has no expected scheme", col.Name)
		} else if ok && col.Kind != types.Float64 {
			t.Fatalf("%s is not a float column (want scheme %d)", col.Name, want)
		}
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
					got, want = compress.EncodeFloat64s(floats, compressed), compress.RefEncodeFloat64s(floats, compressed)
					if s := compress.BlockScheme(got); compressed && s != floatScheme[col.Name] {
						t.Errorf("%s rows [%d, %d): scheme %d, want %d", col.Name, from, from+len(block), s, floatScheme[col.Name])
					}
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
