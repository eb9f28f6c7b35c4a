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
// l_extendedprice, a product computed in floating point whose values are
// often one ULP beside the nearest double of their cents, encodes as
// ScaledFloat with a lane; l_comment, near-distinct text, stores its offsets
// framed.
func TestLineitemBlocksMatchReference(t *testing.T) {
	_, rows := tpch.NewGen(0.002, 1).OrdersAndLineitems()
	const blockRows = 4096
	blocks := 0
	type want struct {
		scheme compress.Scheme
		lane   bool
	}
	floatScheme := map[string]want{"l_quantity": {compress.ScaledFloat, false}, "l_discount": {compress.ScaledFloat, false},
		"l_tax": {compress.ScaledFloat, false}, "l_extendedprice": {compress.ScaledFloat, true}}
	strScheme := map[string]compress.Scheme{"l_comment": compress.FramedString}
	for c, col := range tpch.LineitemSchema.Cols {
		if want, ok := floatScheme[col.Name]; !ok && col.Kind == types.Float64 {
			t.Fatalf("float column %s has no expected scheme", col.Name)
		} else if ok && col.Kind != types.Float64 {
			t.Fatalf("%s is not a float column (want scheme %d)", col.Name, want.scheme)
		}
		if _, ok := strScheme[col.Name]; ok && col.Kind != types.String {
			t.Fatalf("%s is not a string column", col.Name)
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
					w := floatScheme[col.Name]
					if s, lane := compress.BlockScheme(got), compress.ScaledLane(got); compressed && (s != w.scheme || lane != w.lane) {
						t.Errorf("%s rows [%d, %d): scheme %d (lane %v), want %d (lane %v)", col.Name, from, from+len(block), s, lane, w.scheme, w.lane)
					}
				case types.String:
					got, want = compress.EncodeStrings(strs, compressed), compress.RefEncodeStrings(strs, compressed)
					if w, ok := strScheme[col.Name]; ok && compressed && compress.BlockScheme(got) != w {
						t.Errorf("%s rows [%d, %d): scheme %d, want %d", col.Name, from, from+len(block), compress.BlockScheme(got), w)
					}
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

// TestRowExtentLineitem runs the check over every column block of TPC-H
// lineitem at SF 0.002 in 4096-row blocks, the blocks a cold probe reads by
// pages: single rows at word and page boundaries, a 16-row window, and spans
// cut from them. A probe's row lies in a few pages of the larger blocks.
func TestRowExtentLineitem(t *testing.T) {
	_, rows := tpch.NewGen(0.002, 1).OrdersAndLineitems()
	const blockRows = 4096
	for c, col := range tpch.LineitemSchema.Cols {
		for from := 0; from < len(rows); from += blockRows {
			block := rows[from:min(from+blockRows, len(rows))]
			var buf []byte
			switch col.Kind {
			case types.Float64:
				vals := make([]float64, len(block))
				for i, r := range block {
					vals[i] = r[c].F
				}
				buf = compress.EncodeFloat64s(vals, true)
			case types.String:
				vals := make([]string, len(block))
				for i, r := range block {
					vals[i] = r[c].S
				}
				buf = compress.EncodeStrings(vals, true)
			default:
				vals := make([]int64, len(block))
				for i, r := range block {
					vals[i] = r[c].I
				}
				buf = compress.EncodeInt64s(vals, true)
			}
			n := len(block)
			for _, r := range []int{0, 1, 63, 64, 65, n / 3, n / 2, n - 2, n - 1} {
				compress.ExtentCase(t, buf, r, 1, 0)
				compress.ExtentCase(t, buf, r, min(16, n-r), uint64(r))
			}
			if col.Name == "l_comment" && n == blockRows {
				ext, _ := compress.RowExtent(buf, []compress.Span{{Row: n / 2, N: 1}}, 0, nil)
				ext, _ = compress.RowExtent(buf, []compress.Span{{Row: n / 2, N: 1}}, 1, ext)
				named := 0
				for _, e := range ext {
					named += e.Hi - e.Lo
				}
				if named > 200 {
					t.Errorf("one l_comment row names %d bytes of a %d-byte block: %v", named, len(buf), ext)
				}
			}
		}
	}
}

var stringSink []string

// BenchmarkDecodeStrings decodes a block of lineitem's l_comment whole into a
// reused buffer: its offsets framed (the compressed store's block) and plain
// (the uncompressed one's).
func BenchmarkDecodeStrings(b *testing.B) {
	_, rows := tpch.NewGen(0.002, 1).OrdersAndLineitems()
	c := tpch.LineitemSchema.ColIndex("l_comment")
	vals := make([]string, 4096)
	size := 0
	for i := range vals {
		vals[i] = rows[i][c].S
		size += len(vals[i])
	}
	for _, enc := range []struct {
		name     string
		compress bool
		scheme   compress.Scheme
	}{{"l_comment/framed", true, compress.FramedString}, {"l_comment/plain", false, compress.PlainString}} {
		b.Run(enc.name, func(b *testing.B) {
			buf := compress.EncodeStrings(vals, enc.compress)
			if s := compress.BlockScheme(buf); s != enc.scheme {
				b.Fatalf("scheme %d, want %d", s, enc.scheme)
			}
			dst := make([]string, 0, len(vals))
			b.ReportAllocs()
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				stringSink, _ = compress.DecodeStrings(buf, dst)
			}
		})
	}
}
