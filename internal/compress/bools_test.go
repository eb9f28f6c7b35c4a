package compress

import (
	"errors"
	"slices"
	"testing"

	"pdtstore/internal/vector"
)

// FuzzBools feeds hostile bytes to the bool kernels: DecodeBools over the
// whole block, and DecodeBoolsSpans, SelectBools and GatherBoolsAt over the
// window of n values from skip (n < 0: through the end). Each call returns
// an error wrapping ErrCorrupt or exactly the bits the block holds, and
// never panics.
func FuzzBools(f *testing.F) {
	for _, vals := range [][]int64{nil, {1}, {1, 0, 1, 1, 0, 0, 0, 1, 1, 0, 1}} {
		buf := EncodeBools(vals)
		f.Add(buf, int16(0), int16(-1), true)
		f.Add(buf[:len(buf)-1], int16(1), int16(2), false)
	}
	// An RLE block of 2^31 ones: DecodeBools must refuse it before it
	// allocates for the count.
	f.Add([]byte{byte(RLEInt), 0, 0, 0, 0x80, 2, 0x80, 0x80, 0x80, 0x80, 8}, int16(0), int16(-1), true)
	f.Fuzz(func(t *testing.T, buf []byte, skip16, n16 int16, keep1 bool) {
		checkBools(t, buf, int(skip16), int(n16), keep1)
	})
}

func checkBools(t *testing.T, buf []byte, skip, n int, keep1 bool) {
	var bits []int64 // the block's values; nil unless it is a whole bool block
	if scheme, count, body, err := readHeader(buf); err == nil && scheme == BitBool && len(body) >= (count+7)/8 {
		bits = make([]int64, count)
		for i := range bits {
			bits[i] = int64(body[i/8] >> (i % 8) & 1)
		}
	}
	ok := func(what string, err error) bool {
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: %v does not wrap ErrCorrupt", what, err)
		}
		return err == nil
	}
	if got, err := DecodeBools(buf, nil); ok("DecodeBools", err) && (bits == nil || !slices.Equal(got, bits)) {
		t.Fatalf("DecodeBools = %v, want %v", got, bits)
	}
	if n < 0 {
		n = len(bits) - skip
	}
	var win []int64 // the window's values; nil when the window is out of the block
	if bits != nil && skip >= 0 && n >= 0 && skip+n <= len(bits) {
		win = bits[skip : skip+n]
	}
	dst := make([]int64, max(n, 0))
	if err := DecodeBoolsSpans(buf, []Span{{Row: skip, N: n}}, dst); ok("DecodeBoolsSpans", err) && (win == nil || !slices.Equal(dst, win)) {
		t.Fatalf("DecodeBoolsSpans(%d, %d) = %v, want %v", skip, n, dst, win)
	}
	want := int64(0)
	if keep1 {
		want = 1
	}
	var sel, rows, pos []uint32
	for i, v := range win {
		if v == want {
			sel = append(sel, uint32(i))
		}
		if i%2 == 0 {
			rows, pos = append(rows, uint32(i)), append(pos, uint32(len(pos)))
		}
	}
	got, err := SelectBools(buf, skip, n, vector.Pred{Op: vector.PredInt64Range, ILo: want, IHi: want}, nil)
	if ok("SelectBools", err) && (win == nil || !slices.Equal(got, sel)) {
		t.Fatalf("SelectBools(%d, %d, %d) = %v, want %v", skip, n, want, got, sel)
	}
	gathered := make([]int64, len(rows))
	if err := GatherBoolsAt(buf, skip, rows, pos, gathered); ok("GatherBoolsAt", err) {
		for k, r := range rows {
			if win == nil || gathered[k] != win[r] {
				t.Fatalf("GatherBoolsAt(%d) row %d = %d, want %v", skip, r, gathered[k], win)
			}
		}
	}
}
