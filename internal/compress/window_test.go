package compress

// RowExtent against the decoders: a decode of spans over a buffer holding
// only the bytes RowExtent named — every other byte poisoned — must yield
// what it yields over the whole block, for blocks the encoders wrote and for
// hostile bytes. That is what lets a point read decode from a recycled
// buffer holding only the pages its rows lie in.

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"
)

// poison fills every byte RowExtent did not name.
const poison = 0xA5

// checkRowExtent holds RowExtent to its contract over spans of buf: each
// stage, run over a buffer holding only buf's first extentHeader bytes and
// the ranges the stages before it named, names what it names over buf
// itself, inside the block; and every span decoder over a buffer holding
// only the ranges named yields what it yields over buf — the same values at
// the spans' positions, or the same ErrCorrupt.
func checkRowExtent(t testing.TB, buf []byte, spans []Span, size int) {
	t.Helper()
	view := bytes.Repeat([]byte{poison}, len(buf))
	copy(view, buf[:min(extentHeader, len(buf))])
	part := bytes.Repeat([]byte{poison}, len(buf))
	for stage := 0; ; stage++ {
		got, more := RowExtent(view, spans, stage, nil)
		want, wmore := RowExtent(buf, spans, stage, nil)
		if !slices.Equal(got, want) || more != wmore {
			t.Fatalf("spans %v stage %d: named %v (more %v) from the bytes named so far, %v (more %v) from the block", spans, stage, got, more, want, wmore)
		}
		for _, e := range got {
			if e.Lo < 0 || e.Lo >= e.Hi || e.Hi > len(buf) {
				t.Fatalf("spans %v stage %d: extent %v outside a block of %d bytes", spans, stage, e, len(buf))
			}
			copy(view[e.Lo:e.Hi], buf[e.Lo:e.Hi])
			copy(part[e.Lo:e.Hi], buf[e.Lo:e.Hi])
		}
		if !more {
			break
		}
		if stage == 3 {
			t.Fatalf("spans %v: more than 4 stages", spans)
		}
	}
	sameDecode(t, "int", spans, buf, part, size, DecodeInt64sSpans, func(a, b int64) bool { return a == b })
	sameDecode(t, "bool", spans, buf, part, size, DecodeBoolsSpans, func(a, b int64) bool { return a == b })
	sameDecode(t, "string", spans, buf, part, size, DecodeStringsSpans, func(a, b string) bool { return a == b })
	sameDecode(t, "float", spans, buf, part, size, DecodeFloat64sSpans, func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b)
	})
}

// sameDecode decodes spans of whole and of part and requires the same
// values, or the same ErrCorrupt.
func sameDecode[T any](t testing.TB, kind string, spans []Span, whole, part []byte, size int, decode func([]byte, []Span, []T) error, eq func(a, b T) bool) {
	t.Helper()
	want, got := make([]T, size), make([]T, size)
	werr, err := decode(whole, spans, want), decode(part, spans, got)
	switch {
	case (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error():
		t.Fatalf("%s spans %v: %v from the named bytes, %v from the block", kind, spans, err, werr)
	case err == nil && !slices.EqualFunc(got, want, eq):
		t.Fatalf("%s spans %v: %v from the named bytes, %v from the block", kind, spans, got, want)
	}
}

// extentCase cuts the window of n values from skip (through the block's end,
// at most 1<<14 values, when n < 0) into spans as cut picks, and checks them.
func extentCase(t testing.TB, buf []byte, skip, n int, cut uint64) {
	t.Helper()
	if n < 0 {
		n = min(BlockCount(buf), 1<<14) - skip
	}
	if skip < 0 || n < 0 || n > 1<<14 {
		return
	}
	spans, size := drawSpans(skip, n, cut)
	checkRowExtent(t, buf, spans, size)
}

// extentSeeds are small blocks of every written scheme, as the encoders
// write them: plain, ForInt (on a line and off it) and RLE ints, plain,
// scaled and lane floats, plain, framed and dictionary strings, and bools.
func extentSeeds() [][]byte {
	sorted, noisy, runs := make([]int64, 40), make([]int64, 40), make([]int64, 40)
	for i := range sorted {
		sorted[i] = int64(1000 + 7*i)
		noisy[i] = int64((i * 7919) % 613)
		runs[i] = int64(i / 13)
	}
	text, low := make([]string, 24), make([]string, 30)
	for i := range text {
		text[i] = fmt.Sprintf("note %d: %s", i, "xyzzy"[:i%6])
	}
	for i := range low {
		low[i] = []string{"AIR", "MAIL", "SHIP", "RAIL"}[i%4]
	}
	bools := make([]int64, 45)
	for i := range bools {
		bools[i] = int64(i % 3 & 1)
	}
	return [][]byte{
		EncodeInt64s(sorted, true), EncodeInt64s(noisy, true), EncodeInt64s(runs, true), EncodeInt64s(noisy[:9], false),
		EncodeFloat64s(laneCents(3), true), EncodeFloat64s([]float64{0.04, 0.07, 0.01, 0.1, 0.02}, true), EncodeFloat64s([]float64{1.5, math.Pi}, false),
		EncodeStrings(text, true), EncodeStrings(text[:5], false), EncodeStrings(low, true),
		EncodeBools(bools),
	}
}

// FuzzRowExtent fuzzes RowExtent against the decoders: a block — the bytes
// themselves, or (encode 1–4) the block the encoders write of ints, floats,
// strings or bools drawn from them — and one to three spans cut from a
// window of it.
func FuzzRowExtent(f *testing.F) {
	for _, buf := range extentSeeds() {
		f.Add(buf, uint8(0), int16(0), int16(-1), uint64(0))
		f.Add(buf, uint8(0), int16(3), int16(1), uint64(0x2a5))
		f.Add(buf[:len(buf)*2/3], uint8(0), int16(1), int16(-1), uint64(0x3c1e))
	}
	f.Add([]byte("some text\x00and more\x00\x00x"), uint8(3), int16(1), int16(2), uint64(7))
	f.Add([]byte{1, 2, 3, 200, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(2), int16(2), int16(3), uint64(11))
	f.Fuzz(func(t *testing.T, data []byte, encode uint8, skip, n int16, cut uint64) {
		extentCase(t, encodeFrom(encode, data), int(skip), int(n), cut)
	})
}

// encodeFrom is data itself (encode 0), or the block the encoders write of
// values drawn from it: ints as a running sum of signed bytes, floats as
// cents (a byte over 250 nudges its value one ULP), strings split at zero
// bytes, bools as bits.
func encodeFrom(encode uint8, data []byte) []byte {
	switch encode % 5 {
	case 1:
		vals, sum := make([]int64, len(data)), int64(0)
		for i, b := range data {
			sum += int64(int8(b)) * int64(1+i%3)
			vals[i] = sum
		}
		return EncodeInt64s(vals, true)
	case 2:
		vals := make([]float64, len(data)/2)
		for i := range vals {
			vals[i] = float64(int(data[2*i])<<8|int(data[2*i+1])) / 100
			if data[2*i] > 250 {
				vals[i] = math.Nextafter(vals[i], math.Inf(1))
			}
		}
		return EncodeFloat64s(vals, true)
	case 3:
		return EncodeStrings(strings0(data), true)
	case 4:
		vals := make([]int64, 8*len(data))
		for i := range vals {
			vals[i] = int64(data[i/8] >> (i % 8) & 1)
		}
		return EncodeBools(vals)
	}
	return data
}

func strings0(data []byte) []string {
	var out []string
	for _, s := range bytes.Split(data, []byte{0}) {
		out = append(out, string(s))
	}
	return out
}

// TestRowExtentHostile is the fuzz target's twin under go test: every seed
// block, a set of windows of it, whole and with each byte damaged or the
// tail cut.
func TestRowExtentHostile(t *testing.T) {
	for _, seed := range extentSeeds() {
		count := BlockCount(seed)
		windows := [][2]int{{0, -1}, {0, 0}, {0, 1}, {count - 1, 1}, {count / 2, 1}, {count / 3, 3}, {1, count - 2}, {count, 0}}
		for i, w := range windows {
			for _, cut := range []uint64{0, uint64(i), 0x2a5, 0x3c1e} {
				extentCase(t, seed, w[0], w[1], cut)
			}
		}
		for at := 0; at < len(seed); at++ {
			extentCase(t, seed[:at], 0, -1, uint64(at))
			for _, flip := range []byte{0x01, 0x80, 0xff} {
				bad := append([]byte(nil), seed...)
				bad[at] ^= flip
				for _, w := range windows[2:5] {
					extentCase(t, bad, w[0], w[1], uint64(at)*3+uint64(flip))
				}
			}
		}
	}
}

// ExtentCase is extentCase as package compress_test sees it.
var ExtentCase = extentCase
