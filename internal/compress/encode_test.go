package compress

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// intBlocks are generated blocks covering every arm of the int sizing pass:
// each scheme winning, ties, RLE's early exit once it reaches the best size,
// the line against the plain frame (winning, losing, descending, at the 2^31
// span limit on both sides), every residual width, varint width boundaries
// and wrapping residuals.
func intBlocks() map[string][]int64 {
	rng := rand.New(rand.NewSource(21))
	blocks := map[string][]int64{
		"empty":     {},
		"one":       {42},
		"one-neg":   {-1},
		"two-equal": {7, 7}, // delta and RLE tie below plain: delta stays
		"two":       {math.MinInt64, math.MaxInt64},
		"extremes":  {math.MaxInt64, math.MinInt64, 0, -1, 1, math.MaxInt64, math.MaxInt64},
		"one-zero":  {0},
	}
	sorted := make([]int64, 4096)
	runs := make([]int64, 4096)
	neg := make([]int64, 4096)
	full := make([]int64, 4096)
	widths := make([]int64, 0, 640)
	mixed := make([]int64, 4096)
	for i := range sorted {
		sorted[i] = 1_000_000 + int64(i)*3
		runs[i] = int64(9000 + i/500)
		neg[i] = -int64(i)*1000 - rng.Int63n(1000)
		full[i] = int64(rng.Uint64())
		mixed[i] = full[i]
		if i > 64 { // a full-range head, then runs: RLE stays under plain late
			mixed[i] = 5
		}
	}
	for w := 0; w < 64; w++ { // every zigzag varint width, both signs
		for _, d := range []int64{-1, 0, 1} {
			widths = append(widths, int64(1)<<w+d, -(int64(1)<<w)+d)
		}
	}
	blocks["sorted"], blocks["runs"], blocks["negatives"] = sorted, runs, neg
	blocks["full-range"], blocks["widths"], blocks["mixed"] = full, widths, mixed
	noisy, down, under, over, top := make([]int64, 4096), make([]int64, 4096), make([]int64, 512), make([]int64, 512), make([]int64, 512)
	for i := range noisy {
		noisy[i] = 7_000_000 + int64(i)*37/10 + rng.Int63n(64) // orderkey-like: line + 6 bits
		down[i] = 1<<40 - int64(i)*1001 + rng.Int63n(3)
	}
	for i := range under {
		// spans of 2^31 - 1 (the line is tried) and 2^31 (it is not)
		under[i] = int64(i) * (1<<31 - 1) / 511
		over[i] = int64(i) * (1 << 31) / 511
		top[i] = math.MaxInt64 - int64(511-i)*5 // residuals wrap past MaxInt64 from the line
	}
	blocks["noisy-line"], blocks["descending"] = noisy, down
	blocks["span-under"], blocks["span-over"], blocks["near-max"] = under, over, top
	blocks["constant"] = make([]int64, 4096)
	blocks["bools"] = make([]int64, 1000)
	for i := range blocks["bools"] {
		blocks["bools"][i] = int64(rng.Intn(2))
	}
	return blocks
}

func stringBlocks() map[string][]string {
	rng := rand.New(rand.NewSource(22))
	blocks := map[string][]string{
		"empty":       {},
		"one":         {"x"},
		"one-empty":   {""},
		"two-equal":   {"ab", "ab"},
		"two":         {"ab", "cd"},
		"all-empty":   make([]string, 300),
		"long":        {strings.Repeat("q", 200), strings.Repeat("q", 200), strings.Repeat("r", 127), strings.Repeat("r", 128)},
		"plain-wins":  {strings.Repeat("a", 20000)}, // a 3-byte length varint + the dict count outweigh one offset
		"nul-and-utf": {"\x00", "", "\x00\x00", "é", "\x00"},
	}
	distinct := make([]string, 4096)
	lowCard := make([]string, 4096)
	someEmpty := make([]string, 4096)
	big := make([]string, 20000) // past the two-byte code boundary at 16384
	flags := []string{"A", "N", "R", ""}
	for i := range distinct {
		distinct[i] = fmt.Sprintf("comment %d %x", i, rng.Int63())
		lowCard[i] = flags[rng.Intn(len(flags))]
		if rng.Intn(3) > 0 {
			someEmpty[i] = fmt.Sprintf("v%d", rng.Intn(200))
		}
	}
	for i := range big {
		big[i] = fmt.Sprintf("k%d", i)
	}
	blocks["all-distinct"], blocks["low-cardinality"] = distinct, lowCard
	blocks["some-empty"], blocks["20000-distinct"] = someEmpty, big
	return blocks
}

// checkBlock holds an encoder to its reference byte for byte, in an exactly
// sized buffer, and round-trips a set of windows through its span decoder,
// each window one span.
func checkBlock[T comparable](t testing.TB, vals []T, enc, ref func([]T, bool) []byte, spans func([]byte, []Span, []T) error) {
	t.Helper()
	for _, compress := range []bool{true, false} {
		got, want := enc(vals, compress), ref(vals, compress)
		if !bytes.Equal(got, want) {
			t.Fatalf("%d %T values, compress=%v: scheme %d, %d bytes; reference scheme %d, %d bytes",
				len(vals), *new(T), compress, BlockScheme(got), len(got), BlockScheme(want), len(want))
		}
		if cap(got) != len(got) {
			t.Fatalf("%T block of %d bytes in a buffer of %d", *new(T), len(got), cap(got))
		}
		for _, w := range [][2]int{{0, -1}, {0, len(vals)}, {len(vals) / 2, -1}, {len(vals) / 3, len(vals) / 3}, {len(vals), 0}} {
			out, err := decodeWindow(got, w[0], w[1], nil, spans)
			end := len(vals)
			if w[1] >= 0 {
				end = w[0] + w[1]
			}
			if err != nil || !slices.Equal(out, vals[w[0]:end]) {
				t.Fatalf("decode %T (compress=%v, skip=%d, n=%d): err=%v, %d values", *new(T), compress, w[0], w[1], err, len(out))
			}
		}
	}
}

func checkIntBlock(t testing.TB, vals []int64) {
	t.Helper()
	checkBlock(t, vals, EncodeInt64s, refEncodeInt64s, DecodeInt64sSpans)
}

func checkStringBlock(t testing.TB, vals []string) {
	t.Helper()
	checkBlock(t, vals, EncodeStrings, refEncodeStrings, DecodeStringsSpans)
}

// TestEncodersMatchReference is the differential: the decide-then-write
// encoders produce exactly the bytes of the build-all-keep-one reference.
func TestEncodersMatchReference(t *testing.T) {
	for name, vals := range intBlocks() {
		t.Run("int/"+name, func(t *testing.T) {
			checkIntBlock(t, vals)
			if got, want := EncodeBools(vals), refEncodeBools(vals); !bytes.Equal(got, want) {
				t.Fatalf("EncodeBools differs from reference (%d vs %d bytes)", len(got), len(want))
			}
			floats := make([]float64, len(vals))
			for i, v := range vals {
				floats[i] = math.Float64frombits(uint64(v)) // NaNs and infinities included
			}
			if got, want := EncodeFloat64s(floats), refEncodeFloat64s(floats); !bytes.Equal(got, want) {
				t.Fatalf("EncodeFloat64s differs from reference (%d vs %d bytes)", len(got), len(want))
			}
		})
	}
	for name, vals := range stringBlocks() {
		t.Run("string/"+name, func(t *testing.T) { checkStringBlock(t, vals) })
	}
	// The generated blocks reach every scheme, so every writer was compared.
	ints, strs := intBlocks(), stringBlocks()
	for name, want := range map[string]Scheme{"sorted": ForInt, "noisy-line": ForInt, "descending": ForInt, "runs": RLEInt, "full-range": PlainInt, "mixed": RLEInt} {
		if got := BlockScheme(EncodeInt64s(ints[name], true)); got != want {
			t.Errorf("int block %q encodes as scheme %d, want %d", name, got, want)
		}
	}
	// The line is taken where it packs narrower, and only then.
	for name, want := range map[string]bool{"sorted": true, "noisy-line": true, "descending": true, "span-under": true, "span-over": false, "negatives": true} {
		enc := EncodeInt64s(ints[name], true)
		if hasLine := BlockScheme(enc) == ForInt && binary.LittleEndian.Uint64(enc[headerSize+8:]) != 0; hasLine != want {
			t.Errorf("int block %q (scheme %d): line taken = %v, want %v", name, BlockScheme(enc), hasLine, want)
		}
	}
	for name, want := range map[string]Scheme{"low-cardinality": PackedDict, "some-empty": PackedDict, "all-distinct": PlainString, "plain-wins": PlainString, "empty": PlainString} {
		if got := BlockScheme(EncodeStrings(strs[name], true)); got != want {
			t.Errorf("string block %q encodes as scheme %d, want %d", name, got, want)
		}
	}
	rng := rand.New(rand.NewSource(23))
	for round := 0; round < 300; round++ { // random run structure, magnitude and cardinality
		n := rng.Intn(600)
		ints, strs := make([]int64, n), make([]string, n)
		mag, runLen, card := uint(rng.Intn(64)), 1+rng.Intn(40), 1+rng.Intn(n+1)
		for i := range ints {
			if i > 0 && rng.Intn(runLen) > 0 {
				ints[i], strs[i] = ints[i-1], strs[i-1]
				continue
			}
			ints[i] = int64(rng.Uint64()>>mag) - int64(uint64(1)<<(63-mag))
			strs[i] = strings.Repeat("s", rng.Intn(3)) + fmt.Sprint(rng.Intn(card))
		}
		checkIntBlock(t, ints)
		checkStringBlock(t, strs)
	}
}

// fuzzInts reads data as little-endian int64s; shape picks how they are laid
// out, so the fuzzer reaches sorted and run-heavy blocks as easily as noise.
func fuzzInts(data []byte, shape uint8) []int64 {
	vals := make([]int64, 0, len(data)/8*int(1+shape>>4))
	for ; len(data) >= 8; data = data[8:] {
		v := int64(binary.LittleEndian.Uint64(data))
		switch shape & 3 {
		case 1: // small steps from the previous value
			if len(vals) > 0 {
				v = vals[len(vals)-1] + v%1024
			}
		case 2: // small magnitudes
			v %= 1 << 14
		}
		for r := 0; r <= int(shape>>4); r++ { // runs of shape>>4 + 1
			vals = append(vals, v)
		}
	}
	return vals
}

func FuzzEncodeInt64s(f *testing.F) {
	for _, vals := range intBlocks() {
		raw := make([]byte, 8*min(len(vals), 64))
		for i := range len(raw) / 8 {
			binary.LittleEndian.PutUint64(raw[8*i:], uint64(vals[i]))
		}
		f.Add(raw, uint8(0))
		f.Add(raw, uint8(0x31))
	}
	f.Fuzz(func(t *testing.T, data []byte, shape uint8) {
		checkIntBlock(t, fuzzInts(data, shape))
	})
}

// fuzzStrings cuts data into values at every sep byte, keeping at most card
// distinct ones (card 0: all of them), so the fuzzer reaches both sides of
// the dictionary decision.
func fuzzStrings(data []byte, sep, card uint8) []string {
	var vals []string
	for _, part := range bytes.Split(data, []byte{sep}) {
		if card > 0 && len(vals) >= int(card) {
			part = []byte(vals[len(part)%int(card)])
		}
		vals = append(vals, string(part))
	}
	return vals
}

func FuzzEncodeStrings(f *testing.F) {
	f.Add([]byte("A,N,R,,A,A,N"), uint8(','), uint8(0))
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint8(' '), uint8(3))
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Add(bytes.Repeat([]byte{0, 1}, 200), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, sep, card uint8) {
		checkStringBlock(t, fuzzStrings(data, sep, card))
	})
}

// TestEncodeAllocs guards the point of sizing before writing: a block is one
// exactly sized allocation, plus the dictionary pass's scratch for strings.
func TestEncodeAllocs(t *testing.T) {
	ints, strs := intBlocks(), stringBlocks()
	floats := make([]float64, 4096)
	cases := []struct {
		name string
		max  float64
		fn   func()
	}{
		{"int/sorted", 1, func() { EncodeInt64s(ints["sorted"], true) }},
		{"int/runs", 1, func() { EncodeInt64s(ints["runs"], true) }},
		{"int/full-range", 1, func() { EncodeInt64s(ints["full-range"], true) }},
		{"int/uncompressed", 1, func() { EncodeInt64s(ints["sorted"], false) }},
		{"float", 1, func() { EncodeFloat64s(floats) }},
		{"bool", 1, func() { EncodeBools(ints["bools"]) }},
		{"string/all-distinct", 4, func() { EncodeStrings(strs["all-distinct"], true) }},
		{"string/low-cardinality", 4, func() { EncodeStrings(strs["low-cardinality"], true) }},
		{"string/uncompressed", 4, func() { EncodeStrings(strs["all-distinct"], false) }},
	}
	for _, c := range cases {
		if got := testing.AllocsPerRun(20, c.fn); got > c.max {
			t.Errorf("%s: %.0f allocations per block, want <= %.0f", c.name, got, c.max)
		}
	}
}

var encodeSink []byte

func BenchmarkEncodeInt64s(b *testing.B) {
	blocks := intBlocks()
	for _, name := range []string{"sorted", "runs", "full-range"} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(8 * len(blocks[name])))
			for i := 0; i < b.N; i++ {
				encodeSink = EncodeInt64s(blocks[name], true)
			}
		})
	}
}

func BenchmarkEncodeStrings(b *testing.B) {
	blocks := stringBlocks()
	for _, name := range []string{"low-cardinality", "all-distinct"} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				encodeSink = EncodeStrings(blocks[name], true)
			}
		})
	}
}

func BenchmarkEncodeFloat64s(b *testing.B) {
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = float64(i) / 7
	}
	b.ReportAllocs()
	b.SetBytes(int64(8 * len(vals)))
	for i := 0; i < b.N; i++ {
		encodeSink = EncodeFloat64s(vals)
	}
}
