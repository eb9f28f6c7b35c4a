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

// lineitemFloats are 4096-value blocks shaped like TPC-H lineitem's float
// columns, drawn as its generator draws them: l_quantity whole numbers 1..50,
// l_discount hundredths 0..0.10, l_tax hundredths 0..0.08, and
// l_extendedprice, a product computed in floating point that is often not the
// nearest double of any short decimal.
func lineitemFloats() map[string][]float64 {
	rng := rand.New(rand.NewSource(24))
	qty, disc, tax, price := make([]float64, 4096), make([]float64, 4096), make([]float64, 4096), make([]float64, 4096)
	for i := range qty {
		qty[i] = float64(rng.Intn(50) + 1)
		price[i] = (900 + float64(rng.Intn(1000))/10) * qty[i] / 10
		disc[i] = float64(rng.Intn(11)) / 100
		tax[i] = float64(rng.Intn(9)) / 100
	}
	return map[string][]float64{"quantity": qty, "discount": disc, "tax": tax, "extendedprice": price}
}

// floatBlocks are generated blocks covering every arm of the float encoder:
// decimal blocks at each digit count, widths 0 through wide, a stray value
// in a decimal block (first, middle, last), the values no digit count takes
// (−0, NaN, ±Inf, subnormals, more than 4 decimals), integers at the edge of
// the range, and a block that fits but is no smaller than plain.
func floatBlocks() map[string][]float64 {
	blocks := map[string][]float64{
		"empty":      {},
		"one":        {2.5},
		"one-zero":   {0},
		"neg-zero":   {1, 2, math.Copysign(0, -1), 3},
		"nan":        {1, math.NaN(), 2},
		"inf":        {math.Inf(-1), 1, 2},
		"subnormal":  {0, 5e-324, 1},
		"five-digit": {0.12345, 0.5},
		"tie":        {0.5, 1.5, 2.5, 3.5}, // k = 0 rounds the halves to even and misses
		"no-smaller": {0.1},                // 15 bytes scaled against 13 plain
		"limit-in":   slices.Repeat([]float64{(1<<51 - 1) / 1e4, 0, 12.3456}, 20),
		"limit-neg":  slices.Repeat([]float64{-(1<<51 - 1) / 1e4, 0, -12.3456}, 20),
		"limit-wide": slices.Repeat([]float64{(1<<51 - 1) / 1e4, -(1<<51 - 1) / 1e4, 0}, 20), // the frame would leave the range
		"limit-out":  {1 << 51, 0},
		"limit-52":   {1<<52 - 1, 3},
		"constant":   slices.Repeat([]float64{0.07}, 4096),
	}
	for name, vals := range lineitemFloats() {
		blocks[name] = vals
	}
	rng := rand.New(rand.NewSource(25))
	for k := range 5 {
		vals := make([]float64, 1000)
		for i := range vals {
			vals[i] = float64(rng.Int63n(2_000_000)-1_000_000) / math.Pow10(k)
		}
		blocks[fmt.Sprintf("k%d", k)] = vals
		for _, at := range []int{0, 500, 999} {
			stray := slices.Clone(vals)
			stray[at] = 1.0 / 3
			blocks[fmt.Sprintf("k%d-stray-%d", k, at)] = stray
		}
	}
	return blocks
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// scaledFits reports whether ScaledFloat can hold vals: some digit count
// takes every value back through the decoder's function, and the block it
// makes is strictly smaller than plain.
func scaledFits(vals []float64) bool {
	for k := range 5 {
		if blk, ok := encodeScaledFloat(vals, k); ok {
			return len(blk) < headerSize+8*len(vals)
		}
	}
	return false
}

// checkFloatBlock holds the float encoder to its reference byte for byte, in
// an exactly sized buffer, for both compress flags, holds its scheme choice
// to scaledFits, and reads every block back bit for bit: whole, through span
// decodes of windows cut into scattered spans, and through gathers.
func checkFloatBlock(t testing.TB, vals []float64) {
	t.Helper()
	for _, compress := range []bool{true, false} {
		got, want := EncodeFloat64s(vals, compress), refEncodeFloat64s(vals, compress)
		if !bytes.Equal(got, want) {
			t.Fatalf("%d floats, compress=%v: scheme %d, %d bytes; reference scheme %d, %d bytes",
				len(vals), compress, BlockScheme(got), len(got), BlockScheme(want), len(want))
		}
		if cap(got) != len(got) {
			t.Fatalf("float block of %d bytes in a buffer of %d", len(got), cap(got))
		}
		if scaled := BlockScheme(got) == ScaledFloat; scaled != (compress && scaledFits(vals)) {
			t.Fatalf("%d floats, compress=%v: ScaledFloat = %v, want %v", len(vals), compress, scaled, !scaled)
		}
		whole, err := DecodeFloat64s(got, nil)
		if err != nil || !sameBits(whole, vals) {
			t.Fatalf("scheme %d whole decode: %v (%v), want %v", BlockScheme(got), whole, err, vals)
		}
		for _, seed := range []uint64{0, 0x1201, 0x3407, 0x550f} {
			skip := int(seed % uint64(len(vals)+1))
			spans, size := windowSpans(skip, len(vals)-skip, seed)
			dst := slices.Repeat([]float64{-1e300}, size)
			if err := DecodeFloat64sSpans(got, spans, dst); err != nil {
				t.Fatalf("scheme %d span decode %v: %v", BlockScheme(got), spans, err)
			}
			for _, sp := range spans {
				if !sameBits(dst[sp.At:sp.At+sp.N], vals[sp.Row:sp.Row+sp.N]) {
					t.Fatalf("scheme %d span %+v: %v, want %v", BlockScheme(got), sp, dst[sp.At:sp.At+sp.N], vals[sp.Row:sp.Row+sp.N])
				}
			}
			rows, pos := gatherRows(len(vals)-skip, seed)
			dst = make([]float64, lastPos(pos))
			if err := GatherFloat64sAt(got, skip, rows, pos, dst); err != nil {
				t.Fatalf("scheme %d gather: %v", BlockScheme(got), err)
			}
			for i, r := range rows {
				if g, w := dst[pos[i]], vals[skip+int(r)]; math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("scheme %d gather row %d: %v, want %v", BlockScheme(got), skip+int(r), g, w)
				}
			}
		}
	}
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
			checkFloatBlock(t, floats)
			for i, v := range vals { // the same integers as hundredths
				floats[i] = float64(v%1e12) / 100
			}
			checkFloatBlock(t, floats)
		})
	}
	for name, vals := range floatBlocks() {
		t.Run("float/"+name, func(t *testing.T) { checkFloatBlock(t, vals) })
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
	floats := floatBlocks()
	for name, want := range map[string]Scheme{"quantity": ScaledFloat, "discount": ScaledFloat, "tax": ScaledFloat, "extendedprice": PlainFloat,
		"constant": ScaledFloat, "k0": ScaledFloat, "k4": ScaledFloat, "k2-stray-999": PlainFloat, "tie": ScaledFloat, "limit-in": ScaledFloat,
		"limit-neg": ScaledFloat, "limit-wide": PlainFloat, "limit-out": PlainFloat, "neg-zero": PlainFloat, "nan": PlainFloat, "no-smaller": PlainFloat} {
		if got := BlockScheme(EncodeFloat64s(floats[name], true)); got != want {
			t.Errorf("float block %q encodes as scheme %d, want %d", name, got, want)
		}
	}
	for name, want := range map[string]byte{"quantity": 0, "discount": 2, "tax": 2, "tie": 1, "k3": 3} {
		if enc := EncodeFloat64s(floats[name], true); BlockScheme(enc) != ScaledFloat || enc[headerSize+8] != want {
			t.Errorf("float block %q: scheme %d, digit count %d; want %d", name, BlockScheme(enc), enc[headerSize+8], want)
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

// fuzzFloats reads data as 8-byte little-endian words; shape picks how each
// becomes a float, so the fuzzer reaches both sides of the scaled encoder's
// decision as easily as raw bit patterns:
//
//   - 0: the word's bit pattern (NaN payloads, subnormals, −0, ±Inf);
//   - 1: a decimal, the word's low 8·(1 + shape>>5) bits over 10^k;
//   - 2: a decimal whose integer lies within 255 of ±2^51 or ±2^52;
//   - 3: decimals as 1, with the value at the first word's index replaced by
//     its bit pattern — one stray in a decimal block.
//
// k is (shape>>2)&7, which past 4 is a digit count no block can carry.
func fuzzFloats(data []byte, shape uint8) []float64 {
	k, bitsKept := int(shape>>2&7), 8*(1+uint(shape>>5))
	vals := make([]float64, 0, len(data)/8)
	for p := 0; p+8 <= len(data); p += 8 {
		u := binary.LittleEndian.Uint64(data[p:])
		switch shape & 3 {
		case 0:
			vals = append(vals, math.Float64frombits(u))
		case 2:
			edge := int64(1) << (51 + u>>8&1)
			if u>>9&1 == 1 {
				edge = -edge
			}
			vals = append(vals, float64(edge+int64(int8(u)))/math.Pow10(k))
		default:
			n := int64(u<<(64-bitsKept)) >> (64 - bitsKept)
			vals = append(vals, float64(n)/math.Pow10(k))
		}
	}
	if shape&3 == 3 && len(vals) > 0 {
		u := binary.LittleEndian.Uint64(data)
		vals[u%uint64(len(vals))] = math.Float64frombits(u)
	}
	return vals
}

func FuzzEncodeFloat64s(f *testing.F) {
	raw := func(vals ...float64) []byte {
		out := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
		}
		return out
	}
	words := func(us ...uint64) []byte {
		out := make([]byte, 8*len(us))
		for i, u := range us {
			binary.LittleEndian.PutUint64(out[8*i:], u)
		}
		return out
	}
	f.Add(words(0x7ff8000000000001, 0xfff4000000000000, 1, 0x000fffffffffffff, 0x8000000000000000, 0x7ff0000000000000), uint8(0))
	f.Add(raw(0.01, 0.02, 0.1, 0.05, 0), uint8(0))
	for _, name := range []string{"quantity", "discount", "extendedprice", "k4-stray-500", "limit-in", "tie"} {
		vals := floatBlocks()[name]
		f.Add(raw(vals[:min(len(vals), 64)]...), uint8(0))
	}
	for k := uint8(0); k < 8; k++ {
		f.Add(words(5, 10, 0xffff, 3, 1<<40), 1|k<<2)
		f.Add(words(5, 10, 0xffff, 3, 1<<40), 1|k<<2|7<<5)
		f.Add(words(0, 0x100, 0x2ff, 0x3ff, 7), 2|k<<2)
		f.Add(words(2, 500, 7, 9, 11), 3|k<<2|1<<5)
	}
	f.Fuzz(func(t *testing.T, data []byte, shape uint8) {
		checkFloatBlock(t, fuzzFloats(data, shape))
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
	ints, strs, floats := intBlocks(), stringBlocks(), lineitemFloats()
	cases := []struct {
		name string
		max  float64
		fn   func()
	}{
		{"int/sorted", 1, func() { EncodeInt64s(ints["sorted"], true) }},
		{"int/runs", 1, func() { EncodeInt64s(ints["runs"], true) }},
		{"int/full-range", 1, func() { EncodeInt64s(ints["full-range"], true) }},
		{"int/uncompressed", 1, func() { EncodeInt64s(ints["sorted"], false) }},
		{"float/scaled", 1, func() { EncodeFloat64s(floats["discount"], true) }},
		{"float/plain", 1, func() { EncodeFloat64s(floats["extendedprice"], true) }},
		{"float/uncompressed", 1, func() { EncodeFloat64s(floats["discount"], false) }},
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

// floatBenchBlocks are the float microbenchmarks' blocks: lineitem's
// quantity (ScaledFloat, k = 0), discount (ScaledFloat, k = 2) and
// extendedprice (the plain fallback) compressed, and discount uncompressed —
// the PlainFloat encode every float block took before ScaledFloat — and two
// ScaledFloat blocks of hundredths on either side of tableWidth: a read maps
// each residual of the 6-bit one through the table and divides at 7 bits.
var floatBenchBlocks = []struct {
	name, block string
	compress    bool
}{{"quantity", "quantity", true}, {"discount", "discount", true}, {"extendedprice", "extendedprice", true}, {"uncompressed", "discount", false}, {"w6", "w6", true}, {"w7", "w7", true}}

// floatBenchValues are lineitemFloats and the hundredths blocks w6 and w7.
func floatBenchValues() map[string][]float64 {
	blocks := lineitemFloats()
	rng := rand.New(rand.NewSource(25))
	for _, w := range []int{6, 7} {
		vals := make([]float64, 4096)
		for i := range vals {
			vals[i] = float64(rng.Intn(1<<w)) / 100
		}
		blocks[fmt.Sprintf("w%d", w)] = vals
	}
	return blocks
}

func BenchmarkEncodeFloat64s(b *testing.B) {
	blocks := floatBenchValues()
	for _, c := range floatBenchBlocks {
		b.Run(c.name, func(b *testing.B) {
			vals := blocks[c.block]
			b.ReportAllocs()
			b.SetBytes(int64(8 * len(vals)))
			for i := 0; i < b.N; i++ {
				encodeSink = EncodeFloat64s(vals, c.compress)
			}
		})
	}
}

var floatSink []float64

// BenchmarkDecodeFloat64s decodes each block whole into a reused buffer.
func BenchmarkDecodeFloat64s(b *testing.B) {
	blocks := floatBenchValues()
	for _, c := range floatBenchBlocks {
		b.Run(c.name, func(b *testing.B) {
			buf := EncodeFloat64s(blocks[c.block], c.compress)
			dst := make([]float64, 0, len(blocks[c.block]))
			b.ReportAllocs()
			b.SetBytes(int64(8 * len(blocks[c.block])))
			for i := 0; i < b.N; i++ {
				floatSink, _ = DecodeFloat64s(buf, dst)
			}
		})
	}
}
