package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"testing/quick"
)

func TestIntRoundTripPlain(t *testing.T) {
	vals := []int64{3, -1, 0, 1 << 40, -(1 << 40)}
	buf := EncodeInt64s(vals, false)
	if BlockScheme(buf) != PlainInt {
		t.Fatalf("forced plain, got scheme %d", BlockScheme(buf))
	}
	got, err := DecodeInt64s(buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, vals) {
		t.Errorf("got %v want %v", got, vals)
	}
}

// TestIntCompressedPacksSortedToWidthZero: a dense sorted block lies on the
// line through its first and last value, so ForInt stores it in its 17-byte
// frame with no residual bits at all.
func TestIntCompressedPacksSortedToWidthZero(t *testing.T) {
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = int64(1000000 + i)
	}
	buf := EncodeInt64s(vals, true)
	if BlockScheme(buf) != ForInt {
		t.Fatalf("sorted ints should pick ForInt, got %d", BlockScheme(buf))
	}
	if w := buf[headerSize+16]; w != 0 || len(buf) != headerSize+forHeaderSize {
		t.Errorf("sorted ints pack at width %d in %d bytes, want width 0 in %d", w, len(buf), headerSize+forHeaderSize)
	}
	got, err := DecodeInt64s(buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, vals) {
		t.Error("ForInt round trip broken")
	}
}

func TestIntCompressedPicksRLEForConstant(t *testing.T) {
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = 42
	}
	buf := EncodeInt64s(vals, true)
	if BlockScheme(buf) != RLEInt {
		t.Errorf("constant ints should pick RLE, got %d", BlockScheme(buf))
	}
	got, err := DecodeInt64s(buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, vals) {
		t.Error("RLE round trip broken")
	}
}

func TestIntRoundTripQuick(t *testing.T) {
	f := func(vals []int64, compress bool) bool {
		buf := EncodeInt64s(vals, compress)
		got, err := DecodeInt64s(buf, nil)
		if err != nil {
			return false
		}
		if len(vals) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(got, vals)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFloatRoundTrip(t *testing.T) {
	f := func(vals []float64, compress bool) bool {
		got, err := DecodeFloat64s(EncodeFloat64s(vals, compress), nil)
		if err != nil {
			return false
		}
		if len(vals) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(got, vals)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBoolRoundTrip(t *testing.T) {
	f := func(raw []bool) bool {
		vals := make([]int64, len(raw))
		for i, b := range raw {
			if b {
				vals[i] = 1
			}
		}
		got, err := DecodeBools(EncodeBools(vals), nil)
		if err != nil {
			return false
		}
		if len(vals) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(got, vals)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// size check: 1 bit per value plus header
	buf := EncodeBools(make([]int64, 800))
	if len(buf) != 5+100 {
		t.Errorf("bitpacked size = %d, want 105", len(buf))
	}
}

func TestStringRoundTripQuick(t *testing.T) {
	f := func(vals []string, compress bool) bool {
		buf := EncodeStrings(vals, compress)
		got, err := DecodeStrings(buf, nil)
		if err != nil {
			return false
		}
		if len(vals) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(got, vals)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringDictChosenForLowCardinality(t *testing.T) {
	vals := make([]string, 1000)
	for i := range vals {
		vals[i] = []string{"alpha", "beta", "gamma"}[i%3]
	}
	buf := EncodeStrings(vals, true)
	if BlockScheme(buf) != PackedDict {
		t.Errorf("low-cardinality strings should pick the packed dictionary, got %d", BlockScheme(buf))
	}
	// Three entries: 4 + 3·4 offset bytes + 14 dictionary bytes, then 2-bit codes.
	if want := headerSize + 4 + 12 + 14 + 8*((2*len(vals)+63)/64); len(buf) != want {
		t.Errorf("packed dictionary of %d values is %d bytes, want %d", len(vals), len(buf), want)
	}
	plain := EncodeStrings(vals, false)
	if BlockScheme(plain) != PlainString {
		t.Errorf("uncompressed strings should be plain, got %d", BlockScheme(plain))
	}
	if len(buf) >= len(plain) {
		t.Error("dict encoding not smaller than plain")
	}
	got, err := DecodeStrings(buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, vals) {
		t.Error("dict round trip broken")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := DecodeInt64s(nil, nil); err == nil {
		t.Error("nil buffer accepted")
	}
	if _, err := DecodeInt64s([]byte{1, 2}, nil); err == nil {
		t.Error("short header accepted")
	}
	// wrong scheme routing
	ints := EncodeInt64s([]int64{1}, false)
	if _, err := DecodeFloat64s(ints, nil); err == nil {
		t.Error("float decoder accepted int block")
	}
	if _, err := DecodeStrings(ints, nil); err == nil {
		t.Error("string decoder accepted int block")
	}
	if _, err := DecodeBools(ints, nil); err == nil {
		t.Error("bool decoder accepted int block")
	}
	floats := EncodeFloat64s([]float64{1}, false)
	if _, err := DecodeInt64s(floats, nil); err == nil {
		t.Error("int decoder accepted float block")
	}
	// truncated bodies
	long := EncodeInt64s([]int64{1, 2, 3}, false)
	if _, err := DecodeInt64s(long[:10], nil); err == nil {
		t.Error("truncated int body accepted")
	}
	fbuf := EncodeFloat64s([]float64{1, 2}, false)
	if _, err := DecodeFloat64s(fbuf[:8], nil); err == nil {
		t.Error("truncated float body accepted")
	}
	sbuf := EncodeStrings([]string{"hello", "world"}, false)
	if _, err := DecodeStrings(sbuf[:7], nil); err == nil {
		t.Error("truncated string offsets accepted")
	}
	bbuf := EncodeBools([]int64{1, 0, 1, 1, 1, 1, 1, 1, 1})
	if _, err := DecodeBools(bbuf[:5], nil); err == nil {
		t.Error("truncated bool body accepted")
	}
}

func TestZigzag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 63, -64, 1 << 62, -(1 << 62)} {
		if unzigzag(zigzag(v)) != v {
			t.Errorf("zigzag round trip failed for %d", v)
		}
	}
}

// windowCase is one encoded block with its expected full decode and its
// type-erased span decoder, so one checker serves all seven written
// encodings.
type windowCase struct {
	name   string
	buf    []byte
	count  int
	window func(buf []byte, skip, n int) (any, error) // the window as one span
	slice  func(lo, hi int) any                       // full decode's [lo:hi]
	length func(v any) int
	spans  func(skip, n int, cut uint64) error // the window cut into spans, against the full decode
}

// decodeWindow reads values [skip, skip+n) of a block — through its end when
// n < 0 — as the one span a scan's window is, through the span decoder
// spans, appended to out.
func decodeWindow[T any](buf []byte, skip, n int, out []T, spans func([]byte, []Span, []T) error) ([]T, error) {
	if n < 0 {
		count, err := wholeCount(buf)
		if err != nil {
			return nil, err
		}
		n = count - skip
	}
	at := len(out)
	out = slices.Grow(out, max(n, 0))[:at+max(n, 0)]
	if err := spans(buf, []Span{{Row: skip, At: at, N: n}}, out); err != nil {
		return nil, err
	}
	return out, nil
}

// drawSpans cuts the window of n values from skip into one to three
// ascending spans, as cut picks: rows between them passed over, and their
// positions scattered — each span lands a few positions past the one before —
// so a decoder that confused a row with its position would show. It returns
// the spans and how many positions they reach.
func drawSpans(skip, n int, cut uint64) (spans []Span, size int) {
	k := 1 + int(cut%3)
	cut /= 3
	next := func(m int) int { // a draw from [0, m)
		v := int(cut % uint64(m))
		cut /= uint64(m)
		return v
	}
	row, end := skip, skip+n
	for i := 0; i < k; i++ {
		size += next(4)
		span := Span{Row: row, At: size, N: end - row}
		if i < k-1 {
			span.N = next(end - row + 1)
		}
		spans = append(spans, span)
		size += span.N
		row += span.N + next(min(3, end-row-span.N)+1)
	}
	return spans, size
}

// spanCase is the window case of a block decoded through spans, whose
// values are never sentinel.
func spanCase[T comparable](name string, buf []byte, spans func([]byte, []Span, []T) error, sentinel T) windowCase {
	full, err := decodeWindow(buf, 0, -1, []T(nil), spans)
	if err != nil {
		panic(name + ": " + err.Error())
	}
	return windowCase{name: name, buf: buf, count: len(full),
		window: func(b []byte, skip, n int) (any, error) { return decodeWindow(b, skip, n, []T(nil), spans) },
		slice:  func(lo, hi int) any { return full[lo:hi] },
		length: func(v any) int { return len(v.([]T)) },
		spans: func(skip, n int, cut uint64) error {
			ss, size := drawSpans(skip, n, cut)
			got, want := slices.Repeat([]T{sentinel}, size), slices.Repeat([]T{sentinel}, size)
			if err := spans(buf, ss, got); err != nil {
				return err
			}
			for _, s := range ss {
				copy(want[s.At:s.At+s.N], full[s.Row:])
			}
			if !slices.Equal(got, want) {
				return fmt.Errorf("spans %v: got %v, want %v", ss, got, want)
			}
			return nil
		}}
}

func intCase(name string, buf []byte) windowCase {
	return spanCase(name, buf, DecodeInt64sSpans, math.MinInt64+7)
}

func boolCase(name string, buf []byte) windowCase { return spanCase(name, buf, DecodeBoolsSpans, -1) }

func floatCase(name string, buf []byte) windowCase {
	return spanCase(name, buf, DecodeFloat64sSpans, -1e300)
}

func stringCase(name string, buf []byte) windowCase {
	return spanCase(name, buf, DecodeStringsSpans, "\x00sentinel")
}

// checkWindows asserts the span decoders' window contract on one block: every
// in-range (skip, n) as one span equals the full decode's [skip:skip+n], n < 0
// is the tail, and so do its values cut into spans at scattered positions; a
// window outside the block, like any truncation of the buffer, is ErrCorrupt
// — never a panic, never more values than asked for.
func checkWindows(t *testing.T, c windowCase) {
	t.Helper()
	for skip := 0; skip <= c.count; skip++ {
		for n := -1; n <= c.count-skip; n++ {
			got, err := c.window(c.buf, skip, n)
			if err != nil {
				t.Fatalf("%s [%d,+%d): %v", c.name, skip, n, err)
			}
			hi := skip + n
			if n < 0 {
				hi = c.count
			}
			if want := c.slice(skip, hi); c.length(got) != hi-skip || (hi > skip && !reflect.DeepEqual(got, want)) {
				t.Fatalf("%s [%d,+%d): got %v want %v", c.name, skip, n, got, want)
			}
			for _, cut := range []uint64{uint64(skip*7919 + n), uint64(n*104729 + skip)} {
				if err := c.spans(skip, hi-skip, cut); err != nil {
					t.Fatalf("%s [%d,+%d) cut %d: %v", c.name, skip, n, cut, err)
				}
			}
		}
	}
	for _, w := range [][2]int{{0, c.count + 1}, {c.count, 1}, {c.count + 1, 0}, {c.count + 1, -1}, {-1, 1}, {c.count / 2, c.count}} {
		if _, err := c.window(c.buf, w[0], w[1]); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s [%d,+%d) outside the block: err = %v, want ErrCorrupt", c.name, w[0], w[1], err)
		}
	}
	for cut := 0; cut < len(c.buf); cut++ {
		got, err := c.window(c.buf[:cut], 0, -1)
		if err == nil {
			// A cut that only drops bytes no value needs (none of the codecs
			// pad) must not be silently accepted with fewer values.
			if c.length(got) != c.count {
				t.Errorf("%s cut at %d/%d: accepted with %d of %d values", c.name, cut, len(c.buf), c.length(got), c.count)
			}
			continue
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s cut at %d: err = %v, want ErrCorrupt", c.name, cut, err)
		}
	}
}

// TestDecodeFromWindows runs the span decoders' window contract over one small
// block of each of the eight written encodings.
func TestDecodeFromWindows(t *testing.T) {
	ints := []int64{3, -1, 0, 1 << 40, -(1 << 40), 7, 7, 7, -9, 0, 0, 2}
	line := []int64{-50, -41, -33, -20, -14, -3, 5, 11, 22, 31, 40, 52, 59}
	strs := []string{"", "a", "bc", "", "a", "ghij", "bc", "a"}
	cases := []windowCase{
		intCase("plain-int", encodePlainInt(ints)),
		intCase("rle-int", encodeRLEInt(ints)),
		intCase("for-int", encodeForInt(ints)),
		intCase("for-int-line", encodeForInt(line)),
		floatCase("plain-float", EncodeFloat64s([]float64{0, -1.5, 3.25, 1e300, -1e-300, 42}, true)),
		floatCase("scaled-float", EncodeFloat64s([]float64{0, -1.5, 3.25, 1e3, -1e-2, 42, 17.75, 0.5}, true)),
		boolCase("bit-bool", EncodeBools([]int64{1, 0, 1, 1, 0, 0, 0, 1, 1, 0, 1})),
		stringCase("plain-string", encodePlainString(strs)),
		stringCase("packed-dict", encodePackedDict(strs)),
	}
	seen := map[Scheme]bool{}
	for _, c := range cases {
		seen[BlockScheme(c.buf)] = true
		checkWindows(t, c)
	}
	if len(seen) != 8 || seen[DeltaVarint] || seen[DictString] {
		t.Errorf("table covers %d encodings, want the 8 written ones", len(seen))
	}
	if slope := binary.LittleEndian.Uint64(encodeForInt(line)[headerSize+8:]); slope == 0 {
		t.Error("for-int-line was built without its line")
	}
}

// allocBytes is how many bytes f allocates, with the collector off so that
// none are missed. A byte bound, unlike an allocation count, does not move
// with the build (-race adds allocations to error paths), and a slice sized
// from a hostile count would exceed any sane one by orders of magnitude.
func allocBytes(f func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodeFromHostileLengths feeds headers whose counts and dictionary
// sizes promise far more than the buffer holds: the decoders, and Upgrade for
// the retired schemes, must answer ErrCorrupt without sizing anything from the
// claimed length.
func TestDecodeFromHostileLengths(t *testing.T) {
	huge := func(scheme Scheme, body ...byte) []byte {
		return append([]byte{byte(scheme), 0xff, 0xff, 0xff, 0xff}, body...)
	}
	// 2^32-1 values over a byte or two, and a retired dictionary whose length
	// varint claims 2^40 entries over a 6-byte body.
	if b := allocBytes(func() {
		for _, scheme := range []Scheme{PlainInt, RLEInt} {
			if _, err := DecodeInt64s(huge(scheme, 2, 1), nil); !errors.Is(err, ErrCorrupt) {
				t.Errorf("scheme %d: err = %v", scheme, err)
			}
		}
		if _, err := DecodeFloat64s(huge(PlainFloat, 0), nil); !errors.Is(err, ErrCorrupt) {
			t.Errorf("float: err = %v", err)
		}
		if _, err := DecodeBools(huge(BitBool, 0), nil); !errors.Is(err, ErrCorrupt) {
			t.Errorf("bool: err = %v", err)
		}
		if _, err := DecodeStrings(huge(PlainString, 0), nil); !errors.Is(err, ErrCorrupt) {
			t.Errorf("string: err = %v", err)
		}
		for _, buf := range [][]byte{huge(DeltaVarint, 2, 1), huge(DictString, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20)} {
			if _, err := Upgrade(buf); !errors.Is(err, ErrCorrupt) {
				t.Errorf("upgrade of scheme %d: err = %v", BlockScheme(buf), err)
			}
		}
	}); b > 64<<10 {
		t.Errorf("hostile headers cost %d bytes", b)
	}
	// The bit-packed schemes: a ForInt frame too short for its header, frames
	// whose 2^32-1 residuals at 1, 64 and 255 bits are missing, a packed
	// dictionary claiming 2^32-1 entries, and one whose one entry claims
	// 2^32-1 bytes. Then plain blocks holding a byte per value they claim,
	// short of the 8 an int or float takes and the 4 of a string's offset: a
	// whole-block decode sized by their counts before the check would grow its
	// output by 128 KB of ints or 256 KB of strings.
	short := func(scheme Scheme) []byte {
		buf := make([]byte, headerSize+1<<14)
		buf[0] = byte(scheme)
		binary.LittleEndian.PutUint32(buf[1:], 1<<14)
		return buf
	}
	shortInt, shortFloat, shortStr := short(PlainInt), short(PlainFloat), short(PlainString)
	if b := allocBytes(func() {
		if _, err := DecodeInt64s(shortInt, nil); !errors.Is(err, ErrCorrupt) {
			t.Errorf("short plain int block: err = %v", err)
		}
		if _, err := DecodeFloat64s(shortFloat, nil); !errors.Is(err, ErrCorrupt) {
			t.Errorf("short plain float block: err = %v", err)
		}
		if _, err := DecodeStrings(shortStr, nil); !errors.Is(err, ErrCorrupt) {
			t.Errorf("short plain string block: err = %v", err)
		}
		if _, err := DecodeInt64s(huge(ForInt, 2, 1), nil); !errors.Is(err, ErrCorrupt) {
			t.Errorf("short ForInt frame: err = %v", err)
		}
		for _, w := range []byte{1, 64, 255} {
			frame := huge(ForInt, append(make([]byte, 16), w, 0, 0, 0, 0, 0, 0, 0, 0)...)
			if err := DecodeInt64sSpans(frame, []Span{{N: 1}}, make([]int64, 1)); !errors.Is(err, ErrCorrupt) {
				t.Errorf("ForInt width %d: err = %v", w, err)
			}
			if _, _, err := SearchInt64s(frame, 0, 1, 0); !errors.Is(err, ErrCorrupt) {
				t.Errorf("ForInt width %d search: err = %v", w, err)
			}
		}
		for _, buf := range [][]byte{huge(PackedDict, 0xff, 0xff, 0xff, 0xff, 0), huge(PackedDict, 1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0)} {
			if _, err := DecodeStrings(buf, nil); !errors.Is(err, ErrCorrupt) {
				t.Errorf("packed dictionary: err = %v", err)
			}
			if _, _, err := DictValues(buf); !errors.Is(err, ErrCorrupt) {
				t.Errorf("packed DictValues: err = %v", err)
			}
		}
	}); b > 64<<10 {
		t.Errorf("hostile bit-packed headers and short plain blocks cost %d bytes", b)
	}
}

func TestDecodeInt64sFrom(t *testing.T) {
	sorted := make([]int64, 300)
	constant := make([]int64, 300)
	for i := range sorted {
		sorted[i] = int64(1000000 + i)
		constant[i] = 42
	}
	// runs of varying length to hit RLE partial-run skips
	var runs []int64
	for i := 0; i < 20; i++ {
		for k := 0; k <= i%5; k++ {
			runs = append(runs, int64(i*i))
		}
	}
	for name, vals := range map[string][]int64{"sorted": sorted, "constant": constant, "runs": runs} {
		for _, compress := range []bool{false, true} {
			checkWindows(t, intCase(name, EncodeInt64s(vals, compress)))
		}
	}
	// force each int scheme explicitly
	for _, enc := range [][]byte{encodePlainInt(sorted), encodeRLEInt(constant), encodeRLEInt(runs),
		encodeForInt(sorted[:120]), encodeForInt(runs), encodeForInt(constant[:120])} {
		checkWindows(t, intCase("forced", enc))
	}
}

func TestDecodeFloat64sFrom(t *testing.T) {
	vals := make([]float64, 40)
	for i := range vals {
		vals[i] = float64(i)*1.5 - 7
	}
	checkWindows(t, floatCase("floats", EncodeFloat64s(vals, false)))
	checkWindows(t, floatCase("scaled", EncodeFloat64s(vals, true)))
}

func TestDecodeBoolsFrom(t *testing.T) {
	vals := make([]int64, 77)
	for i := range vals {
		if i%3 == 0 || i%7 == 0 {
			vals[i] = 1
		}
	}
	checkWindows(t, boolCase("bools", EncodeBools(vals)))
}

func TestDecodeStringsFrom(t *testing.T) {
	lowCard := make([]string, 200)
	for i := range lowCard {
		lowCard[i] = []string{"alpha", "beta", "gamma"}[i%3]
	}
	for _, vals := range [][]string{{"", "a", "bc", "", "def", "ghij"}, lowCard} {
		for _, compress := range []bool{false, true} {
			checkWindows(t, stringCase("strings", EncodeStrings(vals, compress)))
		}
		// a packed dictionary even where plain is smaller
		checkWindows(t, stringCase("packed-dict", encodePackedDict(vals)))
	}
}
