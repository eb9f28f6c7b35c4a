package compress

// DecodeStringsSpans against hostile bytes: whatever the buffer, the window
// and the spans it is cut into, it returns ErrCorrupt or exactly what a slow,
// copy-per-value reading of the format returns — and never panics. The
// reference below is that reading.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"pdtstore/internal/vector"
)

// refDecodeStringsFrom reads values [skip, skip+n) of a string block one at a
// time, copying each. It accepts exactly the blocks the format defines: a
// window inside the count; for plain blocks, non-decreasing offsets inside
// the data over the window; for framed offsets, a ForInt frame (as
// refDecodeInt64sFrom reads it) whose end offsets over the window are
// non-decreasing and inside the bytes after it; for packed dictionaries, an offset array and the
// bytes up to its last offset inside the block, every value's code bits in
// whole 64-bit words after them, and — over the window — codes below the
// entry count naming entries whose offsets are in order and inside those
// bytes. A block of a retired scheme is not one (upgrade_test.go reads
// those).
func refDecodeStringsFrom(buf []byte, skip, n int) ([]string, error) {
	if len(buf) < headerSize {
		return nil, corrupt("reference: truncated header")
	}
	count := int(binary.LittleEndian.Uint32(buf[1:headerSize]))
	body := buf[headerSize:]
	if n < 0 {
		n = count - skip
	}
	if skip < 0 || n < 0 || skip+n > count {
		return nil, corrupt("reference: window outside block")
	}
	var out []string
	switch Scheme(buf[0]) {
	case PlainString:
		if len(body) < 4*count {
			return nil, corrupt("reference: offsets truncated")
		}
		data := body[4*count:]
		for i := skip; i < skip+n; i++ {
			lo := uint32(0)
			if i > 0 {
				lo = binary.LittleEndian.Uint32(body[4*(i-1):])
			}
			hi := binary.LittleEndian.Uint32(body[4*i:])
			if lo > hi || uint64(hi) > uint64(len(data)) {
				return nil, corrupt("reference: offset")
			}
			out = append(out, string(data[lo:hi]))
		}
		return out, nil
	case FramedString:
		if len(body) < 17 {
			return nil, corrupt("reference: frame truncated")
		}
		w := int(body[16])
		if w > 64 || uint64(len(body)-17) < 8*((uint64(count)*uint64(w)+63)/64) {
			return nil, corrupt("reference: residuals truncated")
		}
		data := body[17+8*((count*w+63)/64):]
		frame := append([]byte{byte(ForInt), buf[1], buf[2], buf[3], buf[4]}, body[:len(body)-len(data)]...)
		for i := skip; i < skip+n; i++ {
			lo := int64(0)
			if i > 0 {
				prev, _ := refDecodeInt64sFrom(frame, i-1, 1)
				lo = prev[0]
			}
			end, _ := refDecodeInt64sFrom(frame, i, 1)
			if hi := end[0]; lo < 0 || lo > hi || hi > int64(len(data)) {
				return nil, corrupt("reference: offset")
			} else {
				out = append(out, string(data[lo:hi]))
			}
		}
		return out, nil
	case PackedDict:
		if len(body) < 4 {
			return nil, corrupt("reference: dictionary length")
		}
		nd := int(binary.LittleEndian.Uint32(body))
		body = body[4:]
		if nd > len(body)/4 || (nd == 0 && count > 0) {
			return nil, corrupt("reference: dictionary length")
		}
		offs, rest := body[:4*nd], body[4*nd:]
		end := func(c int) int {
			if c < 0 {
				return 0
			}
			return int(binary.LittleEndian.Uint32(offs[4*c:]))
		}
		size := end(nd - 1)
		w := 0
		if nd > 1 {
			for 1<<w < nd {
				w++
			}
		}
		if size > len(rest) || len(rest)-size < 8*((count*w+63)/64) {
			return nil, corrupt("reference: dictionary truncated")
		}
		data, codes := rest[:size], rest[size:]
		for i := skip; i < skip+n; i++ {
			c := 0
			for b := 0; b < w; b++ {
				pos := i*w + b
				c |= int(codes[pos/8]>>(pos%8)&1) << b
			}
			if c >= nd || end(c-1) > end(c) || end(c) > size {
				return nil, corrupt("reference: code")
			}
			out = append(out, string(data[end(c-1):end(c)]))
		}
		return out, nil
	}
	return nil, corrupt("reference: not a string block")
}

// checkDecodeStrings holds one (buffer, window) to the reference: the window
// as one span, after a value of the caller's that must survive, and cut into
// spans as cut picks (checkSpans).
func checkDecodeStrings(t testing.TB, buf []byte, skip, n int, cut uint64) {
	t.Helper()
	if n < 0 && boundless(buf) {
		return
	}
	checkSpans(t, buf, skip, n, cut, "\x00sentinel", DecodeStringsSpans, refDecodeStringsFrom)
	sentinel := []string{"kept"}
	got, err := decodeWindow(buf, skip, n, sentinel, DecodeStringsSpans)
	want, werr := refDecodeStringsFrom(buf, skip, n)
	if err != nil {
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("window (%d, %d): error %v is not ErrCorrupt", skip, n, err)
		}
		if werr == nil {
			t.Fatalf("window (%d, %d): %v, but the reference reads %d values", skip, n, err, len(want))
		}
		return
	}
	if werr != nil {
		t.Fatalf("window (%d, %d): decoded %d values from a block the reference rejects: %v", skip, n, len(got)-1, werr)
	}
	if len(got) != 1+len(want) || got[0] != "kept" {
		t.Fatalf("window (%d, %d): %d values after the caller's own, want %d", skip, n, len(got)-1, len(want))
	}
	for i, w := range want {
		if got[1+i] != w {
			t.Fatalf("window (%d, %d): value %d = %q, want %q", skip, n, i, got[1+i], w)
		}
	}
}

// decodeSeeds are valid blocks of every string layout the store writes. The
// second of each pair was a varint-code dictionary block when the kernels read
// that scheme; it is the block Upgrade makes of it now, so the seeds keep
// their numbers, and later layouts' seeds are appended.
func decodeSeeds() [][]byte {
	wide := make([]string, 300) // more than 128 distinct: two-byte codes
	for i := range wide {
		wide[i] = fmt.Sprintf("value-%03d", i%150)
	}
	var seeds [][]byte
	for _, vals := range [][]string{nil, {""}, {"", "a", "bc", "", "def", "ghij"}, stringBlocks()["low-cardinality"][:64], wide} {
		seeds = append(seeds, encodePlainString(vals), upgraded(encodeDictString(vals)))
	}
	// Appended, so the seeds above keep their numbers: packed dictionaries of
	// every code width from 0 to 9 bits.
	for _, vals := range [][]string{nil, {""}, {"", "a", "bc", "", "def", "ghij"}, stringBlocks()["low-cardinality"][:64], wide} {
		seeds = append(seeds, encodePackedDict(vals))
	}
	// Framed offsets: residuals of 0 bits (values of one length, on the line)
	// and of several, and the block EncodeStrings writes for distinct text.
	equal := make([]string, 40)
	for i := range equal {
		equal[i] = fmt.Sprintf("k%03d", i)
	}
	distinct, _ := framedBlock(120)
	for _, vals := range [][]string{{""}, {"", "a", "bc", "", "def", "ghij"}, equal, wide} {
		seeds = append(seeds, encodeFramedString(vals))
	}
	return append(seeds, distinct)
}

// FuzzDecodeStringsFrom fuzzes the string span decoder from every window: a
// buffer, a window of it (n < 0: through its end) and one to three spans the
// window is cut into.
func FuzzDecodeStringsFrom(f *testing.F) {
	for _, buf := range decodeSeeds() {
		f.Add(buf, int16(0), int16(-1), uint64(0))
		f.Add(buf, int16(2), int16(3), uint64(0x2a5))
		f.Add(buf[:len(buf)*2/3], int16(1), int16(-1), uint64(0x3c1e))
	}
	f.Fuzz(func(t *testing.T, buf []byte, skip, n int16, cut uint64) {
		checkDecodeStrings(t, buf, int(skip), int(n), cut)
	})
}

// TestDecodeStringsHostile is the fuzz target's twin under go test: every
// seed block, every window of it, whole and with each single byte damaged or
// the tail cut.
func TestDecodeStringsHostile(t *testing.T) {
	for _, seed := range decodeSeeds() {
		count := int(binary.LittleEndian.Uint32(seed[1:headerSize]))
		windows := [][2]int{{0, -1}, {0, 0}, {count, 0}, {count / 2, -1}, {1, count / 3}, {count, 1}, {-1, 1}, {count - 1, 1}}
		for i, w := range windows {
			for _, cut := range []uint64{0, uint64(i), 0x2a5, 0x3c1e} {
				checkDecodeStrings(t, seed, w[0], w[1], cut)
			}
		}
		if len(seed) > 600 {
			continue // the damage sweep is quadratic; the small blocks cover it
		}
		for cut := 0; cut < len(seed); cut++ {
			checkDecodeStrings(t, seed[:cut], 0, -1, uint64(cut))
			for _, flip := range []byte{0x01, 0x80, 0xff} {
				bad := append([]byte(nil), seed...)
				bad[cut] ^= flip
				for _, w := range windows {
					checkDecodeStrings(t, bad, w[0], w[1], uint64(cut)*3+uint64(flip))
				}
			}
		}
	}
}

// TestDecodeStringsArena: a block's strings cost a constant number of
// allocations — one arena for the bytes, plus the dictionary's index — not
// one per value or per entry, and a scan-sized window of a dictionary block
// shares each entry across its codes.
func TestDecodeStringsArena(t *testing.T) {
	distinct := stringBlocks()["all-distinct"]
	cases := []struct {
		name string
		buf  []byte
		max  float64
	}{
		{"plain", encodePlainString(distinct), 1},
		{"framed", encodeFramedString(distinct), 1},
		{"dict/all-distinct", encodePackedDict(distinct), 2},
		{"dict/low-cardinality", encodePackedDict(stringBlocks()["low-cardinality"]), 2},
	}
	for _, c := range cases {
		out := make([]string, 0, 4096)
		got := testing.AllocsPerRun(10, func() {
			var err error
			if out, err = DecodeStrings(c.buf, out[:0]); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.max {
			t.Errorf("%s: %.0f allocations per block of %d values, want <= %.0f", c.name, got, len(out), c.max)
		}
	}
}

// framedBlock is a FramedString block of n distinct values of uneven length,
// and the values.
func framedBlock(n int) ([]byte, []string) {
	vals := make([]string, n)
	for i := range vals {
		vals[i] = fmt.Sprintf("note %d %s", i, strings.Repeat("x", i*7%13))
	}
	buf := EncodeStrings(vals, true)
	if BlockScheme(buf) != FramedString {
		panic(fmt.Sprintf("%d distinct values encode as scheme %d", n, BlockScheme(buf)))
	}
	return buf, vals
}

// TestFramedStringHostile is TestScaledFloatHostile's twin for framed
// offsets: end offsets that go down, go negative or pass the data, a frame
// wider than 64 bits, and a frame or its residuals cut short — its own
// count's or a claimed 2^32-1 — are ErrCorrupt from every kernel reading the
// values they spoil (which may have written the values before), none of
// which sizes anything from the claim; DictValues answers ok = false without
// reading the frame.
func TestFramedStringHostile(t *testing.T) {
	good, vals := framedBlock(200)
	n := len(vals)
	edit := func(f func(b []byte) []byte) []byte { return f(slices.Clone(good)) }
	setInt := func(at int, v int64) func(b []byte) []byte {
		return func(b []byte) []byte { binary.LittleEndian.PutUint64(b[headerSize+at:], uint64(v)); return b }
	}
	base := int64(binary.LittleEndian.Uint64(good[headerSize:]))
	// The end offsets of the values, with the third one's below the second's.
	ends, end := make([]int64, n), int64(0)
	for i, v := range vals {
		end += int64(len(v))
		ends[i] = end
	}
	ends[2] = ends[1] - 1
	down := append(putHeader(FramedString, n), encodeForInt(ends)[headerSize:]...)
	for _, v := range vals {
		down = append(down, v...)
	}
	cases := map[string][]byte{
		"offsets not monotone": down,
		"slope negative":       edit(setInt(8, -1<<40)),
		"base negative":        edit(setInt(0, -1000)),
		"ends past the data":   edit(setInt(0, base+1<<20)),
		"last end past data":   good[:len(good)-1],
		"width 65":             edit(func(b []byte) []byte { b[headerSize+16] = 65; return b }),
		"width 255":            edit(func(b []byte) []byte { b[headerSize+16] = 255; return b }),
		"frame":                good[:headerSize+forHeaderSize-1],
		"residuals":            good[:headerSize+forHeaderSize+3],
		"count 2^32":           edit(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[1:], math.MaxUint32); return b }),
	}
	rows, pos := []uint32{0, 2, uint32(n / 2), uint32(n - 1)}, []uint32{0, 1, 2, 3}
	for name, buf := range cases {
		dst := make([]string, n)
		sel := func(p vector.Pred) func() error {
			return func() error { _, err := SelectStrings(buf, 0, n, p, nil); return err }
		}
		calls := map[string]func() error{
			"DecodeStrings":         func() error { _, err := DecodeStrings(buf, nil); return err },
			"DecodeStringsSpans":    func() error { return DecodeStringsSpans(buf, []Span{{N: 3}, {Row: 3, At: 3, N: n - 3}}, dst) },
			"GatherStringsAt":       func() error { return GatherStringsAt(buf, 0, rows, pos, dst) },
			"SelectStrings/none":    sel(vector.Pred{Op: vector.PredNone}),
			"SelectStrings/eq":      sel(vector.Pred{Op: vector.PredStrEq, Strs: []string{vals[1]}}),
			"SelectStrings/contain": sel(vector.Pred{Op: vector.PredStrContains, Strs: []string{"x"}}),
		}
		for call, f := range calls {
			var err error
			if b := allocBytes(func() { err = f() }); b > 64<<10 {
				t.Errorf("%s of %s: %d bytes allocated", call, name, b)
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s of %s: err = %v, want ErrCorrupt", call, name, err)
			}
		}
		if got, ok, err := DictValues(buf); ok || err != nil || got != nil {
			t.Errorf("DictValues of %s: %d values, ok %v, err %v; want none, false, nil", name, len(got), ok, err)
		}
	}
}
