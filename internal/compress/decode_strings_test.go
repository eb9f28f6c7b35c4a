package compress

// DecodeStringsSpans against hostile bytes: whatever the buffer, the window
// and the spans it is cut into, it returns ErrCorrupt or exactly what a slow,
// copy-per-value reading of the format returns — and never panics. The
// reference below is that reading.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
)

// refDecodeStringsFrom reads values [skip, skip+n) of a string block one at a
// time, copying each. It accepts exactly the blocks the format defines: a
// window inside the count; for plain blocks, non-decreasing offsets inside
// the data over the window; for packed dictionaries, an offset array and the
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
// their numbers.
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
	return seeds
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
