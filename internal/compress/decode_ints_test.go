package compress

// DecodeInt64sSpans and SearchInt64s against hostile bytes: whatever the
// buffer, the window and the spans it is cut into, the decoder returns
// ErrCorrupt or exactly what a slow, one-value-at-a-time reading of the format
// returns — and never panics. The reference below is that reading.

import (
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"sort"
	"testing"
)

// refDecodeInt64sFrom reads values [skip, skip+n) of an int block one at a
// time. It accepts exactly the blocks the format defines: a window inside the
// count; for plain blocks, 8 bytes per value; for ForInt blocks, a 17-byte
// frame whose width is at most 64 followed by every value's residual bits in
// whole 64-bit words, value i being base + (slope·i)>>32 + residual i; for RLE
// blocks, pairs that parse up to the window's end, runs of at least one value
// that stay inside the count. A block of a retired scheme is not one
// (upgrade_test.go reads those).
func refDecodeInt64sFrom(buf []byte, skip, n int) ([]int64, error) {
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
	var out []int64
	switch Scheme(buf[0]) {
	case PlainInt:
		if len(body) < 8*count {
			return nil, corrupt("reference: plain truncated")
		}
		for i := skip; i < skip+n; i++ {
			out = append(out, int64(binary.LittleEndian.Uint64(body[8*i:])))
		}
		return out, nil
	case ForInt:
		if len(body) < 17 {
			return nil, corrupt("reference: frame truncated")
		}
		base, slope, w := int64(binary.LittleEndian.Uint64(body)), int64(binary.LittleEndian.Uint64(body[8:])), int(body[16])
		bitsIn := body[17:]
		if w > 64 || uint64(len(bitsIn)) < 8*((uint64(count)*uint64(w)+63)/64) {
			return nil, corrupt("reference: residuals truncated")
		}
		for i := skip; i < skip+n; i++ {
			r := uint64(0)
			for b := 0; b < w; b++ {
				pos := i*w + b
				r |= uint64(bitsIn[pos/8]>>(pos%8)&1) << b
			}
			out = append(out, base+(slope*int64(i))>>32+int64(r))
		}
		return out, nil
	case RLEInt:
		for got := 0; got < skip+n; {
			u, sz := binary.Uvarint(body)
			if sz <= 0 {
				return nil, corrupt("reference: run value")
			}
			body = body[sz:]
			run, sz := binary.Uvarint(body)
			if sz <= 0 || run == 0 || run > uint64(count-got) {
				return nil, corrupt("reference: run length")
			}
			body = body[sz:]
			for k := 0; k < int(run); k++ {
				if got+k >= skip && got+k < skip+n {
					out = append(out, unzigzag(u))
				}
			}
			got += int(run)
		}
		return out, nil
	}
	return nil, corrupt("reference: not an int block")
}

// boundless reports whether buf claims more than 2^16 values in a layout
// that holds any count in a few bytes — RLE runs, a width-0 ForInt or
// ScaledFloat frame, a one-entry PackedDict. A full decode yields the block's count of values by
// contract, so the harnesses decode such a block only through windows with
// an explicit n; callers check a block's count against the rows they expect
// before decoding it whole (compress.BlockCount; index.summarize does).
func boundless(buf []byte) bool {
	if BlockCount(buf) <= 1<<16 {
		return false
	}
	switch body := buf[headerSize:]; BlockScheme(buf) {
	case RLEInt:
		return true
	case ForInt:
		return len(body) > 16 && body[16] == 0
	case ScaledFloat:
		return len(body) > 9 && body[9] == 0
	case PackedDict:
		return len(body) >= 4 && binary.LittleEndian.Uint32(body) <= 1
	}
	return false
}

// checkDecodeInts holds one (buffer, window) to the reference — the window as
// one span, after a value of the caller's that must survive, and cut into
// spans as cut picks (checkSpans) — and a search for want over that window to
// a binary search of the reference's values.
func checkDecodeInts(t testing.TB, buf []byte, skip, n int, want int64, cut uint64) {
	t.Helper()
	if n < 0 && boundless(buf) {
		return
	}
	got, err := decodeWindow(buf, skip, n, []int64{-7}, DecodeInt64sSpans)
	ref, rerr := refDecodeInt64sFrom(buf, skip, n)
	switch {
	case err != nil && !errors.Is(err, ErrCorrupt):
		t.Fatalf("window (%d, %d): error %v is not ErrCorrupt", skip, n, err)
	case err != nil && rerr == nil:
		t.Fatalf("window (%d, %d): %v, but the reference reads %d values", skip, n, err, len(ref))
	case err == nil && rerr != nil:
		t.Fatalf("window (%d, %d): decoded %d values from a block the reference rejects: %v", skip, n, len(got)-1, rerr)
	case err == nil && (got[0] != -7 || !slices.Equal(got[1:], ref)):
		t.Fatalf("window (%d, %d): got %v after the caller's own, want %v", skip, n, got[1:], ref)
	}
	checkSpans(t, buf, skip, n, cut, math.MinInt64+7, DecodeInt64sSpans, refDecodeInt64sFrom)
	if n < 0 || rerr != nil {
		return
	}
	ge, gt, err := SearchInt64s(buf, skip, skip+n, want)
	if err != nil {
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("search [%d, %d): error %v is not ErrCorrupt", skip, skip+n, err)
		}
		t.Fatalf("search [%d, %d) of a window the reference reads: %v", skip, skip+n, err)
	}
	if slices.IsSorted(ref) {
		wge := skip + sort.Search(len(ref), func(i int) bool { return ref[i] >= want })
		wgt := skip + sort.Search(len(ref), func(i int) bool { return ref[i] > want })
		if ge != wge || gt != wgt {
			t.Fatalf("search [%d, %d) for %d = [%d, %d), want [%d, %d)", skip, skip+n, want, ge, gt, wge, wgt)
		}
	}
}

// checkSpans cuts the window of n values from skip (through the block's end
// when n < 0) into one to three spans at scattered positions, as cut picks
// (drawSpans), and holds their decode to the reference: when it reads the
// window, the decoder must too, yielding its values at the spans' positions
// and writing nothing anywhere else; when it does not, the decoder may still
// accept spans that skip what it rejects, but only with every span's own
// values. Errors wrap ErrCorrupt.
func checkSpans[T comparable](t testing.TB, buf []byte, skip, n int, cut uint64, sentinel T,
	spans func([]byte, []Span, []T) error, ref func([]byte, int, int) ([]T, error)) {
	t.Helper()
	if n < 0 {
		count, err := wholeCount(buf)
		if err != nil {
			return
		}
		n = count - skip
	}
	if skip < 0 || n < 0 {
		return // no window to cut: the single span already failed
	}
	ss, size := drawSpans(skip, n, cut)
	got, want := slices.Repeat([]T{sentinel}, size), slices.Repeat([]T{sentinel}, size)
	err := spans(buf, ss, got)
	win, werr := ref(buf, skip, n)
	switch {
	case err != nil && !errors.Is(err, ErrCorrupt):
		t.Fatalf("spans %v: error %v is not ErrCorrupt", ss, err)
	case err != nil && werr == nil:
		t.Fatalf("spans %v: %v, but the reference reads the window", ss, err)
	case err != nil:
		return
	}
	for _, s := range ss {
		vals := win[min(s.Row-skip, len(win)):]
		if werr != nil {
			var serr error
			if vals, serr = ref(buf, s.Row, s.N); serr != nil {
				t.Fatalf("spans %v: decoded a span the reference rejects: %v", ss, serr)
			}
		}
		copy(want[s.At:s.At+s.N], vals)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("spans %v of window (%d, %d): got %v, want %v", ss, skip, n, got, want)
	}
}

// intDecodeSeeds are valid blocks of every written int layout. The fourth of
// each group was a delta-varint block when the kernels read that scheme; it is
// the block Upgrade makes of it now, so the seeds keep their numbers.
func intDecodeSeeds() [][]byte {
	blocks := intBlocks()
	var seeds [][]byte
	for _, name := range []string{"empty", "one", "extremes", "two-equal", "sorted", "noisy-line", "runs", "near-max", "widths"} {
		vals := blocks[name][:min(len(blocks[name]), 200)]
		seeds = append(seeds, encodePlainInt(vals), encodeForInt(vals), encodeRLEInt(vals), upgraded(encodeDeltaVarint(vals)))
	}
	return seeds
}

// FuzzDecodeInt64sFrom fuzzes the int span decoder from every window: a
// buffer, a window of it (n < 0: through its end), one to three spans the
// window is cut into, and a value to search the window for.
func FuzzDecodeInt64sFrom(f *testing.F) {
	for _, buf := range intDecodeSeeds() {
		f.Add(buf, int16(0), int16(-1), int64(0), uint64(0))
		f.Add(buf, int16(2), int16(3), int64(1_000_010), uint64(0x2a5))
		f.Add(buf[:len(buf)*2/3], int16(1), int16(-1), int64(7), uint64(0x3c1e))
	}
	f.Fuzz(func(t *testing.T, buf []byte, skip, n int16, want int64, cut uint64) {
		checkDecodeInts(t, buf, int(skip), int(n), want, cut)
	})
}

// TestDecodeInt64sHostile is the fuzz target's twin under go test: every seed
// block, a set of windows of it, whole and with each single byte damaged or
// the tail cut.
func TestDecodeInt64sHostile(t *testing.T) {
	for _, seed := range intDecodeSeeds() {
		count := int(binary.LittleEndian.Uint32(seed[1:headerSize]))
		windows := [][2]int{{0, -1}, {0, 0}, {count, 0}, {count / 2, -1}, {1, count / 3}, {count, 1}, {-1, 1}, {count - 1, 1}}
		for i, w := range windows {
			for _, cut := range []uint64{0, uint64(i), 0x2a5, 0x3c1e} {
				checkDecodeInts(t, seed, w[0], w[1], 1_000_010, cut)
			}
		}
		if len(seed) > 600 {
			continue // the damage sweep is quadratic; the small blocks cover it
		}
		for cut := 0; cut < len(seed); cut++ {
			checkDecodeInts(t, seed[:cut], 0, -1, 0, uint64(cut))
			for _, flip := range []byte{0x01, 0x80, 0xff} {
				bad := append([]byte(nil), seed...)
				bad[cut] ^= flip
				for _, w := range windows {
					checkDecodeInts(t, bad, w[0], w[1], 0, uint64(cut)*3+uint64(flip))
				}
			}
		}
	}
}

// TestSearchInt64s: on sorted blocks of every int layout, every window and
// every probe value around the block's values finds what a binary search of
// the decoded window finds — and a search costs no allocation.
func TestSearchInt64s(t *testing.T) {
	var runs []int64
	for i := 0; i < 12; i++ {
		for k := 0; k <= i%4; k++ {
			runs = append(runs, int64(i*i)-100)
		}
	}
	line := make([]int64, 30)
	for i := range line {
		line[i] = int64(i)*13/4 - 3
	}
	for name, vals := range map[string][]int64{"runs": runs, "line": line, "one": {5}, "empty": {}} {
		for _, enc := range [][]byte{encodePlainInt(vals), encodeForInt(vals), encodeRLEInt(vals), EncodeInt64s(vals, true)} {
			probes := []int64{math.MinInt64, math.MaxInt64}
			for _, v := range vals {
				probes = append(probes, v-1, v, v+1)
			}
			for lo := 0; lo <= len(vals); lo++ {
				for hi := lo; hi <= len(vals); hi++ {
					for _, want := range probes {
						checkDecodeInts(t, enc, lo, hi-lo, want, uint64(lo*31+hi))
					}
				}
			}
			if _, _, err := SearchInt64s(enc, 1, 0, 0); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s scheme %d: an inverted window searched: %v", name, BlockScheme(enc), err)
			}
		}
	}
	for _, enc := range [][]byte{encodeForInt(line), encodePlainInt(line), encodeRLEInt(runs)} {
		if allocs := testing.AllocsPerRun(50, func() {
			if _, _, err := SearchInt64s(enc, 3, len(line)-2, 100); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("scheme %d: a search allocates %v times", BlockScheme(enc), allocs)
		}
	}
}

// TestRunValues: the run values of an RLE block and the line points of a
// width-0 ForInt block are the decoded block with adjacent repeats dropped;
// any other block is not answered.
func TestRunValues(t *testing.T) {
	blocks := intBlocks()
	lines := 0
	for name, vals := range blocks {
		for _, enc := range [][]byte{encodeRLEInt(vals), encodeForInt(vals), encodePlainInt(vals), EncodeInt64s(vals, true)} {
			got, ok, err := RunValues(enc)
			if err != nil {
				t.Fatalf("%s scheme %d: %v", name, BlockScheme(enc), err)
			}
			isLine := BlockScheme(enc) == ForInt && enc[headerSize+16] == 0
			if want := BlockScheme(enc) == RLEInt || isLine; ok != want {
				t.Fatalf("%s scheme %d: ok = %v, want %v", name, BlockScheme(enc), ok, want)
			}
			if !ok {
				continue
			}
			if isLine && len(vals) > 1 {
				lines++
			}
			full, err := DecodeInt64s(enc, nil)
			if err != nil {
				t.Fatal(err)
			}
			if want := slices.Compact(full); !slices.Equal(got, want) && !(len(got) == 0 && len(want) == 0) {
				t.Fatalf("%s scheme %d: run values %v, want %v", name, BlockScheme(enc), got, want)
			}
		}
	}
	if lines == 0 {
		t.Error("no width-0 ForInt block with a line was checked")
	}
}
