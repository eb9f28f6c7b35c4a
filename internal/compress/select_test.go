package compress

// Select*, Gather*At and Decode*Spans against decode-then-kernel: for every
// scheme the store writes and every predicate shape, whatever the buffer, the
// window and the positions, an encoded select keeps exactly the rows the
// vector kernel keeps of the decoded window, a gather yields exactly the
// decoded values at its positions, and a span decode the decoded values at
// its spans' positions, each writing nothing else — whenever the decoder
// accepts the window — and hostile bytes yield ErrCorrupt, never a panic.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"pdtstore/internal/types"
	"pdtstore/internal/vector"
)

// selKind is one column kind's window decode (one span), select, gather and
// span decode, and the predicate shapes that apply to it.
type selKind struct {
	kind   types.Kind
	ops    []vector.PredOp
	decode func(buf []byte, skip, n int, v *vector.Vector) error
	sel    func(buf []byte, skip, n int, p vector.Pred, out []uint32) ([]uint32, error)
	gather func(buf []byte, base int, rows, pos []uint32, v *vector.Vector) error
	spans  func(buf []byte, spans []Span, v *vector.Vector) error
}

var selKinds = []selKind{
	{types.Int64, []vector.PredOp{vector.PredNone, vector.PredInt64Range},
		func(buf []byte, skip, n int, v *vector.Vector) (err error) {
			v.I, err = decodeWindow(buf, skip, n, v.I, DecodeInt64sSpans)
			return err
		}, SelectInt64s,
		func(buf []byte, base int, rows, pos []uint32, v *vector.Vector) error {
			return GatherInt64sAt(buf, base, rows, pos, v.I)
		},
		func(buf []byte, spans []Span, v *vector.Vector) error {
			return DecodeInt64sSpans(buf, spans, v.I)
		}},
	{types.Bool, []vector.PredOp{vector.PredNone, vector.PredInt64Range},
		func(buf []byte, skip, n int, v *vector.Vector) (err error) {
			v.I, err = decodeWindow(buf, skip, n, v.I, DecodeBoolsSpans)
			return err
		}, SelectBools,
		func(buf []byte, base int, rows, pos []uint32, v *vector.Vector) error {
			return GatherBoolsAt(buf, base, rows, pos, v.I)
		},
		func(buf []byte, spans []Span, v *vector.Vector) error {
			return DecodeBoolsSpans(buf, spans, v.I)
		}},
	{types.Float64, []vector.PredOp{vector.PredNone, vector.PredFloat64Range, vector.PredFloat64Lt},
		func(buf []byte, skip, n int, v *vector.Vector) (err error) {
			v.F, err = decodeWindow(buf, skip, n, v.F, DecodeFloat64sSpans)
			return err
		}, SelectFloat64s,
		func(buf []byte, base int, rows, pos []uint32, v *vector.Vector) error {
			return GatherFloat64sAt(buf, base, rows, pos, v.F)
		},
		func(buf []byte, spans []Span, v *vector.Vector) error {
			return DecodeFloat64sSpans(buf, spans, v.F)
		}},
	{types.String, []vector.PredOp{vector.PredNone, vector.PredStrEq, vector.PredStrIn, vector.PredStrPrefix, vector.PredStrContains},
		func(buf []byte, skip, n int, v *vector.Vector) (err error) {
			v.S, err = decodeWindow(buf, skip, n, v.S, DecodeStringsSpans)
			return err
		}, SelectStrings,
		func(buf []byte, base int, rows, pos []uint32, v *vector.Vector) error {
			return GatherStringsAt(buf, base, rows, pos, v.S)
		},
		func(buf []byte, spans []Span, v *vector.Vector) error {
			return DecodeStringsSpans(buf, spans, v.S)
		}},
}

// fuzzPred builds a predicate of shape op from raw parameters: a and b are
// the int bounds, and, scaled by 1/16, the float ones; s is the string
// operand, split at '|' into an IN list.
func fuzzPred(op vector.PredOp, a, b int64, s string) vector.Pred {
	p := vector.Pred{Op: op}
	switch op {
	case vector.PredInt64Range:
		p.ILo, p.IHi = a, b
	case vector.PredFloat64Range, vector.PredFloat64Lt:
		p.FLo, p.FHi = float64(a)/16, float64(b)/16
	case vector.PredStrIn:
		p.Strs = strings.Split(s, "|")
	case vector.PredStrEq, vector.PredStrPrefix, vector.PredStrContains:
		p.Strs = []string{s}
	}
	return p
}

// gatherPositions picks an ascending subset of [0, n) from seed: its low byte
// sets the density (one row in 1 + seed%16 on average), the rest seeds the
// choice.
func gatherPositions(n int, seed uint64) []uint32 {
	rng := rand.New(rand.NewSource(int64(seed >> 8)))
	den := 1 + int(seed%16)
	var pos []uint32
	for r := 0; r < n; r++ {
		if rng.Intn(den) == 0 {
			pos = append(pos, uint32(r))
		}
	}
	return pos
}

// sentinelVector is a vector of n copies of a value no test block holds where
// the sentinel would be mistaken for it.
func sentinelVector(kind types.Kind, n int) *vector.Vector {
	v := vector.New(kind, n)
	for i := 0; i < n; i++ {
		switch kind {
		case types.Float64:
			v.F = append(v.F, -1e300)
		case types.String:
			v.S = append(v.S, "\x00sentinel")
		default:
			v.I = append(v.I, math.MinInt64+7)
		}
	}
	return v
}

// checkSelectGather holds one (kind, buffer, window, predicate, positions) to
// decode-then-kernel.
func checkSelectGather(t testing.TB, k selKind, buf []byte, skip, n int, p vector.Pred, seed uint64) {
	t.Helper()
	if n < 0 && boundless(buf) {
		return
	}
	dec := vector.New(k.kind, 0)
	derr := k.decode(buf, skip, n, dec)
	got, err := k.sel(buf, skip, n, p, []uint32{7})
	if err != nil && !errors.Is(err, ErrCorrupt) {
		t.Fatalf("select (%d, %d) %+v: error %v is not ErrCorrupt", skip, n, p, err)
	}
	if derr != nil {
		if !errors.Is(derr, ErrCorrupt) {
			t.Fatalf("decode (%d, %d): error %v is not ErrCorrupt", skip, n, derr)
		}
		// The decoder rejects the window: select and gather may succeed or
		// fail, but only with ErrCorrupt, and must not panic.
		rows, pos := gatherRows(max(0, min(n, 1<<12)), seed)
		if gerr := k.gather(buf, skip, rows, pos, sentinelVector(k.kind, int(lastPos(pos)))); gerr != nil && !errors.Is(gerr, ErrCorrupt) {
			t.Fatalf("gather (%d, %d rows): error %v is not ErrCorrupt", skip, len(rows), gerr)
		}
		spans, size := windowSpans(skip, max(0, min(n, 1<<12)), seed)
		if serr := k.spans(buf, spans, sentinelVector(k.kind, size)); serr != nil && !errors.Is(serr, ErrCorrupt) {
			t.Fatalf("span decode (%v): error %v is not ErrCorrupt", spans, serr)
		}
		return
	}
	if err != nil {
		t.Fatalf("select (%d, %d) %+v: %v, but the window decodes", skip, n, p, err)
	}
	sel := vector.NewSelection(dec.Len())
	sel.All(dec.Len())
	sel.Filter(dec, p)
	if got[0] != 7 || !slices.Equal(got[1:], sel.Indexes()) {
		t.Fatalf("select (%d, %d) %+v of %v = %v after the caller's own, want %v", skip, n, p, dec, got[1:], sel.Indexes())
	}
	rows, pos := gatherRows(dec.Len(), seed)
	dst := sentinelVector(k.kind, int(lastPos(pos)))
	if err := k.gather(buf, skip, rows, pos, dst); err != nil {
		t.Fatalf("gather (%d, %v): %v, but the window decodes", skip, rows, err)
	}
	want := sentinelVector(k.kind, dst.Len())
	for i, r := range rows {
		want.Set(int(pos[i]), dec.Get(int(r)))
	}
	for p := 0; p < dst.Len(); p++ {
		if g, w := dst.Get(p), want.Get(p); types.Compare(g, w) != 0 && !(g.K == types.Float64 && math.IsNaN(g.F) && math.IsNaN(w.F)) {
			t.Fatalf("gather (%d, %v): position %d = %v, want %v", skip, rows, p, g, w)
		}
	}
	spans, size := windowSpans(skip, dec.Len(), seed)
	dst = sentinelVector(k.kind, size)
	if err := k.spans(buf, spans, dst); err != nil {
		t.Fatalf("span decode (%v): %v, but the window decodes", spans, err)
	}
	want = sentinelVector(k.kind, size)
	for _, s := range spans {
		for i := 0; i < s.N; i++ {
			want.Set(s.At+i, dec.Get(s.Row-skip+i))
		}
	}
	for p := 0; p < size; p++ {
		if g, w := dst.Get(p), want.Get(p); types.Compare(g, w) != 0 && !(g.K == types.Float64 && math.IsNaN(g.F) && math.IsNaN(w.F)) {
			t.Fatalf("scheme %d span decode (%v): position %d = %v, want %v", BlockScheme(buf), spans, p, g, w)
		}
	}
}

// windowSpans cuts the window of n values from skip into spans, as a
// merge's runs cut a block: gaps between them (rows a skip passes over) and
// between the positions they land at (rows written by the merge), and
// returns how many positions they reach.
func windowSpans(skip, n int, seed uint64) (spans []Span, size int) {
	rng := rand.New(rand.NewSource(int64(seed)))
	for r := 0; r < n; {
		size += rng.Intn(3)
		k := 1 + rng.Intn(min(n-r, 40))
		spans = append(spans, Span{Row: skip + r, At: size, N: k})
		size += k
		r += k + rng.Intn(3)
	}
	return spans, size
}

// gatherRows picks ascending rows of a window of n values (gatherPositions)
// and the positions a gather writes them to, each one further on than the
// last, so a gather that confused a row with its position would show.
func gatherRows(n int, seed uint64) (rows, pos []uint32) {
	rows = gatherPositions(n, seed)
	for k, r := range rows {
		pos = append(pos, r+uint32(k)+1)
	}
	return rows, pos
}

func lastPos(pos []uint32) uint32 {
	if len(pos) == 0 {
		return 0
	}
	return pos[len(pos)-1] + 1
}

// selectSeeds are valid blocks of every written layout of one column kind.
func selectSeeds(kind types.Kind) [][]byte {
	// Blocks long enough that a sparse gather's rows spread past what a
	// rowReader unpacks as one run, so they are read one value at a time.
	rng := rand.New(rand.NewSource(1))
	long, longStr := make([]int64, 3000), make([]string, 3000)
	for i := range long {
		long[i] = rng.Int63n(1 << 37)
		longStr[i] = fmt.Sprintf("v%03d", rng.Intn(600))
	}
	switch kind {
	case types.Int64:
		return append(intDecodeSeeds(), encodeForInt(long))
	case types.Bool:
		return [][]byte{EncodeBools(nil), EncodeBools([]int64{1}), EncodeBools([]int64{0, 1, 1, 0, 1, 0, 0, 0, 1, 1, 1}),
			EncodeBools(make([]int64, 300))}
	case types.Float64:
		return floatSelectSeeds()
	}
	return append(decodeSeeds(), encodePackedDict(longStr))
}

// floatSelectSeeds are plain float blocks and ScaledFloat blocks at digit
// counts 0 and 2 and widths 0, 4 and 24 — residuals of 24 bits straddle the
// 64-bit words they are packed in.
func floatSelectSeeds() [][]byte {
	quarters, narrow, wide := make([]float64, 200), make([]float64, 150), make([]float64, 300)
	for i := range quarters {
		quarters[i] = float64(i%37) / 4
	}
	rng := rand.New(rand.NewSource(2))
	for i := range narrow {
		narrow[i] = float64(rng.Intn(11)) / 100
	}
	for i := range wide {
		wide[i] = float64(rng.Int63n(1<<24)-1<<20) / 100
	}
	wide[7] = float64(1<<24-1-1<<20) / 100 // the top residual of the width
	seeds := [][]byte{EncodeFloat64s(nil, true), EncodeFloat64s([]float64{math.NaN(), math.Inf(-1), -0.0, 1.5}, true),
		EncodeFloat64s(quarters, false)}
	for _, c := range []struct {
		vals  []float64
		k     int
		width byte
	}{{slices.Repeat([]float64{7}, 60), 0, 0}, {slices.Repeat([]float64{0.07}, 60), 2, 0},
		{[]float64{3, 9, 1, 15, 4, 4, 12, 0, 7}, 0, 4}, {narrow, 2, 4}, {wide, 2, 24}, {quarters, 2, 10}} {
		buf := EncodeFloat64s(c.vals, true)
		if BlockScheme(buf) != ScaledFloat || int(buf[headerSize+8]) != c.k || buf[headerSize+9] != c.width {
			panic(fmt.Sprintf("%d floats encode as scheme %d, k %d, width %d; want ScaledFloat, %d, %d",
				len(c.vals), BlockScheme(buf), buf[headerSize+8], buf[headerSize+9], c.k, c.width))
		}
		seeds = append(seeds, buf)
	}
	return seeds
}

// seedPreds are predicates of every shape for kind, with operands drawn from
// the block's own values so that each selects some rows and not others.
func seedPreds(k selKind, buf []byte) []vector.Pred {
	all := vector.New(k.kind, 0)
	var a, b int64 = 3, 40
	s := "e"
	if k.decode(buf, 0, min(BlockCount(buf), 1<<12), all) == nil && all.Len() > 2 {
		switch k.kind {
		case types.Float64:
			a, b = int64(all.F[1]*16), int64(all.F[all.Len()/2]*16)
		case types.String:
			s = all.S[all.Len()/2]
		default:
			a, b = all.I[1], all.I[all.Len()/2]
		}
	}
	var preds []vector.Pred
	for _, op := range k.ops {
		preds = append(preds, fuzzPred(op, min(a, b), max(a, b), s), fuzzPred(op, max(a, b), min(a, b), s[:len(s)/2]+"|zz|"+s))
	}
	preds = append(preds, fuzzPred(k.ops[1], math.MinInt64, a, ""), fuzzPred(k.ops[len(k.ops)-1], b, math.MaxInt64, "value-01"))
	if k.kind == types.String && all.Len() > 0 {
		// Every distinct value but the first: a dictionary all of whose
		// entries but one pass.
		var rest []string
		for _, v := range all.S {
			if v != all.S[0] && !slices.Contains(rest, v) {
				rest = append(rest, v)
			}
		}
		preds = append(preds, vector.Pred{Op: vector.PredStrIn, Strs: rest})
	}
	return preds
}

func FuzzSelectGather(f *testing.F) {
	for ki, k := range selKinds {
		for _, buf := range selectSeeds(k.kind) {
			for oi := range k.ops {
				f.Add(uint8(ki), uint8(oi), buf, int16(0), int16(-1), int64(3), int64(40), "e", uint64(0x100))
				f.Add(uint8(ki), uint8(oi), buf, int16(2), int16(30), int64(-5), int64(5), "value-01|a", uint64(0x2305))
				f.Add(uint8(ki), uint8(oi), buf[:len(buf)*2/3], int16(1), int16(-1), int64(0), int64(1), "", uint64(0x4201))
			}
		}
	}
	f.Fuzz(func(t *testing.T, kind, op uint8, buf []byte, skip, n int16, a, b int64, s string, seed uint64) {
		k := selKinds[int(kind)%len(selKinds)]
		checkSelectGather(t, k, buf, int(skip), int(n), fuzzPred(k.ops[int(op)%len(k.ops)], a, b, s), seed)
	})
}

// TestSelectGatherHostile is the fuzz target's twin under go test: every seed
// block of every kind, every predicate shape, a set of windows and position
// densities, whole and with each single byte damaged or the tail cut.
func TestSelectGatherHostile(t *testing.T) {
	for _, k := range selKinds {
		for _, seed := range selectSeeds(k.kind) {
			count := int(binary.LittleEndian.Uint32(seed[1:headerSize]))
			windows := [][2]int{{0, -1}, {0, 0}, {count, 0}, {count / 2, -1}, {1, count / 3}, {count, 1}, {-1, 1}, {count - 1, 1}, {count / 3, count / 2}}
			preds := seedPreds(k, seed)
			for _, w := range windows {
				for _, p := range preds {
					for _, ps := range []uint64{0, 0x1201, 0x3407, 0x550f} {
						checkSelectGather(t, k, seed, w[0], w[1], p, ps)
					}
				}
			}
			if len(seed) > 600 {
				continue // the damage sweep is quadratic; the small blocks cover it
			}
			for cut := 0; cut < len(seed); cut++ {
				checkSelectGather(t, k, seed[:cut], 0, -1, preds[1], 0x1201)
				for _, flip := range []byte{0x01, 0x80, 0xff} {
					bad := append([]byte(nil), seed...)
					bad[cut] ^= flip
					for _, w := range windows[:5] {
						checkSelectGather(t, k, bad, w[0], w[1], preds[len(preds)-1], 0x3407)
						checkSelectGather(t, k, bad, w[0], w[1], preds[2], 0x0)
					}
				}
			}
		}
	}
}

// TestSelectDecidesWhole: a width-0 ForInt block, an RLE run and a dictionary
// no entry or every entry of which passes are decided without reading a
// residual, a row or a code — so a window of them costs its output only, and
// bytes past the frame are never looked at.
func TestSelectDecidesWhole(t *testing.T) {
	constant := encodeForInt(slices.Repeat([]int64{42}, 1000))
	if f, err := parseFor(constant[headerSize:], 1000); err != nil || f.w != 0 {
		t.Fatalf("1000 equal values did not make a width-0 ForInt block (%v)", err)
	}
	dict := EncodeStrings(slices.Repeat([]string{"MAIL", "SHIP", "AIR"}, 300), true)
	if BlockScheme(dict) != PackedDict {
		t.Fatalf("low-cardinality strings did not make a packed dictionary")
	}
	// Damage every code: a select decided per entry never reads one.
	d, _ := parseDict(dict[headerSize:], 900)
	for i := range d.codes {
		d.codes[i] = 0xff
	}
	for _, c := range []struct {
		name string
		sel  func() ([]uint32, error)
		want int
	}{
		{"width-0 in", func() ([]uint32, error) {
			return SelectInt64s(constant, 10, 500, vector.Pred{Op: vector.PredInt64Range, ILo: 40, IHi: 42}, nil)
		}, 500},
		{"width-0 out", func() ([]uint32, error) {
			return SelectInt64s(constant, 10, 500, vector.Pred{Op: vector.PredInt64Range, ILo: 43, IHi: 50}, nil)
		}, 0},
		{"dict none", func() ([]uint32, error) {
			return SelectStrings(dict, 0, 900, vector.Pred{Op: vector.PredStrEq, Strs: []string{"RAIL"}}, nil)
		}, 0},
		{"dict all", func() ([]uint32, error) {
			return SelectStrings(dict, 0, 900, vector.Pred{Op: vector.PredStrContains, Strs: []string{"I"}}, nil)
		}, 900},
	} {
		got, err := c.sel()
		if err != nil || len(got) != c.want {
			t.Errorf("%s: %d rows, err %v; want %d", c.name, len(got), err, c.want)
		}
	}
	// A predicate the dictionary splits must read the damaged codes.
	if _, err := SelectStrings(dict, 0, 900, vector.Pred{Op: vector.PredStrEq, Strs: []string{"AIR"}}, nil); !errors.Is(err, ErrCorrupt) {
		t.Errorf("split dictionary over damaged codes: err %v, want ErrCorrupt", err)
	}
}

// TestScaledFloatHostile: a ScaledFloat frame whose digit count is past the
// table, whose width is past 64 bits (or past the range its integers may
// span), whose base or top integer leaves that range (a base near MaxInt64
// included, whose top would wrap), or whose residuals are cut short —
// its own count's or a claimed 2^32-1 — is ErrCorrupt from every kernel, and
// none of them sizes anything from the claim.
func TestScaledFloatHostile(t *testing.T) {
	vals := make([]float64, 150)
	for i := range vals {
		vals[i] = float64(i%11) / 100
	}
	good := EncodeFloat64s(vals, true)
	if BlockScheme(good) != ScaledFloat {
		t.Fatalf("hundredths encode as scheme %d", BlockScheme(good))
	}
	edit := func(f func(b []byte) []byte) []byte { return f(slices.Clone(good)) }
	// maxBase is a frame at width w whose residuals are all there and whose
	// base is MaxInt64: base+2^w-1 wraps negative.
	maxBase := func(w uint) []byte {
		b := slices.Clone(good[:headerSize+scaledHeaderSize])
		binary.LittleEndian.PutUint64(b[headerSize:], math.MaxInt64)
		b[headerSize+9] = byte(w)
		return append(b, make([]byte, packedLen(len(vals), w))...)
	}
	cases := map[string][]byte{
		"base MaxInt64 width 4":  maxBase(4),
		"base MaxInt64 width 52": maxBase(52),
		"k 5":                    edit(func(b []byte) []byte { b[headerSize+8] = 5; return b }),
		"k 255":                  edit(func(b []byte) []byte { b[headerSize+8] = 255; return b }),
		"width 65":               edit(func(b []byte) []byte { b[headerSize+9] = 65; return b }),
		"width 255":              edit(func(b []byte) []byte { b[headerSize+9] = 255; return b }),
		"width 53":               edit(func(b []byte) []byte { b[headerSize+9] = 53; return b }),
		"base 2^51":              edit(func(b []byte) []byte { binary.LittleEndian.PutUint64(b[headerSize:], 1<<51); return b }),
		"base -2^51":             edit(func(b []byte) []byte { binary.LittleEndian.PutUint64(b[headerSize:], 1<<63|1<<51); return b }),
		"top 2^51":               edit(func(b []byte) []byte { binary.LittleEndian.PutUint64(b[headerSize:], 1<<51-15); return b }),
		"residuals":              good[:len(good)-1],
		"frame":                  good[:headerSize+scaledHeaderSize-1],
		"count 2^32":             edit(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[1:], math.MaxUint32); return b }),
		"count width": edit(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[1:], math.MaxUint32)
			b[headerSize+9] = 64
			return b
		}),
	}
	rows, pos := []uint32{0, 3, 9}, []uint32{0, 1, 2}
	for name, buf := range cases {
		dst := make([]float64, 150)
		calls := map[string]func() error{
			"DecodeFloat64s":      func() error { _, err := DecodeFloat64s(buf, nil); return err },
			"DecodeFloat64sSpans": func() error { return DecodeFloat64sSpans(buf, []Span{{Row: 2, N: 100}}, dst) },
			"GatherFloat64sAt":    func() error { return GatherFloat64sAt(buf, 0, rows, pos, dst) },
			"SelectFloat64s/none": func() error {
				_, err := SelectFloat64s(buf, 0, 10, vector.Pred{Op: vector.PredNone}, nil)
				return err
			},
			"SelectFloat64s/range": func() error {
				_, err := SelectFloat64s(buf, 0, -1, vector.Pred{Op: vector.PredFloat64Range, FLo: 0.02, FHi: 0.05}, nil)
				return err
			},
			"SelectFloat64s/lt": func() error {
				_, err := SelectFloat64s(buf, 0, -1, vector.Pred{Op: vector.PredFloat64Lt, FHi: 0.05}, nil)
				return err
			},
			"SelectFloat64s/lt 0": func() error {
				_, err := SelectFloat64s(buf, 0, -1, vector.Pred{Op: vector.PredFloat64Lt, FHi: 0}, nil)
				return err
			},
			"SelectFloat64s/lt past 2^63": func() error {
				_, err := SelectFloat64s(buf, 0, -1, vector.Pred{Op: vector.PredFloat64Lt, FHi: 0x1p63 + 0x1p40}, nil)
				return err
			},
			"SelectFloat64s/range past 2^63": func() error {
				_, err := SelectFloat64s(buf, 0, -1, vector.Pred{Op: vector.PredFloat64Range, FLo: 1, FHi: 0x1p63 + 0x1p40}, nil)
				return err
			},
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
		if !slices.Equal(dst, make([]float64, 150)) {
			t.Errorf("%s: a kernel wrote values", name)
		}
	}
}

// packedBenchWidths are the residual widths of the bit-packed kernels'
// microbenchmark blocks: a discount or flag column, a shipdate block, a key
// block, and wider ones up to the last width a single load reads.
var packedBenchWidths = []int{4, 12, 24, 40, 56}

// forBenchBlock is a ForInt block of 4096 random values of w bits: no line
// fits them, so its residuals are w bits wide.
func forBenchBlock(b *testing.B, w int) []byte {
	rng := rand.New(rand.NewSource(int64(w)))
	vals := make([]int64, 4096)
	for i := range vals {
		vals[i] = rng.Int63n(1 << w)
	}
	buf := EncodeInt64s(vals, true)
	if BlockScheme(buf) != ForInt {
		b.Fatalf("width %d: scheme %d", w, BlockScheme(buf))
	}
	return buf
}

// BenchmarkDecodeInt64s decodes each ForInt block whole into a reused
// buffer, through unpack.
func BenchmarkDecodeInt64s(b *testing.B) {
	for _, w := range packedBenchWidths {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			buf, dst := forBenchBlock(b, w), make([]int64, 0, 4096)
			b.SetBytes(8 * 4096)
			for i := 0; i < b.N; i++ {
				intSink, _ = DecodeInt64s(buf, dst)
			}
		})
	}
}

var intSink []int64

// BenchmarkSelectInt64s filters each ForInt block whole by a range keeping
// about half its values, through selectResiduals.
func BenchmarkSelectInt64s(b *testing.B) {
	for _, w := range packedBenchWidths {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			buf, out := forBenchBlock(b, w), make([]uint32, 0, 4096)
			p := vector.Pred{Op: vector.PredInt64Range, ILo: 1 << (w - 2), IHi: 3 << (w - 2)}
			for i := 0; i < b.N; i++ {
				out, _ = SelectInt64s(buf, 0, 4096, p, out[:0])
			}
		})
	}
}

// BenchmarkSelectFloat64s runs Q6's float filters over lineitem-shaped
// blocks: discount in [0.05, 0.07] and quantity < 24, each on its
// ScaledFloat block and on the PlainFloat block of the same values.
func BenchmarkSelectFloat64s(b *testing.B) {
	blocks := lineitemFloats()
	for _, c := range []struct {
		name, block string
		p           vector.Pred
	}{
		{"discount", "discount", vector.Pred{Op: vector.PredFloat64Range, FLo: 0.05, FHi: 0.07}},
		{"quantity", "quantity", vector.Pred{Op: vector.PredFloat64Lt, FHi: 24}},
	} {
		for _, compress := range []bool{true, false} {
			b.Run(fmt.Sprintf("%s/compressed=%v", c.name, compress), func(b *testing.B) {
				buf, out := EncodeFloat64s(blocks[c.block], compress), make([]uint32, 0, 4096)
				for i := 0; i < b.N; i++ {
					out, _ = SelectFloat64s(buf, 0, 4096, c.p, out[:0])
				}
			})
		}
	}
}
