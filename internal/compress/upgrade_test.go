package compress

// Upgrade against hostile bytes: whatever the buffer, it returns ErrCorrupt,
// the buffer itself when it is a block in a written scheme, or — for a block
// of a retired scheme — the block EncodeInt64s or EncodeStrings writes for
// exactly what a slow, one-value-at-a-time reading of the retired format
// returns; and it never panics. The references below are that reading. The
// kernels, for their part, know no retired scheme.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"testing"

	"pdtstore/internal/vector"
)

// upgraded is the block Upgrade makes of a valid retired block.
func upgraded(buf []byte) []byte {
	out, err := Upgrade(buf)
	if err != nil {
		panic(err)
	}
	return out
}

// refDecodeDeltas reads a whole delta-varint block one value at a time. It
// accepts exactly the blocks the format defines: a zigzag varint per value of
// the count, each the difference from the value before (0 before the first).
func refDecodeDeltas(buf []byte) ([]int64, error) {
	if len(buf) < headerSize {
		return nil, corrupt("reference: truncated header")
	}
	count := int(binary.LittleEndian.Uint32(buf[1:headerSize]))
	body := buf[headerSize:]
	var out []int64
	prev := int64(0)
	for i := 0; i < count; i++ {
		u, sz := binary.Uvarint(body)
		if sz <= 0 {
			return nil, corrupt("reference: delta")
		}
		body = body[sz:]
		prev += unzigzag(u)
		out = append(out, prev)
	}
	return out, nil
}

// refDecodeVarintDict reads a whole varint-code dictionary block one value at
// a time, copying each. It accepts exactly the blocks the format defines: a
// whole dictionary that parses — a varint entry count, each entry a varint
// length and that many bytes — and then a varint code below its length per
// value of the count.
func refDecodeVarintDict(buf []byte) ([]string, error) {
	if len(buf) < headerSize {
		return nil, corrupt("reference: truncated header")
	}
	count := int(binary.LittleEndian.Uint32(buf[1:headerSize]))
	body := buf[headerSize:]
	dictLen, sz := binary.Uvarint(body)
	if sz <= 0 {
		return nil, corrupt("reference: dictionary length")
	}
	body = body[sz:]
	var dict []string
	for i := uint64(0); i < dictLen; i++ {
		l, sz := binary.Uvarint(body)
		if sz <= 0 || l > uint64(len(body)-sz) {
			return nil, corrupt("reference: dictionary entry")
		}
		dict = append(dict, string(body[sz:sz+int(l)]))
		body = body[sz+int(l):]
	}
	var out []string
	for i := 0; i < count; i++ {
		code, sz := binary.Uvarint(body)
		if sz <= 0 || code >= dictLen {
			return nil, corrupt("reference: code")
		}
		body = body[sz:]
		out = append(out, dict[code])
	}
	return out, nil
}

// checkUpgrade holds one buffer's upgrade to the reference reading.
func checkUpgrade(t testing.TB, buf []byte) {
	t.Helper()
	out, err := Upgrade(buf)
	if err != nil && !errors.Is(err, ErrCorrupt) {
		t.Fatalf("error %v is not ErrCorrupt", err)
	}
	retired := map[Scheme]bool{DeltaVarint: true, DictString: true}
	switch scheme := BlockScheme(buf); {
	case len(buf) >= headerSize && scheme >= PlainInt && scheme <= ScaledFloat && !retired[scheme]:
		if err != nil || len(out) != len(buf) || &out[0] != &buf[0] {
			t.Fatalf("a scheme %d block was not returned as it is (err %v)", scheme, err)
		}
	case scheme == DeltaVarint:
		want, werr := refDecodeDeltas(buf)
		checkUpgraded(t, out, err, want, werr, func(vals []int64) []byte { return refEncodeInt64s(vals, true) }, DecodeInt64s)
	case scheme == DictString:
		want, werr := refDecodeVarintDict(buf)
		checkUpgraded(t, out, err, want, werr, func(vals []string) []byte { return refEncodeStrings(vals, true) }, DecodeStrings)
	case err == nil:
		t.Fatalf("upgraded %d bytes of scheme %d", len(buf), scheme)
	}
}

// checkUpgraded holds the upgrade of a retired block to its reference reading
// want (or rejection werr): the reference encoder's block for want, which the
// kernels' whole decode reads back as want.
func checkUpgraded[T comparable](t testing.TB, out []byte, err error, want []T, werr error,
	ref func([]T) []byte, decode func([]byte, []T) ([]T, error)) {
	t.Helper()
	switch {
	case err != nil && werr == nil:
		t.Fatalf("%v, but the reference reads %d values", err, len(want))
	case err == nil && werr != nil:
		t.Fatalf("upgraded a block the reference rejects: %v", werr)
	case err != nil:
		return
	}
	if !bytes.Equal(out, ref(want)) {
		t.Fatalf("upgraded to scheme %d, %d bytes; the reference encoder writes scheme %d, %d bytes",
			BlockScheme(out), len(out), BlockScheme(ref(want)), len(ref(want)))
	}
	got, err := decode(out, nil)
	if err != nil || !slices.Equal(got, want) {
		t.Fatalf("the upgraded block decodes to %v (%v), want %v", got, err, want)
	}
}

// upgradeSeeds are valid retired blocks — delta-varint blocks of every int
// shape the decode seeds hold, varint-code dictionaries with one- and
// two-byte codes (more than 128 entries) — and one written block per kind,
// both float schemes among them.
func upgradeSeeds() [][]byte {
	blocks := intBlocks()
	var seeds [][]byte
	for _, name := range []string{"empty", "one", "extremes", "two-equal", "sorted", "noisy-line", "runs", "near-max", "widths"} {
		seeds = append(seeds, encodeDeltaVarint(blocks[name][:min(len(blocks[name]), 200)]))
	}
	wide := make([]string, 300)
	for i := range wide {
		wide[i] = fmt.Sprintf("value-%03d", i%150)
	}
	for _, vals := range [][]string{nil, {""}, {"", "a", "bc", "", "def", "ghij"}, stringBlocks()["low-cardinality"][:64], wide} {
		seeds = append(seeds, encodeDictString(vals))
	}
	return append(seeds, EncodeInt64s(blocks["sorted"][:50], true), EncodeStrings(wide, true),
		EncodeFloat64s([]float64{1.5, -2}, false), EncodeFloat64s(slices.Repeat([]float64{1.5, -2, 0.25}, 8), true),
		EncodeBools([]int64{1, 0, 1}))
}

// FuzzUpgradeBlock fuzzes Upgrade over any bytes.
func FuzzUpgradeBlock(f *testing.F) {
	for _, buf := range upgradeSeeds() {
		f.Add(buf)
		f.Add(buf[:len(buf)*2/3])
	}
	f.Fuzz(func(t *testing.T, buf []byte) { checkUpgrade(t, buf) })
}

// TestUpgradeHostile is the fuzz target's twin under go test: every seed
// block, whole and with each single byte damaged or the tail cut.
func TestUpgradeHostile(t *testing.T) {
	for _, seed := range upgradeSeeds() {
		checkUpgrade(t, seed)
		if len(seed) > 600 {
			continue // the damage sweep is quadratic; the small blocks cover it
		}
		for cut := 0; cut < len(seed); cut++ {
			checkUpgrade(t, seed[:cut])
			for _, flip := range []byte{0x01, 0x80, 0xff} {
				bad := append([]byte(nil), seed...)
				bad[cut] ^= flip
				checkUpgrade(t, bad)
			}
		}
	}
}

// TestKernelsRejectRetiredSchemes: the kernels know the written schemes alone.
// Every select, gather, span and whole decode, search and dictionary read of a
// valid retired block is ErrCorrupt and yields no value, so a block that
// skipped Upgrade fails loudly instead of reading wrong.
func TestKernelsRejectRetiredSchemes(t *testing.T) {
	delta := encodeDeltaVarint([]int64{3, 5, 5, 9, 12, 40})
	dict := encodeDictString([]string{"a", "b", "a", "c", "b", "a"})
	rows, pos := []uint32{0, 2, 5}, []uint32{0, 1, 2}
	spans := []Span{{Row: 0, At: 0, N: 2}, {Row: 3, At: 2, N: 3}}
	for _, buf := range [][]byte{delta, dict} {
		ints, floats, strs := make([]int64, 6), make([]float64, 6), make([]string, 6)
		sel := func(f func([]byte, int, int, vector.Pred, []uint32) ([]uint32, error), p vector.Pred) func() error {
			return func() error {
				out, err := f(buf, 0, -1, p, nil)
				if len(out) > 0 {
					t.Errorf("scheme %d: a select kept %v", BlockScheme(buf), out)
				}
				return err
			}
		}
		whole := func(err error, n int) error {
			if n > 0 {
				t.Errorf("scheme %d: a whole decode yielded %d values", BlockScheme(buf), n)
			}
			return err
		}
		calls := map[string]func() error{
			"SelectInt64s":        sel(SelectInt64s, vector.Pred{Op: vector.PredInt64Range, ILo: 0, IHi: 100}),
			"SelectInt64s/all":    sel(SelectInt64s, vector.Pred{Op: vector.PredNone}),
			"SelectBools":         sel(SelectBools, vector.Pred{Op: vector.PredNone}),
			"SelectFloat64s":      sel(SelectFloat64s, vector.Pred{Op: vector.PredNone}),
			"SelectStrings":       sel(SelectStrings, vector.Pred{Op: vector.PredStrIn, Strs: []string{"a", "b"}}),
			"SelectStrings/all":   sel(SelectStrings, vector.Pred{Op: vector.PredNone}),
			"GatherInt64sAt":      func() error { return GatherInt64sAt(buf, 0, rows, pos, ints) },
			"GatherBoolsAt":       func() error { return GatherBoolsAt(buf, 0, rows, pos, ints) },
			"GatherFloat64sAt":    func() error { return GatherFloat64sAt(buf, 0, rows, pos, floats) },
			"GatherStringsAt":     func() error { return GatherStringsAt(buf, 0, rows, pos, strs) },
			"DecodeInt64sSpans":   func() error { return DecodeInt64sSpans(buf, spans, ints) },
			"DecodeBoolsSpans":    func() error { return DecodeBoolsSpans(buf, spans, ints) },
			"DecodeFloat64sSpans": func() error { return DecodeFloat64sSpans(buf, spans, floats) },
			"DecodeStringsSpans":  func() error { return DecodeStringsSpans(buf, spans, strs) },
			"DecodeInt64s":        func() error { v, err := DecodeInt64s(buf, nil); return whole(err, len(v)) },
			"DecodeBools":         func() error { v, err := DecodeBools(buf, nil); return whole(err, len(v)) },
			"DecodeFloat64s":      func() error { v, err := DecodeFloat64s(buf, nil); return whole(err, len(v)) },
			"DecodeStrings":       func() error { v, err := DecodeStrings(buf, nil); return whole(err, len(v)) },
			"SearchInt64s": func() error {
				_, _, err := SearchInt64s(buf, 0, 6, 9)
				return err
			},
			"DictValues": func() error {
				v, ok, err := DictValues(buf)
				if ok {
					t.Errorf("scheme %d: a dictionary of %d values", BlockScheme(buf), len(v))
				}
				return err
			},
		}
		for name, call := range calls {
			if err := call(); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s of a scheme %d block: err = %v, want ErrCorrupt", name, BlockScheme(buf), err)
			}
		}
		if !slices.Equal(ints, make([]int64, 6)) || !slices.Equal(floats, make([]float64, 6)) || !slices.Equal(strs, make([]string, 6)) {
			t.Errorf("scheme %d: a kernel wrote values %v %v %q", BlockScheme(buf), ints, floats, strs)
		}
	}
}
