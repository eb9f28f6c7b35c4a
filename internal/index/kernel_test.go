package index

// Tests of the three per-value kernels Build, Rebuild and CanSkip share: the
// blocked Bloom filter (never a false negative, false positives near 2 % at
// bloomBitsPerRow bits per value), the bounded distinct count over its fixed
// open-addressed table, and the whole summary over arbitrary block bytes.

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"pdtstore/internal/colstore"
	"pdtstore/internal/compress"
	"pdtstore/internal/engine"
	"pdtstore/internal/tpch"
	"pdtstore/internal/types"
)

var bloomSizes = []int{1, 2, 63, 64, 65, 512, 4096, 8192}

// intSets draws the value sets the Bloom tests add, n values each.
func intSets(n int) map[string][]int64 {
	rng := rand.New(rand.NewSource(int64(n)))
	seq, strided, random, negative, edges := make([]int64, n), make([]int64, n), make([]int64, n), make([]int64, n), make([]int64, n)
	for i := 0; i < n; i++ {
		seq[i], strided[i], random[i], negative[i] = int64(i), int64(i)*7919, int64(rng.Uint64()), -int64(i)-1
		// 0, MinInt64 and MaxInt64 first, then their neighbours
		switch k := int64(i / 3); i % 3 {
		case 0:
			edges[i] = k
		case 1:
			edges[i] = math.MinInt64 + k
		case 2:
			edges[i] = math.MaxInt64 - k
		}
	}
	return map[string][]int64{"sequential": seq, "strided": strided, "random": random, "negative": negative, "edges": edges}
}

// strSets draws the string sets the Bloom tests add, n values each: the
// empty string, every one-byte string and then two-byte ones; 200-byte
// strings differing in two bytes; strings sharing a 224-byte prefix.
func strSets(n int) map[string][]string {
	short, long, prefixed := make([]string, n), make([]string, n), make([]string, n)
	prefix := strings.Repeat("shared-prefix/", 16)
	for i := 0; i < n; i++ {
		switch {
		case i == 0:
			short[i] = ""
		case i <= 256:
			short[i] = string([]byte{byte(i - 1)})
		default:
			short[i] = string([]byte{byte(i), byte(i >> 8)})
		}
		b := []byte(strings.Repeat("x", 200))
		b[7], b[150] = byte(i), byte(i>>8)
		long[i] = string(b)
		prefixed[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return map[string][]string{"short": short, "long": long, "prefix": prefixed}
}

func TestBloomNoFalseNegatives(t *testing.T) {
	for _, n := range bloomSizes {
		for name, vals := range intSets(n) {
			bits := newBloom(n)
			for _, v := range vals {
				bloomAdd(bits, hashInt(v))
			}
			for _, v := range vals {
				if !bloomHas(bits, hashInt(v)) {
					t.Fatalf("n=%d %s: %d added but absent", n, name, v)
				}
			}
		}
		for name, vals := range strSets(n) {
			bits := newBloom(n)
			for _, v := range vals {
				bloomAdd(bits, hashStr(v))
			}
			for _, v := range vals {
				if !bloomHas(bits, hashStr(v)) {
					t.Fatalf("n=%d %s: %q added but absent", n, name, v)
				}
			}
		}
	}
}

// TestBloomValueSetsOneWord: a value sets 1 to bloomHashes bits, all in one
// word, whatever the filter's size.
func TestBloomValueSetsOneWord(t *testing.T) {
	for _, n := range bloomSizes {
		for _, v := range intSets(n)["random"] {
			filter := newBloom(n)
			bloomAdd(filter, hashInt(v))
			words, set := 0, 0
			for _, w := range filter {
				if w != 0 {
					words++
					set += bits.OnesCount64(w)
				}
			}
			if words != 1 || set < 1 || set > bloomHashes {
				t.Fatalf("n=%d: %d set %d bits in %d words", n, v, set, words)
			}
		}
	}
}

// TestBloomFalsePositiveRate holds the filter to at most 2.5 % false
// positives over 100 000 absent probes per filter, for ints and strings.
func TestBloomFalsePositiveRate(t *testing.T) {
	const probes, bound = 100_000, 0.025
	for _, n := range []int{512, 4096, 8192} {
		bits := newBloom(n)
		for i := 0; i < n; i++ {
			bloomAdd(bits, hashInt(int64(i)))
		}
		hits := 0
		for i := 0; i < probes; i++ {
			if bloomHas(bits, hashInt(int64(n+i))) {
				hits++
			}
		}
		rate := float64(hits) / probes
		t.Logf("ints    n=%5d: %.2f%% false positives", n, 100*rate)
		if rate > bound {
			t.Errorf("ints n=%d: %.2f%% false positives, want ≤ %.1f%%", n, 100*rate, 100*bound)
		}

		bits = newBloom(n)
		for i := 0; i < n; i++ {
			bloomAdd(bits, hashStr(fmt.Sprintf("key-%d", i)))
		}
		hits = 0
		for i := 0; i < probes; i++ {
			if bloomHas(bits, hashStr(fmt.Sprintf("absent-%d", i))) {
				hits++
			}
		}
		rate = float64(hits) / probes
		t.Logf("strings n=%5d: %.2f%% false positives", n, 100*rate)
		if rate > bound {
			t.Errorf("strings n=%d: %.2f%% false positives, want ≤ %.1f%%", n, 100*rate, 100*bound)
		}
	}
}

// TestDistinctAtTheBoundary: the exact arm exists iff a block holds at most
// maxExact distinct values, and it is the sort-and-dedup of the block, with
// duplicates adjacent or scattered, for ints and strings, and under a hash
// that sends every value to one slot (the probe must walk and wrap).
func TestDistinctAtTheBoundary(t *testing.T) {
	sameSlot := func(int64) uint64 { return math.MaxUint64 }
	for _, card := range []int{maxExact - 1, maxExact, maxExact + 1} {
		for _, layout := range []string{"adjacent", "scattered"} {
			ints, strs := make([]int64, 0, 3*card), make([]string, 0, 3*card)
			for i := 0; i < 3*card; i++ {
				v := i / 3 // each value three times in a row
				if layout == "scattered" {
					v = (i * 7) % card
				}
				ints = append(ints, int64(v)*1_000_003-500)
				strs = append(strs, fmt.Sprintf("v%d", v))
			}
			name := fmt.Sprintf("%d/%s", card, layout)
			exact := card <= maxExact
			for hname, hash := range map[string]func(int64) uint64{"hashInt": hashInt, "sameSlot": sameSlot} {
				got, ok := distinct(ints, hash)
				if ok != exact {
					t.Fatalf("ints %s %s: exact=%v, want %v", name, hname, ok, exact)
				}
				if exact && !reflect.DeepEqual(got, dedupInt64s(ints)) {
					t.Fatalf("ints %s %s: %d values differ from the sort-and-dedup", name, hname, len(got))
				}
			}
			got, ok := distinct(strs, hashStr)
			if ok != exact {
				t.Fatalf("strings %s: exact=%v, want %v", name, ok, exact)
			}
			if exact && !reflect.DeepEqual(got, dedupStrings(strs)) {
				t.Fatalf("strings %s: %d values differ from the sort-and-dedup", name, len(got))
			}
		}
	}
}

// TestBuildEqualsRebuildAllDirty: a Rebuild that finds every block dirty
// builds the summaries Build does.
func TestBuildEqualsRebuildAllDirty(t *testing.T) {
	cols := []int{1, 2, 3, 4}
	old, err := Build(buildStore(t, 700, 256), cols)
	if err != nil {
		t.Fatal(err)
	}
	st := buildStore(t, 2500, 512)
	want, err := Build(st, cols)
	if err != nil {
		t.Fatal(err)
	}
	got, err := old.Rebuild(st, st.NumBlocks(), func(int, int) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.cols, want.cols) {
		t.Fatal("Rebuild with every block dirty differs from Build")
	}
}

// fuzzMaxValues bounds the value count FuzzBuildSummary summarizes, as
// summarize's block-count check bounds it by the image's rows.
const fuzzMaxValues = 1 << 14

// FuzzBuildSummary: arbitrary bytes summarized as an Int64, String or Bool
// block never panic, fail only with ErrCorrupt and match the sort-and-dedup
// path. When they decode as that kind, every decoded value probes "maybe",
// and the exact arm, taken iff 1 to maxExact values are distinct, is their
// sorted distinct set (a superset of it for a dictionary block). Seeded with
// a block of every scheme TestSummariesMatchDedupPath reaches.
func FuzzBuildSummary(f *testing.F) {
	line, runs, packed, seq := make([]int64, 600), make([]int64, 600), make([]int64, 600), make([]int64, 600)
	cats, words, bools := make([]string, 600), make([]string, 600), make([]int64, 600)
	for i := range line {
		line[i] = 1_000 + 7*int64(i)
		runs[i] = int64(i / 100)
		packed[i] = int64((i * 7919) % 1000)
		seq[i] = int64(i) * 1_000_003
		cats[i] = fmt.Sprintf("c%d", i%5)
		words[i] = fmt.Sprintf("w%d", i)
		bools[i] = int64(i % 3 / 2)
	}
	kinds := []types.Kind{types.Int64, types.String, types.Bool}
	for _, seed := range []struct {
		kind int
		enc  []byte
	}{
		{0, compress.EncodeInt64s(seq, false)},   // PlainInt
		{0, compress.EncodeInt64s(runs, true)},   // RLEInt
		{0, compress.EncodeInt64s(line, true)},   // ForInt, width 0
		{0, compress.EncodeInt64s(packed, true)}, // ForInt, packed
		{1, compress.EncodeStrings(words, false)},
		{1, compress.EncodeStrings(cats, true)},  // PackedDict
		{1, compress.EncodeStrings(words, true)}, // FramedString
		{2, compress.EncodeBools(bools)},
	} {
		f.Add(uint8(seed.kind), seed.enc)
	}
	f.Fuzz(func(t *testing.T, k uint8, enc []byte) {
		if n := compress.BlockCount(enc); n > fuzzMaxValues {
			t.Skip()
		}
		kind := kinds[int(k)%len(kinds)]
		sum, err := buildSummary(kind, enc)
		if err != nil {
			if !errors.Is(err, compress.ErrCorrupt) {
				t.Fatalf("%v block: %v, want ErrCorrupt", kind, err)
			}
			return
		}
		if want, _ := refBuildSummary(kind, enc); !reflect.DeepEqual(sum, want) {
			t.Fatalf("%v block: summary differs from the sort-and-dedup path", kind)
		}
		// A dictionary block's exact arm is its dictionary, which hostile bytes
		// can pad with values no row uses: a superset, still sound.
		superset := compress.BlockScheme(enc) == compress.PackedDict
		s := &Set{cols: map[int][]summary{0: {sum}}}
		switch kind {
		case types.String:
			vals, err := compress.DecodeStrings(enc, nil)
			if err != nil {
				return
			}
			checkExact(t, sum.strs, dedupStrings(vals), superset)
			for _, v := range vals {
				if skip, _ := s.CanSkip(engine.Pred{Col: 0, Op: engine.PredStrEq, Strs: []string{v}}, 0); skip {
					t.Fatalf("decoded %q is skipped", v)
				}
			}
		default:
			decode := compress.DecodeInt64s
			if kind == types.Bool {
				decode = compress.DecodeBools
			}
			vals, err := decode(enc, nil)
			if err != nil {
				return
			}
			checkExact(t, sum.ints, dedupInt64s(vals), superset)
			for _, v := range vals {
				if skip, _ := s.CanSkip(engine.Pred{Col: 0, Op: engine.PredInt64Range, ILo: v, IHi: v, Eq: true}, 0); skip {
					t.Fatalf("decoded %d is skipped", v)
				}
			}
		}
	})
}

// checkExact holds an exact arm to a block's sorted distinct decoded values
// want: present iff there are 1 to maxExact of them, and equal to them — or,
// when superset is set, holding each of them (a Bloom arm is then allowed
// too).
func checkExact[T cmp.Ordered](t *testing.T, exact, want []T, superset bool) {
	t.Helper()
	if superset {
		for _, v := range want {
			if _, found := slices.BinarySearch(exact, v); exact != nil && !found {
				t.Fatalf("exact arm of %d values lacks decoded %v", len(exact), v)
			}
		}
		return
	}
	if (exact != nil) != (len(want) > 0 && len(want) <= maxExact) || exact != nil && !reflect.DeepEqual(exact, want) {
		t.Fatalf("exact arm %d values, want the %d distinct decoded", len(exact), len(want))
	}
}

// BenchmarkIndexBuild times the summaries an Open builds: l_partkey (Bloom
// arm) and l_shipmode (dictionary, exact arm) of TPC-H lineitem at SF 0.01,
// compressed, 4096-row blocks.
func BenchmarkIndexBuild(b *testing.B) {
	_, rows := tpch.NewGen(0.01, 1).OrdersAndLineitems()
	st, err := colstore.BulkLoad(tpch.LineitemSchema, nil, 4096, true, rows)
	if err != nil {
		b.Fatal(err)
	}
	cols := []int{tpch.LPartkey, tpch.LShipmode}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(st, cols); err != nil {
			b.Fatal(err)
		}
	}
}
