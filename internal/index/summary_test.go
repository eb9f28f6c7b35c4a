package index

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"pdtstore/internal/compress"
	"pdtstore/internal/types"
)

// refBuildSummary is buildSummary as it stood before the bounded distinct
// count: copy the block, sort all of it, dedup, and only then look at how many
// values survived. The reference TestSummariesMatchDedupPath holds the new
// path to.
func refBuildSummary(kind types.Kind, enc []byte) (summary, error) {
	sum := summary{kind: kind}
	switch kind {
	case types.String:
		vals, ok, err := compress.DictValues(enc)
		if err != nil {
			return sum, err
		}
		if !ok {
			if vals, err = compress.DecodeStrings(enc, vals[:0]); err != nil {
				return sum, err
			}
		}
		distinct := dedupStrings(vals)
		if len(distinct) <= maxExact {
			sum.strs = distinct
			return sum, nil
		}
		sum.bits = newBloom(len(vals))
		for _, v := range vals {
			bloomAdd(sum.bits, hashStr(v))
		}
	case types.Bool:
		vals, err := compress.DecodeBools(enc, nil)
		if err != nil {
			return sum, err
		}
		sum.ints = dedupInt64s(vals)
	default: // Int64, Date
		vals, ok, err := compress.RunValues(enc)
		if err != nil {
			return sum, err
		}
		if !ok {
			if vals, err = compress.DecodeInt64s(enc, vals[:0]); err != nil {
				return sum, err
			}
		}
		distinct := dedupInt64s(vals)
		if len(distinct) <= maxExact {
			sum.ints = distinct
			return sum, nil
		}
		sum.bits = newBloom(len(vals))
		for _, v := range vals {
			bloomAdd(sum.bits, hashInt(v))
		}
	}
	return sum, nil
}

func dedupInt64s(vals []int64) []int64 {
	out := append([]int64(nil), vals...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	n := 0
	for i, v := range out {
		if i == 0 || v != out[n-1] {
			out[n] = v
			n++
		}
	}
	return out[:n]
}

func dedupStrings(vals []string) []string {
	out := append([]string(nil), vals...)
	sort.Strings(out)
	n := 0
	for i, v := range out {
		if i == 0 || v != out[n-1] {
			out[n] = v
			n++
		}
	}
	return out[:n]
}

// TestSummariesMatchDedupPath: counting distinct values with a set that bails
// at maxExact+1 yields the summary the sort-everything path built, on both
// sides of the exact/Bloom boundary and for every encoding a block can take
// (the table checks it reached each of them, a width-0 ForInt line included).
func TestSummariesMatchDedupPath(t *testing.T) {
	const n = 4096
	ints := map[string][]int64{"empty": {}, "one": {-5}}
	for _, step := range []int64{1, 7, -3} { // dense lines: width-0 ForInt, every value distinct
		line := make([]int64, n)
		for i := range line {
			line[i] = 1_000 + int64(i)*step
		}
		ints[fmt.Sprintf("line-%d", step)] = line
	}
	ints["line-short"] = []int64{10, 20, 30, 40, 50}
	strs := map[string][]string{"empty": {}, "one": {""}}
	for _, card := range []int{1, 2, 50, maxExact - 1, maxExact, maxExact + 1, 1000, n} {
		scattered, sorted, runs := make([]int64, n), make([]int64, n), make([]int64, n)
		cats, sortedCats := make([]string, n), make([]string, n)
		for i := 0; i < n; i++ {
			scattered[i] = int64((i*7919)%card)*1_000_003 - 77
			sorted[i] = int64(i * card / n)
			runs[i] = -int64(i / (n / card))
			cats[i] = fmt.Sprintf("c%d", (i*31)%card)
			sortedCats[i] = fmt.Sprintf("%06d", i*card/n)
		}
		ints[fmt.Sprintf("scattered-%d", card)] = scattered
		ints[fmt.Sprintf("sorted-%d", card)] = sorted
		ints[fmt.Sprintf("runs-%d", card)] = runs
		strs[fmt.Sprintf("cats-%d", card)] = cats
		strs[fmt.Sprintf("sorted-cats-%d", card)] = sortedCats
	}
	seen := map[string]bool{}
	check := func(name string, kind types.Kind, enc []byte) {
		t.Helper()
		scheme := fmt.Sprint(compress.BlockScheme(enc))
		if compress.BlockScheme(enc) == compress.ForInt {
			_, line, _ := compress.RunValues(enc)
			scheme += fmt.Sprintf("/width-0=%v", line)
		}
		seen[scheme] = true
		got, err := buildSummary(kind, enc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, _ := refBuildSummary(kind, enc)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s (scheme %d): summary differs from the dedup path: %d/%d ints, %d/%d strs, %d/%d bloom words",
				name, compress.BlockScheme(enc), len(got.ints), len(want.ints), len(got.strs), len(want.strs), len(got.bits), len(want.bits))
		}
	}
	for _, compressed := range []bool{true, false} {
		for name, vals := range ints {
			check(fmt.Sprintf("int/%s/compressed=%v", name, compressed), types.Int64, compress.EncodeInt64s(vals, compressed))
		}
		for name, vals := range strs {
			check(fmt.Sprintf("string/%s/compressed=%v", name, compressed), types.String, compress.EncodeStrings(vals, compressed))
		}
	}
	bools := make([]int64, 100)
	check("bool/all-false", types.Bool, compress.EncodeBools(bools))
	bools[40] = 1
	check("bool/mixed", types.Bool, compress.EncodeBools(bools))
	check("bool/empty", types.Bool, compress.EncodeBools(nil))
	for _, want := range []string{
		fmt.Sprint(compress.PlainInt), fmt.Sprint(compress.RLEInt),
		fmt.Sprintf("%d/width-0=true", compress.ForInt), fmt.Sprintf("%d/width-0=false", compress.ForInt),
		fmt.Sprint(compress.PlainString), fmt.Sprint(compress.PackedDict), fmt.Sprint(compress.FramedString),
	} {
		if !seen[want] {
			t.Errorf("no block of scheme %s was summarized (saw %v)", want, seen)
		}
	}
}
