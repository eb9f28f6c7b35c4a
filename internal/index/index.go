// Package index implements PDT-maintained secondary indexes over the stable
// image: per-(column, block) value summaries that answer "can this block hold
// a row satisfying this predicate?" without touching the block. Two summary
// shapes cover the selectivity spectrum:
//
//   - An exact sorted distinct set when the block holds at most maxExact
//     distinct values (categorical and low-cardinality columns — built
//     straight from the dictionary of a dictionary block, the run values of
//     an RLEInt block or the line of a width-0 ForInt block, never
//     materializing rows). Exact sets answer equality, membership, range and
//     prefix probes.
//   - A blocked Bloom filter otherwise: bloomBitsPerRow bits per row in 64-bit
//     words, and each value's bloomHashes bits in the one word its hash picks
//     (Putze, Sanders and Singler, "Cache-, Hash- and Space-Efficient Bloom
//     Filters", WEA 2007), so adding or probing a value reads one word, at
//     about 2% false positives. Blooms answer equality and membership only,
//     with one-sided error: a negative is certain, so a "skip" is always
//     sound. Values are hashed without a per-process seed, so skip decisions
//     repeat across runs.
//
// Summaries describe the stable image only. Consistency under unfolded PDT
// deltas is the scan's job, and it is positional: the engine's prune pass
// never skips a block the pinned layer stack touches (see engine.PruneBlocks),
// so a probe answer is only ever applied to blocks whose stable content IS
// the snapshot's content. That split is what lets the index be maintained
// lazily — rebuilt only at fold/checkpoint time, from exactly the dirty-block
// map the incremental checkpoint already computes — while reads stay
// snapshot-consistent at every moment in between.
//
// A Set is immutable once built and rides a store's Aux sidecar: shared
// ("no-write") checkpoints reuse it via CloneShared verbatim, incremental
// checkpoints Rebuild it reusing every clean region-A summary, and full
// rewrites Build afresh. Summaries live in memory only — no byte of a segment
// holds them — so every Open builds them again from the encoded blocks.
package index

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"pdtstore/internal/colstore"
	"pdtstore/internal/compress"
	"pdtstore/internal/engine"
	"pdtstore/internal/types"
)

const (
	// maxExact is the distinct-value ceiling for the exact summary arm.
	maxExact = 256
	// bloomBitsPerRow sizes the Bloom arm: about 2% false positives with
	// bloomHashes bits per value in one 64-bit word (an unblocked filter of
	// the same size would give about 1.2%, at four scattered word reads).
	bloomBitsPerRow = 10
	// bloomHashes is the number of bits a value sets, all in one word
	// (bloomWord's four 6-bit fields).
	bloomHashes = 4
	// distinctBits sizes distinct's open-addressed table: distinctSlots is
	// at least twice maxExact.
	distinctBits  = 9
	distinctSlots = 1 << distinctBits
)

// summary is one block's value digest: exactly one arm is populated.
type summary struct {
	kind types.Kind
	ints []int64  // exact arm, sorted distinct (Int64/Date/Bool)
	strs []string // exact arm, sorted distinct (String)
	bits []uint64 // Bloom arm
}

// Set is an immutable secondary-index set over one stable image: per-block
// summaries for each indexed column. It implements engine.IndexProber and is
// attached to the image via colstore's Aux sidecar.
type Set struct {
	cols map[int][]summary // schema column -> per-block summaries
}

// Cols returns the indexed schema columns, ascending.
func (s *Set) Cols() []int {
	cols := make([]int, 0, len(s.cols))
	for c := range s.cols {
		cols = append(cols, c)
	}
	sort.Ints(cols)
	return cols
}

// Build constructs summaries for cols over every block of st, reading
// encoded blocks (dictionary, RLE and width-0 ForInt digests come straight
// from the encoding). Float64 columns cannot be indexed: equality on measures
// is not a meaningful probe and exact float sets are trap-prone.
func Build(st *colstore.Store, cols []int) (*Set, error) {
	s := &Set{cols: make(map[int][]summary, len(cols))}
	nb := st.NumBlocks()
	schema := st.Schema()
	for _, c := range cols {
		if c < 0 || c >= schema.NumCols() {
			return nil, fmt.Errorf("index: column %d out of range", c)
		}
		kind := schema.Cols[c].Kind
		if kind == types.Float64 {
			return nil, fmt.Errorf("index: column %d (%s) is Float64; float columns cannot be indexed", c, schema.Cols[c].Name)
		}
		sums := make([]summary, nb)
		for b := 0; b < nb; b++ {
			sum, err := summarize(st, kind, c, b)
			if err != nil {
				return nil, err
			}
			sums[b] = sum
		}
		s.cols[c] = sums
	}
	return s, nil
}

// Rebuild constructs the next generation's Set over st, reusing every summary
// of the previous set whose block dirty reports clean — the incremental
// maintenance path, driven by the same per-(column, block) dirty map the
// incremental checkpoint computes from the frozen PDT (blocks at or past the
// first position shift are always dirty there). nblocks is st's block count.
func (s *Set) Rebuild(st *colstore.Store, nblocks int, dirty func(col, blk int) bool) (*Set, error) {
	out := &Set{cols: make(map[int][]summary, len(s.cols))}
	schema := st.Schema()
	for c, old := range s.cols {
		kind := schema.Cols[c].Kind
		sums := make([]summary, nblocks)
		for b := 0; b < nblocks; b++ {
			if b < len(old) && !dirty(c, b) {
				sums[b] = old[b]
				continue
			}
			sum, err := summarize(st, kind, c, b)
			if err != nil {
				return nil, err
			}
			sums[b] = sum
		}
		out.cols[c] = sums
	}
	return out, nil
}

// summarize digests block b of column c of st. The block must hold the rows
// the store's geometry gives it: a summary decodes whole blocks, and an RLE
// run or a width-0 frame can claim any count in a few bytes.
func summarize(st *colstore.Store, kind types.Kind, c, b int) (summary, error) {
	enc, err := st.EncodedBlock(c, b)
	if err != nil {
		return summary{}, err
	}
	br := uint64(st.BlockRows())
	if rows := min(br, st.NRows()-uint64(b)*br); compress.BlockCount(enc) != int(rows) {
		return summary{}, fmt.Errorf("index: column %d block %d: %w: %d values where the image has %d rows",
			c, b, compress.ErrCorrupt, compress.BlockCount(enc), rows)
	}
	return buildSummary(kind, enc)
}

// CanSkip implements engine.IndexProber: it reports whether block blk of
// pred.Col provably holds no value satisfying pred. indexed is false when the
// column has no index or the summary cannot answer the predicate's shape (a
// Bloom arm asked a range question), in which case the engine falls through
// to its other access checks.
func (s *Set) CanSkip(pred engine.Pred, blk int) (skip, indexed bool) {
	sums, ok := s.cols[pred.Col]
	if !ok || blk < 0 || blk >= len(sums) {
		return false, false
	}
	sum := &sums[blk]
	switch pred.Op {
	case engine.PredInt64Range:
		if sum.ints != nil {
			i := sort.Search(len(sum.ints), func(i int) bool { return sum.ints[i] >= pred.ILo })
			return i == len(sum.ints) || sum.ints[i] > pred.IHi, true
		}
		if sum.bits != nil && pred.Eq {
			return !bloomHas(sum.bits, hashInt(pred.ILo)), true
		}
	case engine.PredStrEq:
		return sum.strSkipEq(pred.Strs[0])
	case engine.PredStrIn:
		for _, x := range pred.Strs {
			sk, idx := sum.strSkipEq(x)
			if !idx {
				return false, false
			}
			if !sk {
				return false, true
			}
		}
		return true, true
	case engine.PredStrPrefix:
		if sum.strs != nil {
			pre := pred.Strs[0]
			i := sort.Search(len(sum.strs), func(i int) bool { return sum.strs[i] >= pre })
			return i == len(sum.strs) || len(sum.strs[i]) < len(pre) || sum.strs[i][:len(pre)] != pre, true
		}
	}
	return false, false
}

// strSkipEq answers an equality probe for one string against either arm.
func (sum *summary) strSkipEq(x string) (skip, indexed bool) {
	if sum.strs != nil {
		i := sort.Search(len(sum.strs), func(i int) bool { return sum.strs[i] >= x })
		return i == len(sum.strs) || sum.strs[i] != x, true
	}
	if sum.bits != nil {
		return !bloomHas(sum.bits, hashStr(x)), true
	}
	return false, false
}

// buildSummary digests one encoded block. Dictionary, RLE and width-0 ForInt
// encodings hand over their exact value sets directly; other encodings
// decode. Up to maxExact distinct values make the exact arm, more overflow
// into a Bloom filter.
func buildSummary(kind types.Kind, enc []byte) (summary, error) {
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
		if sum.strs, ok = distinct(vals, hashStr); ok {
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
		sum.ints, _ = distinct(vals, hashInt) // at most two
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
		if sum.ints, ok = distinct(vals, hashInt); ok {
			return sum, nil
		}
		sum.bits = newBloom(len(vals))
		for _, v := range vals {
			bloomAdd(sum.bits, hashInt(v))
		}
	}
	return sum, nil
}

// distinct returns the sorted distinct values of vals, or ok=false as soon as
// it has seen more than maxExact of them — a Bloom block learns that within
// its first few hundred values, without copying or sorting the block. A fixed
// open-addressed table on the stack holds, for each distinct value seen, its
// first index in vals plus one (0 is an empty slot); it has more than twice
// maxExact slots, so a probe ends at an empty slot well before it wraps. hash
// is hashInt or hashStr.
func distinct[T cmp.Ordered](vals []T, hash func(T) uint64) (out []T, ok bool) {
	var table [distinctSlots]int
	n := 0
	for i, v := range vals {
		if i > 0 && v == vals[i-1] {
			continue
		}
		s := hash(v) >> (64 - distinctBits)
		for table[s] != 0 && vals[table[s]-1] != v {
			s = (s + 1) & (distinctSlots - 1)
		}
		if table[s] == 0 {
			if n == maxExact {
				return nil, false
			}
			n++
			table[s] = i + 1
		}
	}
	if n == 0 {
		return nil, true
	}
	out = make([]T, 0, n)
	for s := range table {
		if table[s] != 0 {
			out = append(out, vals[table[s]-1])
		}
	}
	slices.Sort(out)
	return out, true
}

// newBloom sizes a blocked Bloom filter for n values at bloomBitsPerRow bits
// each. Its blocks are 64-bit words: a value's bloomHashes bits all land in
// the one word its hash picks (bloomWord).
func newBloom(n int) []uint64 {
	if n < 1 {
		n = 1
	}
	return make([]uint64, (n*bloomBitsPerRow+63)/64)
}

// bloomWord picks the word of bits h lands in and the bits it sets there:
// multiply-shift of h's high 32 bits chooses the word without a division, and
// the low 24 bits, as bloomHashes 6-bit fields, choose a bit each (two fields
// may choose the same bit).
func bloomWord(bits []uint64, h uint64) (w int, mask uint64) {
	w = int((h >> 32) * uint64(len(bits)) >> 32)
	mask = 1<<(h&63) | 1<<(h>>6&63) | 1<<(h>>12&63) | 1<<(h>>18&63)
	return w, mask
}

// bloomAdd sets h's bits in its word.
func bloomAdd(bits []uint64, h uint64) {
	w, mask := bloomWord(bits, h)
	bits[w] |= mask
}

// bloomHas reports whether every bit of h is set in its word; false means the
// value is certainly absent.
func bloomHas(bits []uint64, h uint64) bool {
	w, mask := bloomWord(bits, h)
	return bits[w]&mask == mask
}

// hashInt is murmur3's 64-bit finalizer (fmix64) of the value: a bijection
// whose every output bit depends on every input bit, in two multiplies. It
// takes no per-process seed, so skip decisions repeat across runs.
func hashInt(v int64) uint64 {
	return fmix64(uint64(v))
}

// hashStr is FNV-1a over the string's bytes, finished by fmix64 so that both
// halves of the hash are mixed.
func hashStr(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return fmix64(h)
}

// fmix64 is murmur3's 64-bit finalizer.
func fmix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
