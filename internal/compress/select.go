package compress

// Selection-first reads. Select* evaluates a predicate on a window of an
// encoded block without materializing it wherever the scheme allows — plain
// blocks compare in place, a ForInt block compares its residuals against
// bounds shifted by the base and the line, an RLE block decides once per run,
// a packed dictionary once per entry — and Gather*At decodes a block's values
// only at the positions a selection kept. The legacy read-only schemes decode
// the window and run the vector kernel on it.
//
// Both stand or fall with the decoders: whenever Decode*From accepts a window
// of a block, Select* over it succeeds and keeps exactly the rows the vector
// kernel keeps of the decoded values, and Gather*At at positions inside it
// yields the decoded values. On bytes a decoder would reject they may still
// succeed (a block decided whole never reads its residuals), but they never
// panic, and every error they return for bad bytes wraps ErrCorrupt.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"pdtstore/internal/types"
	"pdtstore/internal/vector"
)

// opMismatch reports a predicate applied to a column kind it cannot hold: a
// caller's error, not the block's.
func opMismatch(p vector.Pred, kind string) error {
	return fmt.Errorf("compress: predicate op %d does not apply to %s blocks", p.Op, kind)
}

// appendAll appends the offsets 0..n-1.
func appendAll(out []uint32, n int) []uint32 {
	for i := 0; i < n; i++ {
		out = append(out, uint32(i))
	}
	return out
}

// selectDecoded runs p's vector kernel over a decoded window and appends the
// offsets it keeps: the legacy schemes' select.
func selectDecoded(v *vector.Vector, p vector.Pred, out []uint32) []uint32 {
	sel := vector.NewSelection(v.Len())
	sel.All(v.Len())
	sel.Filter(v, p)
	return append(out, sel.Indexes()...)
}

// SelectInt64s appends to out the offsets r, ascending, of the values skip+r
// among the n values of an int block from index skip (n < 0: through the
// block's end) that satisfy p, a PredInt64Range (PredNone keeps every row).
func SelectInt64s(buf []byte, skip, n int, p vector.Pred, out []uint32) ([]uint32, error) {
	scheme, count, body, err := readHeader(buf)
	if err != nil {
		return nil, err
	}
	end, err := window(count, skip, n)
	if err != nil {
		return nil, err
	}
	lo, hi := p.ILo, p.IHi
	switch p.Op {
	case vector.PredNone:
		lo, hi = math.MinInt64, math.MaxInt64
	case vector.PredInt64Range:
	default:
		return nil, opMismatch(p, "int")
	}
	switch scheme {
	case PlainInt:
		if len(body)/8 < count {
			return nil, corrupt("plain int block truncated")
		}
		for i := skip; i < end; i++ {
			if x := int64(binary.LittleEndian.Uint64(body[8*i:])); x >= lo && x <= hi {
				out = append(out, uint32(i-skip))
			}
		}
		return out, nil
	case ForInt:
		f, err := parseFor(body, count)
		if err != nil {
			return nil, err
		}
		return f.selectRange(skip, end, lo, hi, out), nil
	case RLEInt:
		for got := 0; got < end; {
			v, run, rest, err := rleRun(body, count-got)
			if err != nil {
				return nil, err
			}
			body = rest
			if v >= lo && v <= hi {
				for k := max(got, skip); k < min(got+run, end); k++ {
					out = append(out, uint32(k-skip))
				}
			}
			got += run
		}
		return out, nil
	case DeltaVarint:
		vals, err := DecodeInt64sFrom(buf, skip, end-skip, nil)
		if err != nil {
			return nil, err
		}
		return selectDecoded(&vector.Vector{Kind: types.Int64, I: vals}, p, out), nil
	}
	return nil, corrupt("scheme %d is not an int encoding", scheme)
}

// selectRange appends the offsets from skip of the values [skip, end) lying
// in [lo, hi]. Value i is base + line(i) + r, wrapping, so it lies in [lo, hi]
// exactly when r - (lo - base - line(i)) <= hi - lo in uint64 arithmetic: the
// residuals are compared against bounds shifted by the base and the line, and
// the base is never added back. Without a line the shifted bounds are one
// pair for the whole block, and a block whose every possible residual falls
// on one side of them — a width-0 block always does — is decided whole.
func (f *forBlock) selectRange(skip, end int, lo, hi int64, out []uint32) []uint32 {
	if lo > hi {
		return out
	}
	span := uint64(hi - lo)
	var r [codeChunk]uint64
	if f.slope == 0 {
		a := uint64(lo - f.base) // r passes when r - a <= span
		maxR := uint64(1)<<f.w - 1
		if o := -a; o <= span && maxR <= span-o {
			return appendAll(out, end-skip) // [0, maxR] lies inside [a, a+span]
		}
		if a > maxR && span <= ^a {
			return out // [a, a+span] lies above maxR without wrapping
		}
		return selectResiduals(f.packed, f.w, skip, end-skip, a, span, out)
	}
	for i := skip; i < end; i += codeChunk {
		chunk := r[:min(codeChunk, end-i)]
		unpack(chunk, f.packed, f.w, i)
		for j, u := range chunk {
			if u-uint64(lo-f.base-f.line(i+j)) <= span {
				out = append(out, uint32(i+j-skip))
			}
		}
	}
	return out
}

// selectResiduals appends the offsets r in [0, n) of the w-bit values at
// from+r with value - a <= span in uint64 arithmetic. It writes every offset
// and advances past only the passing ones, so the loop does not branch on the
// data.
func selectResiduals(packed []byte, w uint, from, n int, a, span uint64, out []uint32) []uint32 {
	at := len(out)
	out = slices.Grow(out, n)[:at+n]
	i := 0
	if w <= 56 {
		// A value of at most 56 bits lies within the 8 bytes from the byte
		// holding its first bit, so one unaligned load and a shift read it,
		// while those 8 bytes lie inside packed.
		mask := uint64(1)<<w - 1
		for ; i < n; i++ {
			bp := uint(from+i) * w
			if int(bp>>3)+8 > len(packed) {
				break
			}
			out[at] = uint32(i)
			if (binary.LittleEndian.Uint64(packed[bp>>3:])>>(bp&7))&mask-a <= span {
				at++
			}
		}
	}
	for ; i < n; i++ {
		out[at] = uint32(i)
		if bitsAt(packed, w, from+i)-a <= span {
			at++
		}
	}
	return out[:at]
}

// SelectBools is SelectInt64s for a BitBool block, whose values are 0 and 1:
// which of the two p keeps decides the whole window or one bit test per row.
func SelectBools(buf []byte, skip, n int, p vector.Pred, out []uint32) ([]uint32, error) {
	scheme, count, body, err := readHeader(buf)
	if err != nil {
		return nil, err
	}
	if scheme != BitBool {
		return nil, corrupt("scheme %d is not a bool encoding", scheme)
	}
	if len(body) < (count+7)/8 {
		return nil, corrupt("bool block truncated")
	}
	end, err := window(count, skip, n)
	if err != nil {
		return nil, err
	}
	if p.Op == vector.PredNone {
		return appendAll(out, end-skip), nil
	}
	if p.Op != vector.PredInt64Range {
		return nil, opMismatch(p, "bool")
	}
	keep0, keep1 := p.ILo <= 0 && 0 <= p.IHi, p.ILo <= 1 && 1 <= p.IHi
	switch {
	case keep0 && keep1:
		return appendAll(out, end-skip), nil
	case !keep0 && !keep1:
		return out, nil
	}
	want := byte(0)
	if keep1 {
		want = 1
	}
	for i := skip; i < end; i++ {
		if body[i/8]>>(i%8)&1 == want {
			out = append(out, uint32(i-skip))
		}
	}
	return out, nil
}

// SelectFloat64s is SelectInt64s for a float block and a PredFloat64Range or
// PredFloat64Lt, compared in place.
func SelectFloat64s(buf []byte, skip, n int, p vector.Pred, out []uint32) ([]uint32, error) {
	scheme, count, body, err := readHeader(buf)
	if err != nil {
		return nil, err
	}
	if scheme != PlainFloat {
		return nil, corrupt("scheme %d is not a float encoding", scheme)
	}
	if len(body)/8 < count {
		return nil, corrupt("float block truncated")
	}
	end, err := window(count, skip, n)
	if err != nil {
		return nil, err
	}
	switch p.Op {
	case vector.PredNone:
		return appendAll(out, end-skip), nil
	case vector.PredFloat64Range:
		lo, hi := p.FLo, p.FHi
		for i := skip; i < end; i++ {
			if x := math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:])); x >= lo && x <= hi {
				out = append(out, uint32(i-skip))
			}
		}
		return out, nil
	case vector.PredFloat64Lt:
		hi := p.FHi
		for i := skip; i < end; i++ {
			if math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:])) < hi {
				out = append(out, uint32(i-skip))
			}
		}
		return out, nil
	}
	return nil, opMismatch(p, "float")
}

// strMatcher tests raw string bytes against a string predicate, with the
// vector kernels' semantics and without converting them to a string.
type strMatcher struct {
	p      vector.Pred
	needle []byte // PredStrContains's substring
}

func newStrMatcher(p vector.Pred) (strMatcher, bool) {
	m := strMatcher{p: p}
	switch p.Op {
	case vector.PredNone, vector.PredStrEq, vector.PredStrIn, vector.PredStrPrefix:
	case vector.PredStrContains:
		m.needle = []byte(p.Strs[0])
	default:
		return m, false
	}
	return m, true
}

func (m *strMatcher) match(b []byte) bool {
	switch m.p.Op {
	case vector.PredStrEq:
		return string(b) == m.p.Strs[0]
	case vector.PredStrIn:
		for _, w := range m.p.Strs {
			if string(b) == w {
				return true
			}
		}
		return false
	case vector.PredStrPrefix:
		pre := m.p.Strs[0]
		return len(b) >= len(pre) && string(b[:len(pre)]) == pre
	case vector.PredStrContains:
		return bytes.Contains(b, m.needle)
	}
	return true // PredNone
}

// SelectStrings is SelectInt64s for a string block and a PredStrEq, PredStrIn,
// PredStrPrefix or PredStrContains. A plain block tests each value's bytes in
// place. A packed dictionary whose window holds at least as many rows as it
// has entries tests each entry once and then only looks codes up — a window
// no entry or every entry passes is decided without reading a code — and a
// shorter window tests the entries its codes name.
func SelectStrings(buf []byte, skip, n int, p vector.Pred, out []uint32) ([]uint32, error) {
	scheme, count, body, err := readHeader(buf)
	if err != nil {
		return nil, err
	}
	end, err := window(count, skip, n)
	if err != nil {
		return nil, err
	}
	m, ok := newStrMatcher(p)
	if !ok {
		return nil, opMismatch(p, "string")
	}
	switch scheme {
	case PlainString:
		if len(body)/4 < count {
			return nil, corrupt("string offsets truncated")
		}
		data, prev := body[4*count:], uint32(0)
		if skip > 0 {
			prev = binary.LittleEndian.Uint32(body[4*(skip-1):])
		}
		for i := skip; i < end; i++ {
			off := binary.LittleEndian.Uint32(body[4*i:])
			if off < prev || uint64(off) > uint64(len(data)) {
				return nil, corrupt("bad string offset")
			}
			if m.match(data[prev:off]) {
				out = append(out, uint32(i-skip))
			}
			prev = off
		}
		return out, nil
	case PackedDict:
		d, err := parseDict(body, count)
		if err != nil {
			return nil, err
		}
		return d.selectMatch(skip, end, &m, out)
	case DictString:
		vals, err := DecodeStringsFrom(buf, skip, end-skip, nil)
		if err != nil {
			return nil, err
		}
		return selectDecoded(&vector.Vector{Kind: types.String, S: vals}, p, out), nil
	}
	return nil, corrupt("scheme %d is not a string encoding", scheme)
}

// Verdicts of one dictionary entry under a predicate.
const (
	entryFails uint8 = iota
	entryPasses
	entryBad // malformed: an error only if some code of the window names it
)

// selectMatch appends the offsets from skip of the values [skip, end) that m
// accepts.
func (d *dictBlock) selectMatch(skip, end int, m *strMatcher, out []uint32) ([]uint32, error) {
	var codes [codeChunk]uint64
	if end-skip < d.ndict {
		for i := skip; i < end; i += codeChunk {
			chunk := codes[:min(codeChunk, end-i)]
			unpack(chunk, d.codes, d.w, i)
			for j, c := range chunk {
				lo, hi, err := d.entry(c)
				if err != nil {
					return nil, err
				}
				if m.match(d.data[lo:hi]) {
					out = append(out, uint32(i+j-skip))
				}
			}
		}
		return out, nil
	}
	var small [256]uint8
	verdict := small[:0]
	if d.ndict > len(small) {
		verdict = make([]uint8, 0, d.ndict)
	}
	passes, bad := 0, false
	for c := 0; c < d.ndict; c++ {
		lo, hi, err := d.entry(uint64(c))
		switch {
		case err != nil:
			verdict, bad = append(verdict, entryBad), true
		case m.match(d.data[lo:hi]):
			verdict, passes = append(verdict, entryPasses), passes+1
		default:
			verdict = append(verdict, entryFails)
		}
	}
	if !bad && passes == 0 {
		return out, nil
	}
	if !bad && passes == d.ndict {
		return appendAll(out, end-skip), nil
	}
	for i := skip; i < end; i += codeChunk {
		chunk := codes[:min(codeChunk, end-i)]
		unpack(chunk, d.codes, d.w, i)
		for j, c := range chunk {
			if c >= uint64(d.ndict) {
				return nil, corrupt("bad dict code")
			}
			switch verdict[c] {
			case entryPasses:
				out = append(out, uint32(i+j-skip))
			case entryBad:
				return nil, corrupt("bad dict entry")
			}
		}
	}
	return out, nil
}

// gatherWindow checks a gather's positions against a block holding count
// values: base+p must name one of them for every p of the ascending pos.
func gatherWindow(count, base int, pos []uint32) error {
	n := 0
	if len(pos) > 0 {
		n = int(pos[len(pos)-1]) + 1
	}
	_, err := window(count, base, n)
	return err
}

// bitsAt is the w-bit value at index i of a packed array the caller has
// checked holds it.
func bitsAt(packed []byte, w uint, i int) uint64 {
	if w == 0 {
		return 0
	}
	pos := uint(i) * w
	k, sh := 8*(pos>>6), pos&63
	u := binary.LittleEndian.Uint64(packed[k:]) >> sh
	if sh+w > 64 { // straddles two words
		u |= binary.LittleEndian.Uint64(packed[k+8:]) << (64 - sh)
	}
	return u & (uint64(1)<<w - 1)
}

// unpackAt stores in vals[k] the w-bit value at index from+pos[k], for the
// ascending positions pos (at most codeChunk of them, as long as vals). A
// dense set is unpacked as the one run covering it, which streams; a sparse
// one value by value.
func unpackAt(vals []uint64, packed []byte, w uint, from int, pos []uint32) {
	if len(pos) == 0 {
		return
	}
	first := int(pos[0])
	if span := int(pos[len(pos)-1]) - first + 1; span <= 2*codeChunk {
		var run [2 * codeChunk]uint64
		unpack(run[:span], packed, w, from+first)
		for k, p := range pos {
			vals[k] = run[int(p)-first]
		}
		return
	}
	for k, p := range pos {
		vals[k] = bitsAt(packed, w, from+int(p))
	}
}

// GatherInt64sAt decodes value base+p of an int block into dst[p], for every
// p of the ascending positions pos; dst must be longer than pos's last, and
// nothing else of it is written. Plain and ForInt blocks read each value where
// it lies, an RLE block walks its runs once, a legacy delta block decodes the
// window through the last position.
func GatherInt64sAt(buf []byte, base int, pos []uint32, dst []int64) error {
	scheme, count, body, err := readHeader(buf)
	if err != nil {
		return err
	}
	if err := gatherWindow(count, base, pos); err != nil {
		return err
	}
	switch scheme {
	case PlainInt:
		if len(body)/8 < count {
			return corrupt("plain int block truncated")
		}
		for _, p := range pos {
			dst[p] = int64(binary.LittleEndian.Uint64(body[8*(base+int(p)):]))
		}
		return nil
	case ForInt:
		f, err := parseFor(body, count)
		if err != nil {
			return err
		}
		var vals [codeChunk]uint64
		for c := 0; c < len(pos); c += codeChunk {
			ps := pos[c:min(c+codeChunk, len(pos))]
			unpackAt(vals[:len(ps)], f.packed, f.w, base, ps)
			if f.slope == 0 {
				for k, p := range ps {
					dst[p] = f.base + int64(vals[k])
				}
				continue
			}
			for k, p := range ps {
				dst[p] = f.base + f.line(base+int(p)) + int64(vals[k])
			}
		}
		return nil
	case RLEInt:
		for got, k := 0, 0; k < len(pos); {
			v, run, rest, err := rleRun(body, count-got)
			if err != nil {
				return err
			}
			body, got = rest, got+run
			for ; k < len(pos) && base+int(pos[k]) < got; k++ {
				dst[pos[k]] = v
			}
		}
		return nil
	case DeltaVarint:
		if len(pos) == 0 {
			return nil
		}
		vals, err := DecodeInt64sFrom(buf, base, int(pos[len(pos)-1])+1, nil)
		if err != nil {
			return err
		}
		for _, p := range pos {
			dst[p] = vals[p]
		}
		return nil
	}
	return corrupt("scheme %d is not an int encoding", scheme)
}

// GatherBoolsAt is GatherInt64sAt for a BitBool block (0/1 int64s).
func GatherBoolsAt(buf []byte, base int, pos []uint32, dst []int64) error {
	scheme, count, body, err := readHeader(buf)
	if err != nil {
		return err
	}
	if scheme != BitBool {
		return corrupt("scheme %d is not a bool encoding", scheme)
	}
	if len(body) < (count+7)/8 {
		return corrupt("bool block truncated")
	}
	if err := gatherWindow(count, base, pos); err != nil {
		return err
	}
	for _, p := range pos {
		i := base + int(p)
		dst[p] = int64(body[i/8] >> (i % 8) & 1)
	}
	return nil
}

// GatherFloat64sAt is GatherInt64sAt for a float block.
func GatherFloat64sAt(buf []byte, base int, pos []uint32, dst []float64) error {
	scheme, count, body, err := readHeader(buf)
	if err != nil {
		return err
	}
	if scheme != PlainFloat {
		return corrupt("scheme %d is not a float encoding", scheme)
	}
	if len(body)/8 < count {
		return corrupt("float block truncated")
	}
	if err := gatherWindow(count, base, pos); err != nil {
		return err
	}
	for _, p := range pos {
		dst[p] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*(base+int(p)):]))
	}
	return nil
}

// GatherStringsAt is GatherInt64sAt for a string block. The gathered values
// share one copy of the bytes they come from, as a decoded window's do: a
// plain block's bytes from the first gathered value through the last, or a
// packed dictionary's whole data when the positions are at least as many as
// its entries (or more than one chunk), just the gathered values' otherwise.
func GatherStringsAt(buf []byte, base int, pos []uint32, dst []string) error {
	scheme, count, body, err := readHeader(buf)
	if err != nil {
		return err
	}
	if err := gatherWindow(count, base, pos); err != nil {
		return err
	}
	switch scheme {
	case PlainString:
		if len(body)/4 < count {
			return corrupt("string offsets truncated")
		}
		if len(pos) == 0 {
			return nil
		}
		data := body[4*count:]
		bound := func(i int) uint32 { // end offset of value i-1: value i's start
			if i == 0 {
				return 0
			}
			return binary.LittleEndian.Uint32(body[4*(i-1):])
		}
		first := bound(base + int(pos[0]))
		last := bound(base + int(pos[len(pos)-1]) + 1)
		if first > last || uint64(last) > uint64(len(data)) {
			return corrupt("bad string offset")
		}
		arena := string(data[first:last])
		for _, p := range pos {
			lo, hi := bound(base+int(p)), bound(base+int(p)+1)
			if lo < first || lo > hi || hi > last {
				return corrupt("bad string offset")
			}
			dst[p] = arena[lo-first : hi-first]
		}
		return nil
	case PackedDict:
		d, err := parseDict(body, count)
		if err != nil {
			return err
		}
		return d.gather(base, pos, dst)
	case DictString:
		if len(pos) == 0 {
			return nil
		}
		vals, err := DecodeStringsFrom(buf, base, int(pos[len(pos)-1])+1, nil)
		if err != nil {
			return err
		}
		for _, p := range pos {
			dst[p] = vals[p]
		}
		return nil
	}
	return corrupt("scheme %d is not a string encoding", scheme)
}

// gather stores value base+p in dst[p] for every p of pos, sharing bytes as
// decode does for a window of as many values.
func (d *dictBlock) gather(base int, pos []uint32, dst []string) error {
	if len(pos) == 0 {
		return nil
	}
	var codes [codeChunk]uint64
	if len(pos) < d.ndict && len(pos) <= codeChunk {
		window := codes[:len(pos)]
		unpackAt(window, d.codes, d.w, base, pos)
		var vals [codeChunk]string
		if err := d.copyOut(window, vals[:len(pos)]); err != nil {
			return err
		}
		for k, p := range pos {
			dst[p] = vals[k]
		}
		return nil
	}
	arena := string(d.data)
	var small [64]string
	var dict []string
	if len(pos) >= d.ndict {
		dict = d.table(arena, small[:0])
	}
	for c := 0; c < len(pos); c += codeChunk {
		ps := pos[c:min(c+codeChunk, len(pos))]
		unpackAt(codes[:len(ps)], d.codes, d.w, base, ps)
		for k, p := range ps {
			if c := codes[k]; c < uint64(len(dict)) {
				dst[p] = dict[c]
				continue
			}
			v, err := d.value(arena, codes[k])
			if err != nil {
				return err
			}
			dst[p] = v
		}
	}
	return nil
}
