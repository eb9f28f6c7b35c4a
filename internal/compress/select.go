package compress

// Selection-first reads. Select* evaluates a predicate on a window of an
// encoded block without materializing it wherever the scheme allows — plain
// blocks compare in place, a ForInt block compares its residuals against
// bounds shifted by the base and the line, an RLE block decides once per run,
// a packed dictionary once per entry — and Gather*At decodes a block's values
// only at the rows a selection kept, writing each into the batch position it
// lands at; where a selection keeps nearly every row, Decode*Spans decodes
// every row of some stretches of a block into the positions they land at.
// They read the written schemes alone: a block of a retired one is ErrCorrupt
// here, and reaches them only through Upgrade.
//
// All of them stand or fall with the span decoders: whenever Decode*Spans
// accepts a window of a block — one span — Select* over it succeeds and keeps
// exactly the rows the vector kernel keeps of the decoded values, and
// Gather*At at rows inside it, like Decode*Spans over spans inside it, yields
// the decoded values. On bytes a decoder would reject they may still succeed
// (a block decided whole never reads its residuals), but they never panic,
// and every error they return for bad bytes wraps ErrCorrupt.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

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
		if err == nil {
			out = f.selectRange(skip, end, lo, hi, out)
		}
		return out, err
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
// data. Values of at most 19 bits (a date block's) are read as unpack reads
// them, 57/w ≥ 3 to an unaligned load, and compared as they are read; the
// rest are unpacked a chunk at a time and then compared.
func selectResiduals(packed []byte, w uint, from, n int, a, span uint64, out []uint32) []uint32 {
	at := len(out)
	out = slices.Grow(out, n)[:at+n]
	i := 0
	if w <= 19 {
		w &= 63
		mask, per := uint64(1)<<w-1, int(57/max(w, 1))
		for bp := uint(from) * w; i+per <= n && int(bp>>3)+8 <= len(packed); bp += uint(per) * w {
			word := binary.LittleEndian.Uint64(packed[bp>>3:]) >> (bp & 7)
			for end := i + per; i < end; i++ {
				out[at] = uint32(i)
				if word&mask-a <= span {
					at++
				}
				word >>= w
			}
		}
	}
	var r [codeChunk]uint64
	for ; i < n; i += codeChunk {
		chunk := r[:min(codeChunk, n-i)]
		unpack(chunk, packed, w, from+i)
		for j, u := range chunk {
			out[at] = uint32(i + j)
			if u-a <= span {
				at++
			}
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
// PredFloat64Lt, compared in place: a plain block's values, a ScaledFloat
// block's residuals against the residual range the bounds map to.
func SelectFloat64s(buf []byte, skip, n int, p vector.Pred, out []uint32) ([]uint32, error) {
	scheme, count, body, err := readHeader(buf)
	if err != nil {
		return nil, err
	}
	var s scaledBlock
	switch {
	case scheme == ScaledFloat:
		if s, err = parseScaled(body, count); err != nil {
			return nil, err
		}
	case scheme != PlainFloat:
		return nil, corrupt("scheme %d is not a float encoding", scheme)
	case len(body)/8 < count:
		return nil, corrupt("float block truncated")
	}
	end, err := window(count, skip, n)
	if err != nil {
		return nil, err
	}
	switch p.Op {
	case vector.PredNone:
		return appendAll(out, end-skip), nil
	case vector.PredFloat64Range, vector.PredFloat64Lt:
		if scheme == ScaledFloat {
			return s.selectPred(skip, end, p, out), nil
		}
	}
	switch p.Op {
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
// PredStrPrefix or PredStrContains. A PlainString or FramedString block tests
// each value's bytes in place. A packed dictionary whose window holds at
// least as many rows as it has entries tests each entry once and then only
// looks codes up — a window no entry or every entry passes is decided
// without reading a code — and a shorter window tests the entries its codes
// name.
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
	if scheme == PackedDict {
		d, err := parseDict(body, count)
		if err != nil {
			return nil, err
		}
		return d.selectMatch(skip, end, &m, out)
	}
	s, err := parseStrings(scheme, body, count)
	if err != nil {
		return nil, err
	}
	var b [codeChunk + 1]int64
	for i := skip; i < end; i += codeChunk {
		bs := b[:min(codeChunk, end-i)+1]
		s.starts(bs, i)
		for j := range bs[:len(bs)-1] {
			lo, hi := bs[j], bs[j+1]
			if err := checkOffsets(lo, hi, 0, int64(len(s.data))); err != nil {
				return nil, err
			}
			if m.match(s.data[lo:hi]) {
				out = append(out, uint32(i+j-skip))
			}
		}
	}
	return out, nil
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

// gatherWindow checks a gather's rows against a block holding count values:
// base plus each of the ascending rows must name one of them.
func gatherWindow(count, base int, rows []uint32) error {
	if len(rows) == 0 {
		return nil
	}
	first := int(rows[0])
	_, err := window(count, base+first, int(rows[len(rows)-1])-first+1)
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

// rowReader reads the w-bit values at index base+r of packed for ascending
// rows r, a chunk of at most codeChunk rows at a time: a chunk whose rows lie
// within 2*codeChunk values is unpacked as the one run covering it, which
// streams, and read from there; a sparser one is read value by value.
type rowReader struct {
	packed []byte
	w      uint
	base   int
	first  int // the row run[0] holds; -1: run[k] is the chunk's kth value
	run    [2 * codeChunk]uint64
}

// load reads the chunk of ascending rows rs.
func (rr *rowReader) load(rs []uint32) {
	rr.first = int(rs[0])
	if span := int(rs[len(rs)-1]) - rr.first + 1; span <= len(rr.run) {
		unpack(rr.run[:span], rr.packed, rr.w, rr.base+rr.first)
		return
	}
	rr.first = -1
	for k, r := range rs {
		rr.run[k] = bitsAt(rr.packed, rr.w, rr.base+int(r))
	}
}

// at is the value of the loaded chunk's kth row, row r.
func (rr *rowReader) at(k int, r uint32) uint64 {
	if rr.first < 0 {
		return rr.run[k]
	}
	return rr.run[int(r)-rr.first]
}

// GatherInt64sAt decodes value base+rows[k] of an int block into dst[pos[k]],
// for every k: rows ascend, pos holds as many positions of dst, and nothing
// else of dst is written. A merge's runs place a block's rows at batch
// positions that need not follow them one for one, and a gather writes each
// value straight into its position; where they do follow them, rows may be
// pos itself and base the shift between the two. Plain and ForInt blocks read
// each value where it lies, an RLE block walks its runs once.
func GatherInt64sAt(buf []byte, base int, rows, pos []uint32, dst []int64) error {
	scheme, count, body, err := readHeader(buf)
	if err != nil {
		return err
	}
	if err := gatherWindow(count, base, rows); err != nil {
		return err
	}
	pos = pos[:len(rows)]
	switch scheme {
	case PlainInt:
		if len(body)/8 < count {
			return corrupt("plain int block truncated")
		}
		for k, r := range rows {
			dst[pos[k]] = int64(binary.LittleEndian.Uint64(body[8*(base+int(r)):]))
		}
		return nil
	case ForInt:
		f, err := parseFor(body, count)
		if err != nil {
			return err
		}
		rr := rowReader{packed: f.packed, w: f.w, base: base}
		for c := 0; c < len(rows); c += codeChunk {
			rs := rows[c:min(c+codeChunk, len(rows))]
			ps := pos[c : c+len(rs)]
			rr.load(rs)
			if f.slope == 0 {
				for k, r := range rs {
					dst[ps[k]] = f.base + int64(rr.at(k, r))
				}
				continue
			}
			for k, r := range rs {
				dst[ps[k]] = f.base + f.line(base+int(r)) + int64(rr.at(k, r))
			}
		}
		return nil
	case RLEInt:
		for got, k := 0, 0; k < len(rows); {
			v, run, rest, err := rleRun(body, count-got)
			if err != nil {
				return err
			}
			body, got = rest, got+run
			for ; k < len(rows) && base+int(rows[k]) < got; k++ {
				dst[pos[k]] = v
			}
		}
		return nil
	}
	return corrupt("scheme %d is not an int encoding", scheme)
}

// GatherBoolsAt is GatherInt64sAt for a BitBool block (0/1 int64s).
func GatherBoolsAt(buf []byte, base int, rows, pos []uint32, dst []int64) error {
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
	if err := gatherWindow(count, base, rows); err != nil {
		return err
	}
	pos = pos[:len(rows)]
	for k, r := range rows {
		i := base + int(r)
		dst[pos[k]] = int64(body[i/8] >> (i % 8) & 1)
	}
	return nil
}

// GatherFloat64sAt is GatherInt64sAt for a float block.
func GatherFloat64sAt(buf []byte, base int, rows, pos []uint32, dst []float64) error {
	scheme, count, body, err := readHeader(buf)
	if err != nil {
		return err
	}
	var s scaledBlock
	switch {
	case scheme == ScaledFloat:
		if s, err = parseScaled(body, count); err != nil {
			return err
		}
	case scheme != PlainFloat:
		return corrupt("scheme %d is not a float encoding", scheme)
	case len(body)/8 < count:
		return corrupt("float block truncated")
	}
	if err := gatherWindow(count, base, rows); err != nil {
		return err
	}
	pos = pos[:len(rows)]
	if scheme == ScaledFloat {
		s.gather(base, rows, pos, dst)
		return nil
	}
	for k, r := range rows {
		dst[pos[k]] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*(base+int(r)):]))
	}
	return nil
}

// gather stores value base+rows[k] in dst[pos[k]] for every k, sharing bytes
// as decode does for a window of as many values.
func (d *dictBlock) gather(base int, rows, pos []uint32, dst []string) error {
	if len(rows) == 0 {
		return nil
	}
	rr := rowReader{packed: d.codes, w: d.w, base: base}
	if len(rows) < d.ndict && len(rows) <= codeChunk {
		rr.load(rows)
		var codes [codeChunk]uint64
		for k, r := range rows {
			codes[k] = rr.at(k, r)
		}
		var vals [codeChunk]string
		if err := d.copyOut(codes[:len(rows)], vals[:len(rows)]); err != nil {
			return err
		}
		for k, p := range pos[:len(rows)] {
			dst[p] = vals[k]
		}
		return nil
	}
	arena := string(d.data)
	var small [64]string
	var dict []string
	if len(rows) >= d.ndict {
		dict = d.table(arena, small[:0])
	}
	for c := 0; c < len(rows); c += codeChunk {
		rs := rows[c:min(c+codeChunk, len(rows))]
		ps := pos[c : c+len(rs)]
		rr.load(rs)
		for k, r := range rs {
			if code := rr.at(k, r); code < uint64(len(dict)) {
				dst[ps[k]] = dict[code]
				continue
			}
			v, err := d.value(arena, rr.at(k, r))
			if err != nil {
				return err
			}
			dst[ps[k]] = v
		}
	}
	return nil
}

// decodeSpans stores the values of the rows of every span in dst[At:At+N].
// Spans holding fewer values than the dictionary and than one chunk — a
// probe's — copy only their own values, into one arena. Any others copy the
// dictionary's bytes once; when they hold at least as many values as the
// dictionary, they also slice every entry once and share it across its codes.
func (d *dictBlock) decodeSpans(spans []Span, dst []string) error {
	n := 0
	for _, s := range spans {
		n += s.N
	}
	var codes [codeChunk]uint64
	if n < d.ndict && n <= codeChunk {
		k := 0
		for _, s := range spans {
			unpack(codes[k:k+s.N], d.codes, d.w, s.Row)
			k += s.N
		}
		var vals [codeChunk]string
		if err := d.copyOut(codes[:n], vals[:n]); err != nil {
			return err
		}
		k = 0
		for _, s := range spans {
			k += copy(dst[s.At:s.At+s.N], vals[k:k+s.N])
		}
		return nil
	}
	arena := string(d.data)
	var small [64]string
	var dict []string
	if n >= d.ndict {
		dict = d.table(arena, small[:0])
	}
	for _, s := range spans {
		out := dst[s.At : s.At+s.N]
		for i := 0; i < len(out); i += codeChunk {
			chunk := codes[:min(codeChunk, len(out)-i)]
			unpack(chunk, d.codes, d.w, s.Row+i)
			for j, c := range chunk {
				if c < uint64(len(dict)) {
					out[i+j] = dict[c]
					continue
				}
				v, err := d.value(arena, c)
				if err != nil {
					return err
				}
				out[i+j] = v
			}
		}
	}
	return nil
}

// GatherStringsAt is GatherInt64sAt for a string block. The gathered values
// share one copy of the bytes they come from, as a decoded window's do: a
// PlainString or FramedString block's bytes from the first gathered row
// through the last, or a packed dictionary's whole data when the rows are at
// least as many as its entries (or more than one chunk), just the gathered
// values' otherwise.
func GatherStringsAt(buf []byte, base int, rows, pos []uint32, dst []string) error {
	scheme, count, body, err := readHeader(buf)
	if err != nil {
		return err
	}
	if err := gatherWindow(count, base, rows); err != nil {
		return err
	}
	pos = pos[:len(rows)]
	if scheme == PackedDict {
		d, err := parseDict(body, count)
		if err != nil {
			return err
		}
		return d.gather(base, rows, pos, dst)
	}
	s, err := parseStrings(scheme, body, count)
	if err != nil || len(rows) == 0 {
		return err
	}
	first, last := s.start(base+int(rows[0])), s.start(base+int(rows[len(rows)-1])+1)
	arena, err := s.arena(first, last)
	if err != nil {
		return err
	}
	var b [2]int64
	for k, r := range rows {
		s.starts(b[:], base+int(r))
		if err := checkOffsets(b[0], b[1], first, last); err != nil {
			return err
		}
		dst[pos[k]] = arena[b[0]-first : b[1]-first]
	}
	return nil
}

// Span is a stretch of a block's rows — N of them from row Row — that a span
// decode writes to consecutive positions of its destination from At: the
// share of one of a merge's runs that lies in the block, when a scan selects
// densely enough that decoding every row of it beats gathering the ones it
// keeps.
type Span struct{ Row, At, N int }

// DecodeInt64sSpans decodes the rows of every span of an int block into
// dst[At:At+N], the spans ascending in Row without overlapping. A window is
// one span; a whole block (DecodeInt64s) the span of every row. The header is
// read once however many there are, and an RLE block's runs are walked once,
// up to the last span's end: plain and ForInt blocks jump straight to each
// span's rows.
func DecodeInt64sSpans(buf []byte, spans []Span, dst []int64) error {
	scheme, count, body, err := readHeader(buf)
	if err != nil {
		return err
	}
	if err := spansWindow(count, spans); err != nil {
		return err
	}
	switch scheme {
	case PlainInt:
		if len(body)/8 < count {
			return corrupt("plain int block truncated")
		}
		for _, s := range spans {
			out := dst[s.At : s.At+s.N]
			for i := range out {
				out[i] = int64(binary.LittleEndian.Uint64(body[8*(s.Row+i):]))
			}
		}
		return nil
	case ForInt:
		f, err := parseFor(body, count)
		if err != nil {
			return err
		}
		for _, s := range spans {
			f.decode(dst[s.At:s.At+s.N], s.Row)
		}
		return nil
	case RLEInt:
		var v int64
		got := 0 // values [0, got) are read, the last run's being v
		for _, s := range spans {
			for r, end := s.Row, s.Row+s.N; ; {
				for ; r < got && r < end; r++ {
					dst[s.At+r-s.Row] = v
				}
				if got >= end {
					break
				}
				var run int
				if v, run, body, err = rleRun(body, count-got); err != nil {
					return err
				}
				got += run
			}
		}
		return nil
	}
	return corrupt("scheme %d is not an int encoding", scheme)
}

// spansWindow checks spans against a block holding count values: each inside
// it, none longer than it, and each after the one before.
func spansWindow(count int, spans []Span) error {
	end := 0
	for _, s := range spans {
		if s.Row < end || s.N < 0 || s.N > count-s.Row {
			return corrupt("span of %d values at %d requested after %d from a block of %d", s.N, s.Row, end, count)
		}
		end = s.Row + s.N
	}
	return nil
}

// DecodeFloat64sSpans is DecodeInt64sSpans for a float block. A ScaledFloat
// block reads and scales its residuals in one pass (scaledBlock.decode).
func DecodeFloat64sSpans(buf []byte, spans []Span, dst []float64) error {
	scheme, count, body, err := readHeader(buf)
	if err != nil {
		return err
	}
	var sb scaledBlock
	switch {
	case scheme == ScaledFloat:
		if sb, err = parseScaled(body, count); err != nil {
			return err
		}
	case scheme != PlainFloat:
		return corrupt("scheme %d is not a float encoding", scheme)
	case len(body)/8 < count:
		return corrupt("float block truncated")
	}
	if err := spansWindow(count, spans); err != nil {
		return err
	}
	if scheme == ScaledFloat {
		sb.decodeSpans(spans, dst)
		return nil
	}
	for _, s := range spans {
		out := dst[s.At : s.At+s.N]
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*(s.Row+i):]))
		}
	}
	return nil
}

// DecodeBoolsSpans is DecodeInt64sSpans for a BitBool block (0/1 int64s).
func DecodeBoolsSpans(buf []byte, spans []Span, dst []int64) error {
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
	if err := spansWindow(count, spans); err != nil {
		return err
	}
	for _, s := range spans {
		out := dst[s.At : s.At+s.N]
		for i := range out {
			r := s.Row + i
			out[i] = int64(body[r/8] >> (r % 8) & 1)
		}
	}
	return nil
}

// DecodeStringsSpans is DecodeInt64sSpans for a string block. The values of
// one call share one allocation, as a window's do: a PlainString or
// FramedString block's bytes from the first span's start through the last
// one's end, or a packed dictionary's (the spans' own values, when they are
// fewer than its entries and than one chunk).
func DecodeStringsSpans(buf []byte, spans []Span, dst []string) error {
	scheme, count, body, err := readHeader(buf)
	if err != nil {
		return err
	}
	if err := spansWindow(count, spans); err != nil {
		return err
	}
	if len(spans) == 0 {
		return nil
	}
	if scheme == PackedDict {
		d, err := parseDict(body, count)
		if err != nil {
			return err
		}
		return d.decodeSpans(spans, dst)
	}
	s, err := parseStrings(scheme, body, count)
	if err != nil {
		return err
	}
	last := spans[len(spans)-1]
	if last.Row+last.N == spans[0].Row {
		return nil // no value, so no offset to read
	}
	first, end := s.start(spans[0].Row), s.start(last.Row+last.N)
	// One arena for the spans' bytes; every value is a slice of it.
	arena, err := s.arena(first, end)
	if err != nil {
		return err
	}
	var b [codeChunk + 1]int64
	for _, sp := range spans {
		for i := 0; i < sp.N; i += codeChunk {
			bs := b[:min(codeChunk, sp.N-i)+1]
			s.starts(bs, sp.Row+i)
			out := dst[sp.At+i : sp.At+i+len(bs)-1]
			for j := range out {
				lo, hi := bs[j], bs[j+1]
				if err := checkOffsets(lo, hi, first, end); err != nil {
					return err
				}
				out[j] = arena[lo-first : hi-first]
			}
		}
	}
	return nil
}
