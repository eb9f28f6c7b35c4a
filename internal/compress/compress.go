// Package compress implements the lightweight column-block codecs the stable
// store uses. Encoders pick the smallest applicable scheme per block (column
// stores compress per block so scans can skip and decompress independently),
// unless compression is disabled, in which case the plain scheme is forced —
// that is the paper's "non-compressed" workstation configuration.
//
// Written schemes: PlainInt, ForInt and RLEInt for integers, PlainFloat and
// ScaledFloat for floats, BitBool for booleans, PlainString, FramedString and
// PackedDict for strings. ForInt, ScaledFloat, FramedString's offsets and
// PackedDict are bit-packed at one fixed width per block, so value i of any of
// them is found without reading values 0..i-1 — the key probe binary-searches
// a ForInt block in place (SearchInt64s) and decodes only the rows it reads.
// ScaledFloat stores a block of decimals — every value float64(n)/10^k for one
// k ≤ 4, or one ULP beside it, corrected through a 2-bit lane — as the
// integers n, and a float filter over it compares their residuals.
// FramedString is PlainString with its end offsets stored as a ForInt frame.
//
// Retired schemes: delta varints and the varint-code dictionary are no longer
// written, and no kernel reads them. Upgrade, called where a block's bytes
// enter the process, decodes a block of either whole and encodes it again in
// a written scheme, so segments written before ForInt and PackedDict existed
// keep reading.
//
// One decoder per kind reads any part of a block: Decode*Spans decodes the
// rows of ascending spans of it — a window is one span, a whole block
// (Decode*) the span of every row. What spans of n values in all, the last
// ending at value end, cost (and SearchInt64s over [lo, hi)):
//
//   - PlainInt, ForInt, PlainFloat, ScaledFloat (with or without a lane),
//     BitBool, PlainString, FramedString, PackedDict: O(n)
//     (SearchInt64s: O(log(hi-lo)) on PlainInt and ForInt);
//   - RLEInt: O(n) plus the runs before end.
//
// RowExtent names the bytes of a block such a decode reads, so a reader may
// fetch only those: a cold point read of a block longer than a page reads
// just the pages its rows lie in.
package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"math/bits"
	"slices"
	"sort"
	"strings"
)

// ErrCorrupt is wrapped by every decode error: the bytes are not a block this
// package wrote, or the caller asked for values the block does not hold.
// Decoders never panic on hostile input and never size an allocation from a
// length they have not checked against the buffer.
var ErrCorrupt = errors.New("compress: corrupt block")

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// Scheme identifies the physical encoding of a block.
type Scheme byte

const (
	// PlainInt stores each int64 little-endian in 8 bytes.
	PlainInt Scheme = iota + 1
	// DeltaVarint stores zigzag-encoded deltas as varints. Retired: blocks
	// written before ForInt existed are read through Upgrade.
	DeltaVarint
	// RLEInt stores (zigzag varint value, varint run length) pairs.
	RLEInt
	// PlainFloat stores each float64 bit pattern little-endian in 8 bytes.
	PlainFloat
	// BitBool packs eight booleans per byte.
	BitBool
	// PlainString stores uint32 offsets followed by the concatenated bytes.
	PlainString
	// DictString stores a dictionary of the distinct strings, in order of
	// first appearance, followed by one varint code per value. Retired:
	// blocks written before PackedDict existed are read through Upgrade.
	DictString
	// ForInt stores value i as base + line(i) + a residual bit-packed at one
	// width for the whole block: a frame of reference, over a line through
	// the block's first and last value when that packs narrower.
	ForInt
	// PackedDict stores the distinct strings, in order of first appearance,
	// in PlainString layout (a uint32 count, end offsets, bytes), followed by
	// one code per value bit-packed at bits.Len(count-1) bits.
	PackedDict
	// ScaledFloat stores value i as float64(base+r_i) / 10^k: the base as a
	// little-endian int64, the digit count k (0..4) and the residual width,
	// then the residuals bit-packed at that width. With the digit count's
	// high bit set, each packed value also carries a 2-bit signed ULP
	// correction in its low bits: a lane (scaled.go).
	ScaledFloat
	// FramedString stores PlainString's end offsets as a ForInt body — a
	// base, a line and residuals bit-packed at one width — followed by the
	// concatenated bytes.
	FramedString
)

// headerSize is the scheme byte plus the little-endian uint32 value count
// every block starts with.
const headerSize = 5

// forHeaderSize is a ForInt body's prefix: the base and the 32.32 fixed-point
// slope as little-endian int64s, then the residual width in bits.
const forHeaderSize = 17

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// newBlock allocates a block of exactly size bytes and writes its header:
// the scheme tag and the value count. Encoders size a block before they write
// it, so nothing is ever grown or built and thrown away.
func newBlock(scheme Scheme, n, size int) []byte {
	buf := make([]byte, size)
	buf[0] = byte(scheme)
	binary.LittleEndian.PutUint32(buf[1:headerSize], uint32(n))
	return buf
}

// uvarintLen is the number of bytes binary.PutUvarint writes for u.
func uvarintLen(u uint64) int { return (bits.Len64(u|1) + 6) / 7 }

// putUvarint writes u at buf[p:] and returns the offset after it; the
// one-byte case (run lengths, small values) is inline.
func putUvarint(buf []byte, p int, u uint64) int {
	if u < 0x80 {
		buf[p] = byte(u)
		return p + 1
	}
	return p + binary.PutUvarint(buf[p:], u)
}

func readHeader(buf []byte) (Scheme, int, []byte, error) {
	if len(buf) < headerSize {
		return 0, 0, nil, corrupt("truncated header (%d bytes)", len(buf))
	}
	return Scheme(buf[0]), int(binary.LittleEndian.Uint32(buf[1:headerSize])), buf[headerSize:], nil
}

// window resolves a request for n values from index skip (n < 0: through the
// block's end) against a block holding count values, returning the exclusive
// end index.
func window(count, skip, n int) (int, error) {
	if n < 0 {
		n = count - skip
	}
	if skip < 0 || n < 0 || n > count-skip {
		return 0, corrupt("values [%d, %d+%d) requested from a block of %d", skip, skip, n, count)
	}
	return skip + n, nil
}

// packedLen is the byte length of n values bit-packed at w bits into
// little-endian 64-bit words. It is computed in uint64 so a hostile count and
// width cannot overflow it.
func packedLen(n int, w uint) uint64 { return 8 * ((uint64(n)*uint64(w) + 63) >> 6) }

// packer appends w-bit values to the little-endian 64-bit words at buf[p:].
type packer struct {
	buf []byte
	p   int
	acc uint64 // bits not yet written, low-aligned
	n   uint   // how many of acc's bits are live (< 64)
}

// put appends the low w bits of u (w <= 64; u must not have higher bits set).
func (pk *packer) put(u uint64, w uint) {
	pk.acc |= u << pk.n
	pk.n += w
	if pk.n >= 64 {
		binary.LittleEndian.PutUint64(pk.buf[pk.p:], pk.acc)
		pk.p += 8
		pk.n -= 64
		pk.acc = u >> (w - pk.n) // the bits of u the full word had no room for
	}
}

// flush writes the last, partly filled word.
func (pk *packer) flush() {
	if pk.n > 0 {
		binary.LittleEndian.PutUint64(pk.buf[pk.p:], pk.acc)
	}
}

// unpack is the one bit-unpack kernel every read of bit-packed values goes
// through: it stores values [from, from+len(dst)) of the w-bit values packed
// into packed in dst, which the caller has checked holds packedLen(count, w)
// bytes for a count that covers them. A value of at most 56 bits lies within
// the 8 bytes from the byte holding its first bit, so one unaligned load and
// a shift read it while those 8 bytes lie inside packed; at most 19 bits
// wide, the 57/w ≥ 3 values from there all lie within them, so one load reads
// that many. Values wider than 56 bits, and the last few of a block, are
// read by bitsAt.
func unpack[T int64 | uint64](dst []T, packed []byte, w uint, from int) {
	if w == 0 {
		clear(dst)
		return
	}
	i := 0
	if w <= 56 {
		w &= 63 // the compiler then knows every shift by w stays below 64
		mask, per := uint64(1)<<w-1, int(57/w)
		bp := uint(from) * w
		for ; per >= 3 && i+per <= len(dst) && int(bp>>3)+8 <= len(packed); bp += uint(per) * w {
			word := binary.LittleEndian.Uint64(packed[bp>>3:]) >> (bp & 7)
			out := dst[i : i+per]
			for j := range out {
				out[j] = T(word & mask)
				word >>= w
			}
			i += per
		}
		for ; i < len(dst) && int(bp>>3)+8 <= len(packed); bp += w {
			dst[i] = T(binary.LittleEndian.Uint64(packed[bp>>3:]) >> (bp & 7) & mask)
			i++
		}
	}
	for ; i < len(dst); i++ {
		dst[i] = T(bitsAt(packed, w, from+i))
	}
}

// forBlock is a parsed ForInt block: value i is base + line(i) + residual i.
type forBlock struct {
	base, slope int64
	w           uint
	packed      []byte
}

// line is the fixed-point line's value at i. All ForInt arithmetic wraps, the
// same way on both sides, so a round trip is exact whatever the values.
func (f *forBlock) line(i int) int64 { return (f.slope * int64(i)) >> 32 }

func (f *forBlock) at(i int) int64 {
	var r [1]int64
	unpack(r[:], f.packed, f.w, i)
	return f.base + f.line(i) + r[0]
}

// decode stores values [from, from+len(dst)) in dst.
func (f *forBlock) decode(dst []int64, from int) {
	unpack(dst, f.packed, f.w, from)
	if f.slope == 0 {
		for i := range dst {
			dst[i] += f.base
		}
		return
	}
	for i := range dst {
		dst[i] += f.base + f.line(from+i)
	}
}

// parseFor reads a ForInt body holding count values.
func parseFor(body []byte, count int) (forBlock, error) {
	if len(body) < forHeaderSize {
		return forBlock{}, corrupt("ForInt header truncated")
	}
	f := forBlock{
		base:   int64(binary.LittleEndian.Uint64(body)),
		slope:  int64(binary.LittleEndian.Uint64(body[8:])),
		w:      uint(body[16]),
		packed: body[forHeaderSize:],
	}
	if f.w > 64 || packedLen(count, f.w) > uint64(len(f.packed)) {
		return forBlock{}, corrupt("ForInt residuals truncated (width %d)", f.w)
	}
	return f, nil
}

// widthOf is the bit width of the residuals of values spanning [lo, hi].
func widthOf(lo, hi int64) uint { return uint(bits.Len64(uint64(hi - lo))) }

// fitFor chooses a non-empty block's frame of reference: the line through its
// first and last value when the residuals from it pack strictly narrower than
// from the plain minimum, the plain minimum (slope 0) otherwise. The line is
// tried when the block spans less than 2^31 end to end, so neither the slope
// nor slope·i overflows.
func fitFor(vals []int64) forBlock {
	n := len(vals)
	f := forBlock{}
	if d := vals[n-1] - vals[0]; n > 1 && (d >= 0) == (vals[n-1] >= vals[0]) && d > -1<<31 && d < 1<<31 {
		f.slope = (d << 32) / int64(n-1)
	}
	lo, hi, dlo, dhi := vals[0], vals[0], vals[0], vals[0]
	for i, v := range vals {
		lo, hi = min(lo, v), max(hi, v)
		d := v - f.line(i)
		dlo, dhi = min(dlo, d), max(dhi, d)
	}
	if w := widthOf(dlo, dhi); f.slope != 0 && w < widthOf(lo, hi) {
		f.base, f.w = dlo, w
		return f
	}
	return forBlock{base: lo, w: widthOf(lo, hi)}
}

// putFor writes the ForInt body of vals, at the frame fitFor chose for them,
// at buf[p:] and returns the offset after it.
func putFor(buf []byte, p int, f forBlock, vals []int64) int {
	binary.LittleEndian.PutUint64(buf[p:], uint64(f.base))
	binary.LittleEndian.PutUint64(buf[p+8:], uint64(f.slope))
	buf[p+16] = byte(f.w)
	if f.w > 0 {
		pk := packer{buf: buf, p: p + forHeaderSize}
		for i, v := range vals {
			pk.put(uint64(v-f.line(i)-f.base), f.w)
		}
		pk.flush()
	}
	return p + forHeaderSize + int(packedLen(len(vals), f.w))
}

// EncodeInt64s encodes vals, choosing the smallest of plain, ForInt and RLE
// when compress is true (plain unless ForInt is strictly smaller, RLE if
// strictly smaller than that), plain otherwise. One pass fits the frame of
// reference, a second sizes RLE up to the best size so far; only the winner
// is written.
func EncodeInt64s(vals []int64, compress bool) []byte {
	scheme, size := PlainInt, headerSize+8*len(vals)
	var f forBlock
	if compress && len(vals) > 0 {
		f = fitFor(vals)
		if s := headerSize + forHeaderSize + int(packedLen(len(vals), f.w)); s < size {
			scheme, size = ForInt, s
		}
		rle := headerSize
		// Sizes only grow, so RLE is out once it reaches the best so far.
		for i := 0; i < len(vals) && rle < size; {
			v, j := vals[i], i+1
			for j < len(vals) && vals[j] == v {
				j++
			}
			rle += uvarintLen(zigzag(v)) + uvarintLen(uint64(j-i))
			i = j
		}
		if rle < size {
			scheme, size = RLEInt, rle
		}
	}
	buf := newBlock(scheme, len(vals), size)
	p := headerSize
	switch scheme {
	case PlainInt:
		for _, v := range vals {
			binary.LittleEndian.PutUint64(buf[p:], uint64(v))
			p += 8
		}
	case ForInt:
		putFor(buf, p, f, vals)
	case RLEInt:
		for i := 0; i < len(vals); {
			j := i + 1
			for j < len(vals) && vals[j] == vals[i] {
				j++
			}
			p = putUvarint(buf, p, zigzag(vals[i]))
			p = putUvarint(buf, p, uint64(j-i))
			i = j
		}
	}
	return buf
}

// DecodeInt64s decodes a whole block produced by EncodeInt64s, appending to
// out: the one span of every row (DecodeInt64sSpans).
func DecodeInt64s(buf []byte, out []int64) ([]int64, error) {
	out, s, err := whole(buf, out)
	if err != nil {
		return nil, err
	}
	return out, DecodeInt64sSpans(buf, s[:], out)
}

// whole grows out by the value count of a whole block (wholeCount) and
// returns the one span of every row.
func whole[T any](buf []byte, out []T) ([]T, [1]Span, error) {
	n, err := wholeCount(buf)
	if err != nil {
		return nil, [1]Span{}, err
	}
	at := len(out)
	return slices.Grow(out, n)[:at+n], [1]Span{{At: at, N: n}}, nil
}

// DecodeFloat64s decodes a whole block produced by EncodeFloat64s, appending
// to out (see DecodeInt64s).
func DecodeFloat64s(buf []byte, out []float64) ([]float64, error) {
	out, s, err := whole(buf, out)
	if err != nil {
		return nil, err
	}
	return out, DecodeFloat64sSpans(buf, s[:], out)
}

// EncodeBools bit-packs booleans represented as 0/1 int64s (the vector
// layer's native bool representation). There is no plain alternative:
// bit-packing is always worthwhile and lossless.
func EncodeBools(vals []int64) []byte {
	buf := newBlock(BitBool, len(vals), headerSize+(len(vals)+7)/8)
	packed := buf[headerSize:]
	for i, v := range vals {
		if v != 0 {
			packed[i/8] |= 1 << (i % 8)
		}
	}
	return buf
}

// DecodeBools decodes a whole block produced by EncodeBools, appending 0/1
// int64s (see DecodeInt64s).
func DecodeBools(buf []byte, out []int64) ([]int64, error) {
	// A bool block whose bytes hold its count, before whole sizes out by the
	// count: an RLE block, say, may claim 2^32 values in a few bytes.
	if err := DecodeBoolsSpans(buf, nil, nil); err != nil {
		return nil, err
	}
	out, s, err := whole(buf, out)
	if err != nil {
		return nil, err
	}
	return out, DecodeBoolsSpans(buf, s[:], out)
}

// rleRun reads the (value, run length) pair at the front of an RLE body whose
// block has left values still to produce, returning the rest of the body.
func rleRun(body []byte, left int) (v int64, run int, rest []byte, err error) {
	u, sz := binary.Uvarint(body)
	if sz <= 0 {
		return 0, 0, nil, corrupt("bad RLE value varint")
	}
	body = body[sz:]
	r, sz := binary.Uvarint(body)
	if sz <= 0 {
		return 0, 0, nil, corrupt("bad RLE run varint")
	}
	if r == 0 || r > uint64(left) {
		return 0, 0, nil, corrupt("RLE run overflows block")
	}
	return unzigzag(u), int(r), body[sz:], nil
}

// SearchInt64s finds want among values [lo, hi) of an int block the caller
// knows to be sorted there, without materializing them: ge is the index of
// the first value >= want and gt of the first value > want, each hi when there
// is none. PlainInt and ForInt blocks binary-search in place, RLE blocks walk
// their runs.
func SearchInt64s(buf []byte, lo, hi int, want int64) (ge, gt int, err error) {
	scheme, count, body, err := readHeader(buf)
	if err != nil {
		return 0, 0, err
	}
	if hi < lo {
		return 0, 0, corrupt("values [%d, %d) requested", lo, hi)
	}
	if _, err := window(count, lo, hi-lo); err != nil {
		return 0, 0, err
	}
	switch scheme {
	case PlainInt:
		if len(body)/8 < count {
			return 0, 0, corrupt("plain int block truncated")
		}
		ge, gt = searchSorted(lo, hi, want, func(i int) int64 { return int64(binary.LittleEndian.Uint64(body[8*i:])) })
		return ge, gt, nil
	case ForInt:
		f, err := parseFor(body, count)
		if err != nil {
			return 0, 0, err
		}
		ge, gt = searchSorted(lo, hi, want, f.at)
		return ge, gt, nil
	case RLEInt:
		ge = hi // until a run in the window holds a value >= want
		for got := 0; got < hi; {
			v, run, rest, err := rleRun(body, count-got)
			if err != nil {
				return 0, 0, err
			}
			body = rest
			if got+run > lo {
				if v >= want && ge == hi {
					ge = max(got, lo)
				}
				if v > want {
					return ge, max(got, lo), nil
				}
			}
			got += run
		}
		return ge, hi, nil
	}
	return 0, 0, corrupt("scheme %d is not an int encoding", scheme)
}

// searchSorted binary-searches [lo, hi) of a sorted random-access sequence.
func searchSorted(lo, hi int, want int64, at func(int) int64) (ge, gt int) {
	ge = lo + sort.Search(hi-lo, func(r int) bool { return at(lo+r) >= want })
	gt = ge + sort.Search(hi-ge, func(r int) bool { return at(ge+r) > want })
	return ge, gt
}

// dictSeed keys the hash of the dictionary sizing pass past smallDict
// entries. Codes are assigned in first-appearance order, so the seed never
// shows in the output.
var dictSeed = maphash.MakeSeed()

// codeWidth is the bit width of a PackedDict block's codes for ndict entries.
func codeWidth(ndict int) uint {
	if ndict <= 1 {
		return 0
	}
	return uint(bits.Len(uint(ndict - 1)))
}

// DecodeStrings decodes a whole block produced by EncodeStrings, appending to
// out (see DecodeInt64s). Its values share one copy of their bytes
// (DecodeStringsSpans), so a retained value keeps the whole copy alive.
func DecodeStrings(buf []byte, out []string) ([]string, error) {
	out, s, err := whole(buf, out)
	if err != nil {
		return nil, err
	}
	return out, DecodeStringsSpans(buf, s[:], out)
}

// EncodeStrings encodes vals, when compress is true, as the smallest of
// plain, FramedString (taken only when strictly smaller than plain) and the
// packed dictionary (only when strictly smaller than both); plain otherwise.
// The dictionary is sized first (sizeDict). No FramedString block is smaller
// than its header, frame header and data, so a dictionary below that and
// below plain wins without the end offsets being framed; otherwise one pass
// fits the frame and the rule above decides. Only the winner is written.
func EncodeStrings(vals []string, compress bool) []byte {
	n := len(vals)
	data := 0
	for _, s := range vals {
		data += len(s)
	}
	scheme, size := PlainString, headerSize+4*n+data
	var ends []int64
	var f forBlock
	if compress && n > 0 {
		codes, ndict, dsize := sizeDict(vals)
		if dsize < min(size, headerSize+forHeaderSize+data) {
			return writeDict(vals, codes, ndict, dsize)
		}
		ends = make([]int64, n)
		end := int64(0)
		for i, s := range vals {
			end += int64(len(s))
			ends[i] = end
		}
		f = fitFor(ends)
		if s := headerSize + forHeaderSize + int(packedLen(n, f.w)) + data; s < size {
			scheme, size = FramedString, s
		}
		if dsize < size {
			return writeDict(vals, codes, ndict, dsize)
		}
	}
	buf := newBlock(scheme, n, size)
	p := headerSize + 4*n
	if scheme == FramedString {
		p = putFor(buf, headerSize, f, ends)
	} else {
		off := uint32(0)
		for i, s := range vals {
			off += uint32(len(s))
			binary.LittleEndian.PutUint32(buf[headerSize+4*i:], off)
		}
	}
	for _, s := range vals {
		p += copy(buf[p:], s)
	}
	return buf
}

// smallDict is how many dictionary entries sizeDict looks a value up among
// by comparing it with each in turn, before it hashes.
const smallDict = 16

// sizeDict assigns every value of vals (at least one) its dictionary code,
// in first-appearance order, and sums the exact size of the PackedDict block
// without building it. While the dictionary holds at most smallDict entries a
// value is compared with each entry, first appearance first; no hash and no
// table. The value that would be entry smallDict+1 seeds an open-addressed
// table (a power of two, at most half full, holding 1 + the index of a
// distinct value's first appearance) with the entries so far, and every value
// from it on is hashed.
func sizeDict(vals []string) (codes []uint32, ndict, size int) {
	n := len(vals)
	codes = make([]uint32, n)
	var first [smallDict]uint32 // each entry's first appearance
	// Each entry's length and first byte, which tell most entries apart
	// without comparing bytes, and which are the whole of a value of at most
	// one byte.
	var keys [smallDict]uint64
	dictBytes, i := 0, 0
scan:
	for ; i < n; i++ {
		s := vals[i]
		k := uint64(len(s)) << 8
		if len(s) > 0 {
			k |= uint64(s[0])
		}
		for c := 0; c < ndict; c++ {
			if keys[c] == k && (len(s) <= 1 || vals[first[c]] == s) {
				codes[i] = uint32(c)
				continue scan
			}
		}
		if ndict == smallDict {
			break
		}
		first[ndict], keys[ndict] = uint32(i), k
		codes[i] = uint32(ndict)
		ndict++
		dictBytes += len(s)
	}
	if i < n {
		mask := 1<<bits.Len(uint(2*n-1)) - 1
		slots := make([]uint32, mask+1)
		for _, at := range first {
			h := int(maphash.String(dictSeed, vals[at])) & mask
			for slots[h] != 0 {
				h = (h + 1) & mask
			}
			slots[h] = at + 1
		}
		for ; i < n; i++ {
			s := vals[i]
			h := int(maphash.String(dictSeed, s)) & mask
			for slots[h] != 0 && vals[slots[h]-1] != s {
				h = (h + 1) & mask
			}
			if slots[h] == 0 {
				slots[h] = uint32(i + 1)
				codes[i] = uint32(ndict)
				ndict++
				dictBytes += len(s)
			} else {
				codes[i] = codes[slots[h]-1]
			}
		}
	}
	return codes, ndict, headerSize + 4 + 4*ndict + dictBytes + int(packedLen(n, codeWidth(ndict)))
}

// writeDict writes the PackedDict block sizeDict sized: size bytes holding
// ndict entries and vals' codes.
func writeDict(vals []string, codes []uint32, ndict, size int) []byte {
	w := codeWidth(ndict)
	buf := newBlock(PackedDict, len(vals), size)
	binary.LittleEndian.PutUint32(buf[headerSize:], uint32(ndict))
	offs, p := headerSize+4, headerSize+4+4*ndict
	next := uint32(0)
	for i, s := range vals {
		if codes[i] == next { // first appearance: the next dictionary entry
			p += copy(buf[p:], s)
			binary.LittleEndian.PutUint32(buf[offs+4*int(next):], uint32(p-offs-4*ndict))
			next++
		}
	}
	if w > 0 {
		pk := packer{buf: buf, p: p}
		for _, c := range codes {
			pk.put(uint64(c), w)
		}
		pk.flush()
	}
	return buf
}

// strBlock is a parsed PlainString or FramedString block: value i is
// data[start(i):start(i+1)], where start(0) is 0 and start(i) value i-1's end
// offset. The two layouts differ only in how those offsets are stored, and
// starts is the one reader of them.
type strBlock struct {
	offs   []byte   // PlainString: count little-endian uint32 end offsets
	frame  forBlock // FramedString: the end offsets' ForInt frame
	framed bool
	data   []byte
}

// parseStrings reads a PlainString or FramedString body holding count
// values. The offsets are checked as they are read: every reader holds them
// to 0 <= start(i) <= start(i+1) <= len(data) over the values it reads.
func parseStrings(scheme Scheme, body []byte, count int) (strBlock, error) {
	switch scheme {
	case PlainString:
		if len(body)/4 < count {
			return strBlock{}, corrupt("string offsets truncated")
		}
		return strBlock{offs: body[:4*count], data: body[4*count:]}, nil
	case FramedString:
		f, err := parseFor(body, count)
		if err != nil {
			return strBlock{}, err
		}
		n := int(packedLen(count, f.w))
		f.packed = f.packed[:n]
		return strBlock{frame: f, framed: true, data: body[forHeaderSize+n:]}, nil
	}
	return strBlock{}, corrupt("scheme %d is not a string encoding", scheme)
}

// starts stores start(from+k) in dst[k], for from+len(dst) <= count+1: the
// offsets of a run of values, and the end of the run's last one, read a
// chunk at a time.
func (s *strBlock) starts(dst []int64, from int) {
	if len(dst) == 0 {
		return
	}
	if from == 0 {
		dst[0] = 0
		dst, from = dst[1:], 1
	}
	if s.framed {
		s.frame.decode(dst, from-1)
		return
	}
	offs := s.offs[4*(from-1):]
	for k := range dst {
		dst[k] = int64(binary.LittleEndian.Uint32(offs[4*k:]))
	}
}

// start is start(i) alone.
func (s *strBlock) start(i int) int64 {
	var b [1]int64
	s.starts(b[:], i)
	return b[0]
}

// checkOffsets checks that [lo, hi) is a value's bytes inside [first, end),
// the part of data a read copied: an offset out of order or past the data is
// corrupt.
func checkOffsets(lo, hi, first, end int64) error {
	if lo < first || lo > hi || hi > end {
		return corrupt("bad string offset")
	}
	return nil
}

// arena copies data[first:end) once for the values of a read to share, after
// checking that it lies within the data.
func (s *strBlock) arena(first, end int64) (string, error) {
	if first < 0 || first > end || end > int64(len(s.data)) {
		return "", corrupt("bad string offset")
	}
	return string(s.data[first:end]), nil
}

// dictBlock is a parsed PackedDict block.
type dictBlock struct {
	ndict int
	offs  []byte // ndict little-endian uint32 end offsets into data
	data  []byte
	w     uint
	codes []byte // count codes, bit-packed at w bits
}

// parseDict reads a PackedDict body holding count values. Its entries are
// checked as they are read (entry).
func parseDict(body []byte, count int) (dictBlock, error) {
	if len(body) < 4 {
		return dictBlock{}, corrupt("dict header truncated")
	}
	nd := uint64(binary.LittleEndian.Uint32(body))
	body = body[4:]
	if nd > uint64(len(body)/4) || (nd == 0 && count > 0) {
		return dictBlock{}, corrupt("bad dict length")
	}
	d := dictBlock{ndict: int(nd), offs: body[:4*nd], w: codeWidth(int(nd))}
	body = body[4*nd:]
	size := uint64(0)
	if nd > 0 {
		size = uint64(binary.LittleEndian.Uint32(d.offs[4*nd-4:]))
	}
	if size > uint64(len(body)) || packedLen(count, d.w) > uint64(len(body))-size {
		return dictBlock{}, corrupt("dict block truncated")
	}
	d.data, d.codes = body[:size], body[size:]
	return d, nil
}

// codeChunk is how many codes a dictionary decode unpacks at a time, into a
// buffer on the stack.
const codeChunk = 256

// copyOut stores in vals[k] the value of codes[k]. The values share one
// arena holding their own bytes alone.
func (d *dictBlock) copyOut(codes []uint64, vals []string) error {
	total := 0
	for _, c := range codes {
		lo, hi, err := d.entry(c)
		if err != nil {
			return err
		}
		total += int(hi - lo)
	}
	var sb strings.Builder
	sb.Grow(total)
	for _, c := range codes {
		lo, hi, _ := d.entry(c)
		sb.Write(d.data[lo:hi])
	}
	arena, p := sb.String(), 0
	for k, c := range codes {
		lo, hi, _ := d.entry(c)
		vals[k] = arena[p : p+int(hi-lo)]
		p += int(hi - lo)
	}
	return nil
}

// table slices every entry out of arena, a copy of d.data, once — into buf's
// room when it fits — for a read of at least as many values as there are
// entries. It is nil when some entry is malformed: such reads check each
// value's entry as they meet it (value), so an entry no code names is never an
// error.
func (d *dictBlock) table(arena string, buf []string) []string {
	if d.ndict > cap(buf) {
		buf = make([]string, 0, d.ndict)
	}
	for c := 0; c < d.ndict; c++ {
		lo, hi, err := d.entry(uint64(c))
		if err != nil {
			return nil
		}
		buf = append(buf, arena[lo:hi])
	}
	return buf
}

// value is code c's checked entry sliced out of arena, a copy of d.data: a
// read without a table, or past a table's entries.
func (d *dictBlock) value(arena string, c uint64) (string, error) {
	lo, hi, err := d.entry(c)
	if err != nil {
		return "", err
	}
	return arena[lo:hi], nil
}

// entry returns the bounds of dictionary entry c in d.data.
func (d *dictBlock) entry(c uint64) (lo, hi uint32, err error) {
	if c >= uint64(d.ndict) {
		return 0, 0, corrupt("bad dict code")
	}
	hi = binary.LittleEndian.Uint32(d.offs[4*c:])
	if c > 0 {
		lo = binary.LittleEndian.Uint32(d.offs[4*c-4:])
	}
	if lo > hi || uint64(hi) > uint64(len(d.data)) {
		return 0, 0, corrupt("bad dict entry")
	}
	return lo, hi, nil
}

// DictValues returns the dictionary of a PackedDict block — its exact
// distinct value set, in first-appearance order — without decoding the code
// stream. ok is false for a PlainString or FramedString block, and any other
// scheme is not a string block (ErrCorrupt). Index builds and
// encoded-block filters use it to see every value a block can produce at
// dictionary cost instead of row count cost. A packed dictionary's values
// share one copy of its bytes: a summary keeps every entry or none.
func DictValues(buf []byte) (vals []string, ok bool, err error) {
	scheme, count, body, err := readHeader(buf)
	switch {
	case err != nil:
		return nil, false, err
	case scheme == PlainString || scheme == FramedString:
		return nil, false, nil
	case scheme != PackedDict:
		return nil, false, corrupt("scheme %d is not a string encoding", scheme)
	}
	d, err := parseDict(body, count)
	if err != nil {
		return nil, false, err
	}
	arena := string(d.data)
	vals = make([]string, d.ndict)
	for c := range vals {
		lo, hi, err := d.entry(uint64(c))
		if err != nil {
			return nil, false, err
		}
		vals[c] = arena[lo:hi]
	}
	return vals, true, nil
}

// RunValues returns one value per run of equal values of an int block whose
// runs are known without reading its rows — the run values of an RLEInt
// block, or the points of a width-0 ForInt block's line (every value of such
// a block lies on the line, so it holds no residuals) — a list holding every
// value the block holds and nothing else. ok is false for any other block.
func RunValues(buf []byte) (vals []int64, ok bool, err error) {
	scheme, n, body, err := readHeader(buf)
	if err != nil {
		return nil, false, err
	}
	switch scheme {
	case RLEInt:
		for got := 0; got < n; {
			v, run, rest, err := rleRun(body, n-got)
			if err != nil {
				return nil, false, err
			}
			vals, body, got = append(vals, v), rest, got+run
		}
		return vals, true, nil
	case ForInt:
		f, err := parseFor(body, n)
		if err != nil || f.w != 0 {
			return nil, false, err
		}
		for i := 0; i < n; i++ {
			if v := f.base + f.line(i); i == 0 || v != vals[len(vals)-1] {
				vals = append(vals, v)
			}
		}
		return vals, true, nil
	}
	return nil, false, nil
}

// BlockScheme reports the scheme tag of an encoded block (for stats/tests).
func BlockScheme(buf []byte) Scheme {
	if len(buf) == 0 {
		return 0
	}
	return Scheme(buf[0])
}

// BlockCount reports the value count an encoded block's header claims, -1
// when it has no header. RLE runs and width-0 ForInt, ScaledFloat,
// FramedString and PackedDict blocks hold any count in a few bytes, so a
// caller about to decode a whole block it did not write checks this against
// the rows it expects first.
func BlockCount(buf []byte) int {
	_, count, _, err := readHeader(buf)
	if err != nil {
		return -1
	}
	return count
}

// wholeCount is the value count of a whole block, once buf's bytes could hold
// that many values, so that nothing is sized from a count they could not. A
// plain block spends 8 bytes per int or float and a 4-byte offset per string,
// and a BitBool block a bit per value; RLE runs are walked, and width-0
// ForInt, ScaledFloat, FramedString and PackedDict blocks hold any count
// (callers check BlockCount against the rows they expect first). Any other
// scheme is not a written one, and no whole decode of it sizes anything.
func wholeCount(buf []byte) (int, error) {
	scheme, count, body, err := readHeader(buf)
	if err != nil {
		return 0, err
	}
	var bitsPer uint64
	switch scheme {
	case RLEInt:
		for got := 0; got < count && err == nil; {
			var run int
			_, run, body, err = rleRun(body, count-got)
			got += run
		}
		return count, err
	case FramedString, ForInt: // a FramedString body starts with its offsets' ForInt frame
		_, err = parseFor(body, count)
		return count, err
	case PackedDict:
		_, err = parseDict(body, count)
		return count, err
	case ScaledFloat:
		_, err = parseScaled(body, count)
		return count, err
	case PlainInt, PlainFloat:
		bitsPer = 64
	case PlainString:
		bitsPer = 32
	case BitBool:
		bitsPer = 1
	default:
		return 0, corrupt("scheme %d is not a written encoding", scheme)
	}
	if (uint64(count)*bitsPer+7)/8 > uint64(len(body)) {
		return 0, corrupt("%d values in %d bytes", count, len(body))
	}
	return count, nil
}
