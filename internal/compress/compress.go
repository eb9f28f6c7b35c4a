// Package compress implements the lightweight column-block codecs the stable
// store uses: plain, delta+zigzag varint and run-length encoding for
// integers, bit-packing for booleans, and plain/dictionary encodings for
// strings. Encoders pick the smallest applicable scheme per block (column
// stores compress per block so scans can skip and decompress independently),
// unless compression is disabled, in which case the plain scheme is forced —
// that is the paper's "non-compressed" workstation configuration.
package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
	"sort"
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
	// DeltaVarint stores zigzag-encoded deltas as varints; dense sorted
	// columns (keys!) compress extremely well.
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
	// first appearance, followed by one varint code per value.
	DictString
)

// headerSize is the scheme byte plus the little-endian uint32 value count
// every block starts with.
const headerSize = 5

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
// one-byte case (zero deltas, run lengths, small dictionary codes) is inline.
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

// uvarint2 decodes a one- or two-byte varint at body[p:] — the widths sorted
// keys, dates and dictionary codes almost always take — with a branch per
// width the predictor learns, which is what makes walking the prefix of a
// delta block to a probe's window cheap. sz == 0 sends the caller to
// binary.Uvarint (longer varint, or too close to the buffer's end).
func uvarint2(body []byte, p int) (u uint64, sz int) {
	if p+1 < len(body) {
		b0, b1 := body[p], body[p+1]
		if b0 < 0x80 {
			return uint64(b0), 1
		}
		if b1 < 0x80 {
			return uint64(b0&0x7f) | uint64(b1)<<7, 2
		}
	}
	return 0, 0
}

// EncodeInt64s encodes vals, choosing the smallest of plain, delta-varint and
// RLE when compress is true (plain unless delta is strictly smaller, RLE if
// strictly smaller than that), plain otherwise. One pass over the run
// structure sizes all three; only the winner is written.
func EncodeInt64s(vals []int64, compress bool) []byte {
	plain := headerSize + 8*len(vals)
	scheme, size := PlainInt, plain
	if compress {
		delta, rle := headerSize, headerSize
		prev := int64(0)
		// Sizes only grow, so once both are past plain the block is plain.
		for i := 0; i < len(vals) && (delta < plain || rle < plain); {
			v, j := vals[i], i+1
			for j < len(vals) && vals[j] == v {
				j++
			}
			delta += uvarintLen(zigzag(v-prev)) + (j - i - 1) // a repeat is a zero delta
			rle += uvarintLen(zigzag(v)) + uvarintLen(uint64(j-i))
			prev, i = v, j
		}
		if delta < size {
			scheme, size = DeltaVarint, delta
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
	case DeltaVarint:
		prev := int64(0)
		for _, v := range vals {
			p = putUvarint(buf, p, zigzag(v-prev))
			prev = v
		}
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

// DecodeInt64s decodes a block produced by EncodeInt64s, appending to out.
func DecodeInt64s(buf []byte, out []int64) ([]int64, error) {
	return DecodeInt64sFrom(buf, 0, -1, out)
}

// DecodeInt64sFrom decodes the n values of a block starting at value index
// skip, appending to out; n < 0 decodes through the block's end. Point probes
// use it to materialize only the window they will read: plain blocks jump
// straight to the offset, varint blocks walk the prefix without appending it
// and stop at the window's end, and RLE blocks skip whole runs
// arithmetically. A window reaching past the block's value count is an error.
func DecodeInt64sFrom(buf []byte, skip, n int, out []int64) ([]int64, error) {
	scheme, count, body, err := readHeader(buf)
	if err != nil {
		return nil, err
	}
	end, err := window(count, skip, n)
	if err != nil {
		return nil, err
	}
	switch scheme {
	case PlainInt:
		if len(body)/8 < count {
			return nil, corrupt("plain int block truncated")
		}
		for i := skip; i < end; i++ {
			out = append(out, int64(binary.LittleEndian.Uint64(body[8*i:])))
		}
		return out, nil
	case DeltaVarint:
		prev, p := int64(0), 0
		for i := 0; i < end; i++ {
			u, sz := uvarint2(body, p)
			if sz == 0 {
				if u, sz = binary.Uvarint(body[p:]); sz <= 0 {
					return nil, corrupt("bad varint in delta block")
				}
			}
			p += sz
			prev += unzigzag(u)
			if i >= skip {
				out = append(out, prev)
			}
		}
		return out, nil
	case RLEInt:
		for got := 0; got < end; {
			u, sz := binary.Uvarint(body)
			if sz <= 0 {
				return nil, corrupt("bad RLE value varint")
			}
			body = body[sz:]
			run, sz := binary.Uvarint(body)
			if sz <= 0 {
				return nil, corrupt("bad RLE run varint")
			}
			body = body[sz:]
			if run == 0 || run > uint64(count-got) {
				return nil, corrupt("RLE run overflows block")
			}
			v := unzigzag(u)
			for k := max(got, skip); k < min(got+int(run), end); k++ {
				out = append(out, v)
			}
			got += int(run)
		}
		return out, nil
	}
	return nil, corrupt("scheme %d is not an int encoding", scheme)
}

// EncodeFloat64s encodes vals; floats are stored plain (the paper's
// lightweight codecs target keys and categorical data, not measures).
func EncodeFloat64s(vals []float64) []byte {
	buf := newBlock(PlainFloat, len(vals), headerSize+8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[headerSize+8*i:], math.Float64bits(v))
	}
	return buf
}

// DecodeFloat64s decodes a block produced by EncodeFloat64s, appending to out.
func DecodeFloat64s(buf []byte, out []float64) ([]float64, error) {
	return DecodeFloat64sFrom(buf, 0, -1, out)
}

// DecodeFloat64sFrom decodes the n values starting at value index skip (see
// DecodeInt64sFrom).
func DecodeFloat64sFrom(buf []byte, skip, n int, out []float64) ([]float64, error) {
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
	for i := skip; i < end; i++ {
		out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:])))
	}
	return out, nil
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

// DecodeBools decodes a block produced by EncodeBools, appending 0/1 int64s.
func DecodeBools(buf []byte, out []int64) ([]int64, error) {
	return DecodeBoolsFrom(buf, 0, -1, out)
}

// DecodeBoolsFrom decodes the n values starting at value index skip (see
// DecodeInt64sFrom).
func DecodeBoolsFrom(buf []byte, skip, n int, out []int64) ([]int64, error) {
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
	for i := skip; i < end; i++ {
		out = append(out, int64(body[i/8]>>(i%8)&1))
	}
	return out, nil
}

// dictSeed keys the hash of the dictionary sizing pass. Codes are assigned in
// first-appearance order, so the seed never shows in the output.
var dictSeed = maphash.MakeSeed()

// EncodeStrings encodes vals, choosing dictionary encoding when it is
// strictly smaller than plain (and compress is true). The dictionary pass
// assigns every value its code and sums the exact dictionary block size
// without building the block; only the winner is written.
func EncodeStrings(vals []string, compress bool) []byte {
	n := len(vals)
	plain := headerSize + 4*n
	for _, s := range vals {
		plain += len(s)
	}
	if compress {
		// One scratch allocation: codes[i] is vals[i]'s dictionary code, slots
		// an open-addressed table (a power of two, at most half full) holding
		// 1 + the index of a distinct value's first appearance.
		mask := 1<<bits.Len(uint(max(2*n-1, 0))) - 1
		scratch := make([]uint32, n+mask+1)
		codes, slots := scratch[:n], scratch[n:]
		ndict, dict := 0, headerSize
		for i, s := range vals {
			h := int(maphash.String(dictSeed, s)) & mask
			for slots[h] != 0 && vals[slots[h]-1] != s {
				h = (h + 1) & mask
			}
			if slots[h] == 0 {
				slots[h] = uint32(i + 1)
				codes[i] = uint32(ndict)
				ndict++
				dict += uvarintLen(uint64(len(s))) + len(s)
			} else {
				codes[i] = codes[slots[h]-1]
			}
			dict += uvarintLen(uint64(codes[i]))
		}
		dict += uvarintLen(uint64(ndict))
		if dict < plain {
			buf := newBlock(DictString, n, dict)
			p := putUvarint(buf, headerSize, uint64(ndict))
			next := uint32(0)
			for i, s := range vals {
				if codes[i] == next { // first appearance: the next dictionary entry
					p = putUvarint(buf, p, uint64(len(s)))
					p += copy(buf[p:], s)
					next++
				}
			}
			for _, c := range codes {
				p = putUvarint(buf, p, uint64(c))
			}
			return buf
		}
	}
	buf := newBlock(PlainString, n, plain)
	off, p := uint32(0), headerSize+4*n
	for i, s := range vals {
		off += uint32(len(s))
		binary.LittleEndian.PutUint32(buf[headerSize+4*i:], off)
		p += copy(buf[p:], s)
	}
	return buf
}

// DecodeStrings decodes a block produced by EncodeStrings, appending to out.
func DecodeStrings(buf []byte, out []string) ([]string, error) {
	return DecodeStringsFrom(buf, 0, -1, out)
}

// DecodeStringsFrom decodes the n values starting at value index skip (see
// DecodeInt64sFrom). Plain blocks random-access the offset array; dictionary
// blocks still parse the dictionary but walk the codes before the window
// without materializing their strings, and stop at the window's end. The
// values of one call share one allocation: a plain window's bytes, or a
// dictionary's, are copied out of buf once and every value is a slice of
// that copy — so a retained value keeps the whole copy alive.
func DecodeStringsFrom(buf []byte, skip, n int, out []string) ([]string, error) {
	scheme, count, body, err := readHeader(buf)
	if err != nil {
		return nil, err
	}
	end, err := window(count, skip, n)
	if err != nil {
		return nil, err
	}
	switch scheme {
	case PlainString:
		if len(body)/4 < count {
			return nil, corrupt("string offsets truncated")
		}
		data := body[4*count:]
		if end == skip {
			return out, nil
		}
		first := uint32(0)
		if skip > 0 {
			first = binary.LittleEndian.Uint32(body[4*(skip-1):])
		}
		last := binary.LittleEndian.Uint32(body[4*(end-1):])
		if first > last || uint64(last) > uint64(len(data)) {
			return nil, corrupt("bad string offset")
		}
		// One arena for the window's bytes; every value is a slice of it.
		arena, prev := string(data[first:last]), first
		for i := skip; i < end; i++ {
			off := binary.LittleEndian.Uint32(body[4*i:])
			if off < prev || off > last {
				return nil, corrupt("bad string offset")
			}
			out = append(out, arena[prev-first:off-first])
			prev = off
		}
		return out, nil
	case DictString:
		dictLen, body, err := dictHeader(body)
		if err != nil {
			return nil, err
		}
		if end-skip < dictLen {
			return decodeDictWindow(body, dictLen, skip, end, out)
		}
		// The window is at least as long as the dictionary: materialize the
		// dictionary once — one arena holding all its bytes, each entry a
		// slice of it — and share an entry across all its codes. (A scan's
		// batch may pin the block's dictionary; the paths whose results are
		// retained, decodeDictWindow and DictValues, copy per entry.)
		p := 0
		for i := 0; i < dictLen; i++ {
			if _, p, err = dictEntry(body, p); err != nil {
				return nil, err
			}
		}
		arena, dict := string(body[:p]), make([]string, dictLen)
		p = 0
		for i := range dict {
			entry, next, _ := dictEntry(body, p)
			dict[i] = arena[next-len(entry) : next]
			p = next
		}
		i := 0
		if dictLen <= 0x80 && skip <= len(body)-p {
			// Every valid code fits one byte, so the window starts skip in.
			i, p = skip, p+skip
		}
		for ; i < end; i++ {
			code, sz := uvarint2(body, p)
			if sz == 0 {
				code, sz = binary.Uvarint(body[p:])
			}
			if sz <= 0 || code >= uint64(dictLen) {
				return nil, corrupt("bad dict code")
			}
			p += sz
			if i >= skip {
				out = append(out, dict[code])
			}
		}
		return out, nil
	}
	return nil, corrupt("scheme %d is not a string encoding", scheme)
}

// decodeDictWindow decodes codes [skip, end) of a dictionary block whose
// window is shorter than its dictionary (a probe reading a handful of rows of
// a block whose dictionary may hold thousands of entries), keeping no
// per-entry state: it steps over the dictionary to reach the codes, reads the
// window's, then revisits the dictionary once for just the entries they name.
func decodeDictWindow(body []byte, dictLen, skip, end int, out []string) ([]string, error) {
	p, err := 0, error(nil)
	for i := 0; i < dictLen; i++ {
		if _, p, err = dictEntry(body, p); err != nil {
			return nil, err
		}
	}
	codes, i, p := body[p:], 0, 0
	if dictLen <= 0x80 && skip <= len(codes) {
		// Every valid code fits one byte, so the window starts at byte skip.
		i, p = skip, skip
	}
	want := make([]int, 0, end-skip)
	for ; i < end; i++ {
		code, sz := uvarint2(codes, p)
		if sz == 0 {
			code, sz = binary.Uvarint(codes[p:])
		}
		if sz <= 0 || code >= uint64(dictLen) {
			return nil, corrupt("bad dict code")
		}
		p += sz
		if i >= skip {
			want = append(want, int(code))
		}
	}
	// Fill the window in code order, so one forward pass over the dictionary
	// serves every position; equal codes share one string.
	order := make([]int, len(want))
	for k := range order {
		order[k] = k
	}
	sort.Slice(order, func(a, b int) bool { return want[order[a]] < want[order[b]] })
	base := len(out)
	out = append(out, make([]string, len(want))...)
	next, str := 0, ""
	p = 0
	for n, k := range order {
		if n == 0 || want[k] != want[order[n-1]] {
			var entry []byte
			for ; next <= want[k]; next++ {
				if entry, p, err = dictEntry(body, p); err != nil {
					return nil, err
				}
			}
			str = string(entry)
		}
		out[base+k] = str
	}
	return out, nil
}

// dictHeader reads a dictionary block's entry count, bounded by the bytes
// left (every entry takes at least its length byte).
func dictHeader(body []byte) (int, []byte, error) {
	dictLen, sz := binary.Uvarint(body)
	if sz <= 0 || dictLen > uint64(len(body)-sz) {
		return 0, nil, corrupt("bad dict length")
	}
	return int(dictLen), body[sz:], nil
}

// dictEntry reads the length-prefixed dictionary entry at body[p:], returning
// its bytes (aliasing body) and the offset of whatever follows it.
func dictEntry(body []byte, p int) (entry []byte, next int, err error) {
	l, sz := uvarint2(body, p)
	if sz == 0 {
		l, sz = binary.Uvarint(body[p:])
	}
	if sz <= 0 || l > uint64(len(body)-p-sz) {
		return nil, 0, corrupt("bad dict entry")
	}
	next = p + sz + int(l)
	return body[p+sz : next], next, nil
}

// DictValues returns the dictionary of a DictString block — its exact
// distinct value set, in first-appearance order — without decoding the code
// stream. ok is false for any other scheme. Index builds and encoded-block
// filters use it to see every value a block can produce at dictionary cost
// instead of row count cost.
func DictValues(buf []byte) (vals []string, ok bool, err error) {
	scheme, _, body, err := readHeader(buf)
	if err != nil {
		return nil, false, err
	}
	if scheme != DictString {
		return nil, false, nil
	}
	dictLen, body, err := dictHeader(body)
	if err != nil {
		return nil, false, err
	}
	vals = make([]string, dictLen)
	for i, p := 0, 0; i < dictLen; i++ {
		var entry []byte
		if entry, p, err = dictEntry(body, p); err != nil {
			return nil, false, err
		}
		vals[i] = string(entry)
	}
	return vals, true, nil
}

// RLEValues returns the run values of an RLEInt block — a superset-free list
// of every value the block holds, one entry per run — without materializing
// the rows. ok is false for any other scheme.
func RLEValues(buf []byte) (vals []int64, ok bool, err error) {
	scheme, n, body, err := readHeader(buf)
	if err != nil {
		return nil, false, err
	}
	if scheme != RLEInt {
		return nil, false, nil
	}
	got := 0
	for got < n {
		u, sz := binary.Uvarint(body)
		if sz <= 0 {
			return nil, false, corrupt("bad RLE value varint")
		}
		body = body[sz:]
		run, sz := binary.Uvarint(body)
		if sz <= 0 {
			return nil, false, corrupt("bad RLE run varint")
		}
		body = body[sz:]
		if run == 0 || run > uint64(n-got) {
			return nil, false, corrupt("RLE run overflows block")
		}
		vals = append(vals, unzigzag(u))
		got += int(run)
	}
	return vals, true, nil
}

// BlockScheme reports the scheme tag of an encoded block (for stats/tests).
func BlockScheme(buf []byte) Scheme {
	if len(buf) == 0 {
		return 0
	}
	return Scheme(buf[0])
}
