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
	"math"
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
	// DictString stores a sorted dictionary of distinct strings followed by
	// varint codes.
	DictString
)

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func putHeader(scheme Scheme, n int) []byte {
	buf := make([]byte, 0, 5+n)
	buf = append(buf, byte(scheme))
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], uint32(n))
	return append(buf, tmp[:]...)
}

func readHeader(buf []byte) (Scheme, int, []byte, error) {
	if len(buf) < 5 {
		return 0, 0, nil, corrupt("truncated header (%d bytes)", len(buf))
	}
	return Scheme(buf[0]), int(binary.LittleEndian.Uint32(buf[1:5])), buf[5:], nil
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
// RLE when compress is true, plain otherwise.
func EncodeInt64s(vals []int64, compress bool) []byte {
	if !compress {
		return encodePlainInt(vals)
	}
	plain := encodePlainInt(vals)
	delta := encodeDeltaVarint(vals)
	rle := encodeRLEInt(vals)
	best := plain
	if len(delta) < len(best) {
		best = delta
	}
	if len(rle) < len(best) {
		best = rle
	}
	return best
}

func encodePlainInt(vals []int64) []byte {
	buf := putHeader(PlainInt, len(vals))
	var tmp [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(tmp[:], uint64(v))
		buf = append(buf, tmp[:]...)
	}
	return buf
}

func encodeDeltaVarint(vals []int64) []byte {
	buf := putHeader(DeltaVarint, len(vals))
	var tmp [binary.MaxVarintLen64]byte
	prev := int64(0)
	for _, v := range vals {
		n := binary.PutUvarint(tmp[:], zigzag(v-prev))
		buf = append(buf, tmp[:n]...)
		prev = v
	}
	return buf
}

func encodeRLEInt(vals []int64) []byte {
	buf := putHeader(RLEInt, len(vals))
	var tmp [binary.MaxVarintLen64]byte
	for i := 0; i < len(vals); {
		j := i + 1
		for j < len(vals) && vals[j] == vals[i] {
			j++
		}
		n := binary.PutUvarint(tmp[:], zigzag(vals[i]))
		buf = append(buf, tmp[:n]...)
		n = binary.PutUvarint(tmp[:], uint64(j-i))
		buf = append(buf, tmp[:n]...)
		i = j
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
	buf := putHeader(PlainFloat, len(vals))
	var tmp [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(v))
		buf = append(buf, tmp[:]...)
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
// layer's native bool representation). The compress flag is accepted for
// interface symmetry; bit-packing is always worthwhile and lossless.
func EncodeBools(vals []int64) []byte {
	buf := putHeader(BitBool, len(vals))
	nBytes := (len(vals) + 7) / 8
	bits := make([]byte, nBytes)
	for i, v := range vals {
		if v != 0 {
			bits[i/8] |= 1 << (i % 8)
		}
	}
	return append(buf, bits...)
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

// EncodeStrings encodes vals, choosing dictionary encoding when it is
// smaller than plain (and compress is true).
func EncodeStrings(vals []string, compress bool) []byte {
	plain := encodePlainString(vals)
	if !compress {
		return plain
	}
	if dict := encodeDictString(vals); len(dict) < len(plain) {
		return dict
	}
	return plain
}

func encodePlainString(vals []string) []byte {
	buf := putHeader(PlainString, len(vals))
	var tmp [4]byte
	off := uint32(0)
	for _, s := range vals {
		off += uint32(len(s))
		binary.LittleEndian.PutUint32(tmp[:], off)
		buf = append(buf, tmp[:]...)
	}
	for _, s := range vals {
		buf = append(buf, s...)
	}
	return buf
}

func encodeDictString(vals []string) []byte {
	distinct := make(map[string]int, 64)
	var dict []string
	for _, s := range vals {
		if _, ok := distinct[s]; !ok {
			distinct[s] = len(dict)
			dict = append(dict, s)
		}
	}
	buf := putHeader(DictString, len(vals))
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(dict)))
	buf = append(buf, tmp[:n]...)
	for _, s := range dict {
		n = binary.PutUvarint(tmp[:], uint64(len(s)))
		buf = append(buf, tmp[:n]...)
		buf = append(buf, s...)
	}
	for _, s := range vals {
		n = binary.PutUvarint(tmp[:], uint64(distinct[s]))
		buf = append(buf, tmp[:n]...)
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
// without materializing their strings, and stop at the window's end.
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
		prev := uint32(0)
		if skip > 0 {
			prev = binary.LittleEndian.Uint32(body[4*(skip-1):])
		}
		for i := skip; i < end; i++ {
			off := binary.LittleEndian.Uint32(body[4*i:])
			if off < prev || uint64(off) > uint64(len(data)) {
				return nil, corrupt("bad string offset")
			}
			out = append(out, string(data[prev:off]))
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
		// The window is at least as long as the dictionary: materialize each
		// entry once and share it across all its codes.
		dict := make([]string, dictLen)
		p := 0
		for i := range dict {
			var entry []byte
			if entry, p, err = dictEntry(body, p); err != nil {
				return nil, err
			}
			dict[i] = string(entry)
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
