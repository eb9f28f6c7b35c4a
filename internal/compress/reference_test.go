package compress

// The encoders as a build-every-candidate-and-keep-the-smallest reference:
// every candidate block is built by append, independently of the sizing pass.
// They are what the differential tests, the fuzz targets and the TPC-H block
// sweep hold EncodeInt64s/EncodeStrings/EncodeFloat64s/EncodeBools to, byte
// for byte, and the per-scheme encoders the window tests build blocks with.
// The builders of the retired schemes (delta-varint, varint-code dictionary)
// are no longer candidates: they build the blocks the upgrade tests feed
// Upgrade.

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
)

func putHeader(scheme Scheme, n int) []byte {
	buf := make([]byte, 0, 5+n)
	buf = append(buf, byte(scheme))
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], uint32(n))
	return append(buf, tmp[:]...)
}

// refEncodeInt64s encodes vals, choosing the smallest of plain, ForInt and
// RLE when compress is true (a later candidate only when strictly smaller),
// plain otherwise.
func refEncodeInt64s(vals []int64, compress bool) []byte {
	best := encodePlainInt(vals)
	if !compress {
		return best
	}
	for _, cand := range [][]byte{encodeForInt(vals), encodeRLEInt(vals)} {
		if len(cand) < len(best) {
			best = cand
		}
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

// encodeForInt builds a ForInt block twice — residuals from the block's
// minimum, and from the line through its first and last value — and keeps
// the line only when its residuals are strictly narrower. The line is tried
// when the last value is less than 2^31 away from the first.
func encodeForInt(vals []int64) []byte {
	best, w := forCandidate(vals, 0)
	if n := len(vals); n > 1 {
		first, last := vals[0], vals[n-1]
		if (last >= first && uint64(last-first) < 1<<31) || (last < first && uint64(first-last) < 1<<31) {
			if slope := ((last - first) << 32) / int64(n-1); slope != 0 {
				if line, lw := forCandidate(vals, slope); lw < w {
					best = line
				}
			}
		}
	}
	return best
}

// forCandidate builds the ForInt block of vals over the line of the given
// 32.32 fixed-point slope and returns it with its residual width.
func forCandidate(vals []int64, slope int64) ([]byte, int) {
	res := make([]int64, len(vals))
	for i, v := range vals {
		res[i] = v - (slope*int64(i))>>32
	}
	base := int64(0)
	for i, r := range res {
		if i == 0 || r < base {
			base = r
		}
	}
	w := 0
	us := make([]uint64, len(res))
	for i, r := range res {
		us[i] = uint64(r - base)
		w = max(w, bits.Len64(us[i]))
	}
	buf := putHeader(ForInt, len(vals))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(base))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(slope))
	buf = append(buf, byte(w))
	return append(buf, bitStream(us, w)...), w
}

// bitStream lays out each value's low w bits one after another, least
// significant bit first, padded to a whole number of 8-byte words — the
// layout of little-endian 64-bit words filled from bit 0 up.
func bitStream(us []uint64, w int) []byte {
	out := make([]byte, 8*((len(us)*w+63)/64))
	for i, u := range us {
		for b := 0; b < w; b++ {
			if u>>b&1 == 1 {
				pos := i*w + b
				out[pos/8] |= 1 << (pos % 8)
			}
		}
	}
	return out
}

// refEncodeFloat64s encodes vals, choosing ScaledFloat at the first digit
// count every value comes back through when it is strictly smaller than plain
// (and compress is true), plain otherwise.
func refEncodeFloat64s(vals []float64, compress bool) []byte {
	best := encodePlainFloat(vals)
	if !compress {
		return best
	}
	for k := range 5 {
		if cand, ok := encodeScaledFloat(vals, k); ok {
			if len(cand) < len(best) {
				best = cand
			}
			break
		}
	}
	return best
}

func encodePlainFloat(vals []float64) []byte {
	buf := putHeader(PlainFloat, len(vals))
	var tmp [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(v))
		buf = append(buf, tmp[:]...)
	}
	return buf
}

// refScaled is the integer n, of magnitude below 2^51, whose
// float64(n)/10^k is v bit for bit, or — for n in [1, 2^48) — one ULP beside
// it, when there is one, and the ULPs d from that quotient to v.
func refScaled(v float64, k int) (n, d int64, ok bool) {
	p := math.Pow10(k)
	x := math.Round(v * p)
	if math.IsNaN(x) || math.Abs(x) >= 1<<51 {
		return 0, 0, false
	}
	n = int64(x)
	q := float64(n) / p
	switch {
	case math.Float64bits(q) == math.Float64bits(v):
		return n, 0, true
	case n >= 1 && n < 1<<48 && v > 0 && math.Nextafter(q, math.Inf(1)) == v:
		return n, 1, true
	case n >= 1 && n < 1<<48 && v > 0 && math.Nextafter(q, 0) == v:
		return n, -1, true
	}
	return 0, 0, false
}

// encodeScaledFloat builds the ScaledFloat block of vals at digit count k —
// a base, k, a width and the residuals from the base, or, when some value
// needs a correction, the lane flag, a width 2 wider and every value's rank
// 4·residual + correction + 2 — when there are values and every one comes
// back through it: its integers within ±2^51, and within [1, 2^48) with a
// lane.
func encodeScaledFloat(vals []float64, k int) ([]byte, bool) {
	if len(vals) == 0 {
		return nil, false
	}
	ns, ds := make([]int64, len(vals)), make([]int64, len(vals))
	lane := false
	for i, v := range vals {
		n, d, ok := refScaled(v, k)
		if !ok {
			return nil, false
		}
		ns[i], ds[i] = n, d
		lane = lane || d != 0
	}
	base, top := slices.Min(ns), slices.Max(ns)
	us := make([]uint64, len(ns))
	w := 0
	for i, n := range ns {
		us[i] = uint64(n - base)
		w = max(w, bits.Len64(us[i]))
	}
	if top >= 1<<51 || base+(1<<w-1) >= 1<<51 || (lane && (base < 1 || base+(1<<w-1) >= 1<<48)) {
		return nil, false
	}
	digits := byte(k)
	if lane {
		digits |= 0x80
		for i := range us {
			us[i] = 4*us[i] + uint64(ds[i]+2)
		}
		w += 2
	}
	buf := putHeader(ScaledFloat, len(vals))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(base))
	buf = append(buf, digits, byte(w))
	return append(buf, bitStream(us, w)...), true
}

// refEncodeBools bit-packs booleans represented as 0/1 int64s (the vector
// layer's native bool representation). The compress flag is accepted for
// interface symmetry; bit-packing is always worthwhile and lossless.
func refEncodeBools(vals []int64) []byte {
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

// refEncodeStrings encodes vals, choosing the smallest of plain, framed
// offsets and the packed dictionary when compress is true (a later candidate
// only when strictly smaller), plain otherwise.
func refEncodeStrings(vals []string, compress bool) []byte {
	best := encodePlainString(vals)
	if !compress {
		return best
	}
	for _, cand := range [][]byte{encodeFramedString(vals), encodePackedDict(vals)} {
		if len(cand) < len(best) {
			best = cand
		}
	}
	return best
}

// encodeFramedString builds a FramedString block: the end offsets PlainString
// stores, as the body encodeForInt builds for them, then the bytes.
func encodeFramedString(vals []string) []byte {
	if len(vals) == 0 {
		return encodePlainString(vals) // no frame to fit: never smaller
	}
	ends := make([]int64, len(vals))
	off := int64(0)
	for i, s := range vals {
		off += int64(len(s))
		ends[i] = off
	}
	buf := putHeader(FramedString, len(vals))
	buf = append(buf, encodeForInt(ends)[headerSize:]...)
	for _, s := range vals {
		buf = append(buf, s...)
	}
	return buf
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

// encodePackedDict builds a PackedDict block: the distinct values in order
// of first appearance as a count, end offsets and bytes, then every value's
// code in bits.Len(count-1) bits.
func encodePackedDict(vals []string) []byte {
	distinct := make(map[string]int, 64)
	var dict []string
	codes := make([]uint64, len(vals))
	for i, s := range vals {
		c, ok := distinct[s]
		if !ok {
			c = len(dict)
			distinct[s] = c
			dict = append(dict, s)
		}
		codes[i] = uint64(c)
	}
	buf := putHeader(PackedDict, len(vals))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(dict)))
	off := uint32(0)
	for _, s := range dict {
		off += uint32(len(s))
		buf = binary.LittleEndian.AppendUint32(buf, off)
	}
	for _, s := range dict {
		buf = append(buf, s...)
	}
	w := 0
	if len(dict) > 1 {
		w = bits.Len(uint(len(dict) - 1))
	}
	return append(buf, bitStream(codes, w)...)
}

// The reference encoders as package compress_test sees them: the TPC-H block
// sweep lives there because internal/tpch imports this package.
var (
	RefEncodeInt64s   = refEncodeInt64s
	RefEncodeFloat64s = refEncodeFloat64s
	RefEncodeBools    = refEncodeBools
	RefEncodeStrings  = refEncodeStrings
)

// ScaledLane reports whether buf is a ScaledFloat block with a lane.
func ScaledLane(buf []byte) bool {
	return BlockScheme(buf) == ScaledFloat && len(buf) > headerSize+8 && buf[headerSize+8]&scaledLane != 0
}
