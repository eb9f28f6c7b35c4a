package compress

// The encoders as they stood before the decide-then-write rewrite, verbatim:
// build every candidate block by append and keep the smallest. They are the
// reference the differential tests, the fuzz targets and the TPC-H block
// sweep hold EncodeInt64s/EncodeStrings/EncodeFloat64s/EncodeBools to, byte
// for byte, and the per-scheme encoders the window tests build blocks with.

import (
	"encoding/binary"
	"math"
)

func putHeader(scheme Scheme, n int) []byte {
	buf := make([]byte, 0, 5+n)
	buf = append(buf, byte(scheme))
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], uint32(n))
	return append(buf, tmp[:]...)
}

// refEncodeInt64s encodes vals, choosing the smallest of plain, delta-varint and
// RLE when compress is true, plain otherwise.
func refEncodeInt64s(vals []int64, compress bool) []byte {
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

// refEncodeFloat64s encodes vals; floats are stored plain (the paper's
// lightweight codecs target keys and categorical data, not measures).
func refEncodeFloat64s(vals []float64) []byte {
	buf := putHeader(PlainFloat, len(vals))
	var tmp [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(v))
		buf = append(buf, tmp[:]...)
	}
	return buf
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

// refEncodeStrings encodes vals, choosing dictionary encoding when it is
// smaller than plain (and compress is true).
func refEncodeStrings(vals []string, compress bool) []byte {
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

// The reference encoders as package compress_test sees them: the TPC-H block
// sweep lives there because internal/tpch imports this package.
var (
	RefEncodeInt64s   = refEncodeInt64s
	RefEncodeFloat64s = refEncodeFloat64s
	RefEncodeBools    = refEncodeBools
	RefEncodeStrings  = refEncodeStrings
)
