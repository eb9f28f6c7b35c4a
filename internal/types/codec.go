package types

// Compact little-endian codec for values and rows: the one value encoding of
// WAL records and segment footers. A string is a u32 length and its bytes; a
// value is its kind byte followed by its string, or by 8 bytes (the float's
// bits, or the integer) for every other kind; a row is a u32 count and its
// values. Each format frames its own records and sections around these.

import (
	"encoding/binary"
	"io"
	"math"
)

// AppendString appends s as a u32 length and its bytes.
func AppendString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

// AppendValue appends v as its kind byte and payload.
func AppendValue(buf []byte, v Value) []byte {
	buf = append(buf, byte(v.K))
	switch v.K {
	case Float64:
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.F))
	case String:
		return AppendString(buf, v.S)
	default:
		return binary.LittleEndian.AppendUint64(buf, uint64(v.I))
	}
}

// AppendRow appends r as a u32 count and its values.
func AppendRow(buf []byte, r Row) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r)))
	for _, v := range r {
		buf = AppendValue(buf, v)
	}
	return buf
}

// Reader decodes fields off the front of Buf. The first read that runs past
// its end sets Err to io.ErrUnexpectedEOF, and every later read yields zero
// values, so a decoder checks Err once after a run of reads.
type Reader struct {
	Buf []byte // the bytes not read yet
	Err error  // the first short read, sticky
}

// Take returns the next n bytes.
func (r *Reader) Take(n int) []byte {
	if r.Err != nil || len(r.Buf) < n {
		r.Err = io.ErrUnexpectedEOF
		return make([]byte, n)
	}
	out := r.Buf[:n]
	r.Buf = r.Buf[n:]
	return out
}

// U8 reads one byte.
func (r *Reader) U8() byte { return r.Take(1)[0] }

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 { return binary.LittleEndian.Uint16(r.Take(2)) }

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 { return binary.LittleEndian.Uint32(r.Take(4)) }

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 { return binary.LittleEndian.Uint64(r.Take(8)) }

// Count reads a u32 element count and bounds it by the unread bytes before
// anything is allocated from it: each element takes at least size bytes, and
// a count the bytes cannot hold sets Err and reads as 0.
func (r *Reader) Count(size int) int {
	n := int(r.U32())
	if r.Err != nil || n > len(r.Buf)/size {
		r.Err = io.ErrUnexpectedEOF
		return 0
	}
	return n
}

// Str reads what AppendString writes.
func (r *Reader) Str() string { return string(r.Take(r.Count(1))) }

// Value reads what AppendValue writes.
func (r *Reader) Value() Value {
	k := Kind(r.U8())
	switch k {
	case Float64:
		return Value{K: k, F: math.Float64frombits(r.U64())}
	case String:
		return Value{K: k, S: r.Str()}
	default:
		return Value{K: k, I: int64(r.U64())}
	}
}

// Row reads what AppendRow writes. The smallest value, an empty string,
// takes 5 bytes.
func (r *Reader) Row() Row {
	n := r.Count(5)
	if r.Err != nil {
		return nil
	}
	row := make(Row, n)
	for i := range row {
		row[i] = r.Value()
	}
	return row
}
