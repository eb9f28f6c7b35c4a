package storage

// Compact little-endian codec for the metadata that rides in segment footers:
// values, rows and schemas. The WAL has its own record codec; this one is
// deliberately independent so the two formats can evolve separately (a WAL
// format bump must not invalidate every segment on disk, and vice versa).

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"pdtstore/internal/types"
)

func appendString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

func appendValue(buf []byte, v types.Value) []byte {
	buf = append(buf, byte(v.K))
	switch v.K {
	case types.Float64:
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.F))
	case types.String:
		return appendString(buf, v.S)
	default:
		return binary.LittleEndian.AppendUint64(buf, uint64(v.I))
	}
}

func appendRow(buf []byte, r types.Row) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r)))
	for _, v := range r {
		buf = appendValue(buf, v)
	}
	return buf
}

func appendSchema(buf []byte, s *types.Schema) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.Cols)))
	for _, c := range s.Cols {
		buf = appendString(buf, c.Name)
		buf = append(buf, byte(c.Kind))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.SortKey)))
	for _, k := range s.SortKey {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(k))
	}
	return buf
}

type reader struct {
	buf []byte
	err error
}

func (r *reader) take(n int) []byte {
	if r.err != nil || len(r.buf) < n {
		r.err = io.ErrUnexpectedEOF
		return make([]byte, n)
	}
	out := r.buf[:n]
	r.buf = r.buf[n:]
	return out
}

func (r *reader) u64() uint64 { return binary.LittleEndian.Uint64(r.take(8)) }
func (r *reader) u32() uint32 { return binary.LittleEndian.Uint32(r.take(4)) }
func (r *reader) u8() byte    { return r.take(1)[0] }

func (r *reader) str() string {
	n := int(r.u32())
	if r.err != nil || len(r.buf) < n {
		r.err = io.ErrUnexpectedEOF
		return ""
	}
	return string(r.take(n))
}

func (r *reader) value() types.Value {
	k := types.Kind(r.u8())
	switch k {
	case types.Float64:
		return types.Value{K: k, F: math.Float64frombits(r.u64())}
	case types.String:
		return types.Value{K: k, S: r.str()}
	default:
		return types.Value{K: k, I: int64(r.u64())}
	}
}

func (r *reader) row() types.Row {
	n := int(r.u32())
	if r.err != nil || n > len(r.buf)/5 {
		r.err = io.ErrUnexpectedEOF
		return nil
	}
	row := make(types.Row, n)
	for i := range row {
		row[i] = r.value()
	}
	return row
}

func (r *reader) schema() (*types.Schema, error) {
	ncols := int(r.u32())
	if r.err != nil || ncols > len(r.buf)/5 {
		return nil, io.ErrUnexpectedEOF
	}
	cols := make([]types.Column, ncols)
	for i := range cols {
		cols[i].Name = r.str()
		cols[i].Kind = types.Kind(r.u8())
	}
	nsort := int(r.u32())
	if r.err != nil || nsort > len(r.buf)/4 {
		return nil, io.ErrUnexpectedEOF
	}
	sortKey := make([]int, nsort)
	for i := range sortKey {
		sortKey[i] = int(r.u32())
	}
	if r.err != nil {
		return nil, r.err
	}
	s, err := types.NewSchema(cols, sortKey)
	if err != nil {
		return nil, fmt.Errorf("storage: footer schema: %w", err)
	}
	return s, nil
}
