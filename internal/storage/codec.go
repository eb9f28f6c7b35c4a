package storage

// Schema encoding for segment footers. Values and rows use the types codec,
// which the WAL's records use too.

import (
	"encoding/binary"
	"fmt"

	"pdtstore/internal/types"
)

func appendSchema(buf []byte, s *types.Schema) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.Cols)))
	for _, c := range s.Cols {
		buf = types.AppendString(buf, c.Name)
		buf = append(buf, byte(c.Kind))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.SortKey)))
	for _, k := range s.SortKey {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(k))
	}
	return buf
}

// readSchema reads what appendSchema writes. A column takes at least 5
// bytes (an empty name and a kind), a sort-key entry 4.
func readSchema(r *types.Reader) (*types.Schema, error) {
	cols := make([]types.Column, r.Count(5))
	for i := range cols {
		cols[i].Name = r.Str()
		cols[i].Kind = types.Kind(r.U8())
	}
	sortKey := make([]int, r.Count(4))
	for i := range sortKey {
		sortKey[i] = int(r.U32())
	}
	if r.Err != nil {
		return nil, r.Err
	}
	s, err := types.NewSchema(cols, sortKey)
	if err != nil {
		return nil, fmt.Errorf("storage: footer schema: %w", err)
	}
	return s, nil
}
