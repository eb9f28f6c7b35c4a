package compress

import "encoding/binary"

// Upgrade returns buf as a block in a written scheme: buf itself when it is
// one, and a block of a retired scheme — DeltaVarint, or the varint-code
// DictString — decoded whole and encoded again, compressed (EncodeInt64s,
// EncodeStrings). A store calls it where a block's bytes enter the process, so
// segments written before ForInt and PackedDict keep reading while every
// kernel knows one format. A written block is returned unchecked, since the
// kernels check what they read; a retired one is checked whole, and no count
// sizes anything before the bytes are known to hold that many values. Any
// other scheme is ErrCorrupt.
func Upgrade(buf []byte) ([]byte, error) {
	scheme, count, body, err := readHeader(buf)
	if err != nil {
		return nil, err
	}
	switch scheme {
	case PlainInt, RLEInt, PlainFloat, BitBool, PlainString, ForInt, PackedDict, ScaledFloat, FramedString:
		return buf, nil
	case DeltaVarint:
		vals, err := decodeDeltas(body, count)
		if err != nil {
			return nil, err
		}
		return EncodeInt64s(vals, true), nil
	case DictString:
		vals, err := decodeVarintDict(body, count)
		if err != nil {
			return nil, err
		}
		return EncodeStrings(vals, true), nil
	}
	return nil, corrupt("unknown scheme %d", scheme)
}

// uvarintAt reads the varint at body[p:], failing when it is malformed or
// runs past the end.
func uvarintAt(body []byte, p int) (u uint64, next int, err error) {
	u, sz := binary.Uvarint(body[p:])
	if sz <= 0 {
		return 0, 0, corrupt("bad varint at byte %d", p)
	}
	return u, p + sz, nil
}

// decodeDeltas decodes a DeltaVarint body of count values: each the value
// before it (0 before the first) plus a zigzag varint.
func decodeDeltas(body []byte, count int) ([]int64, error) {
	if count > len(body) { // every varint takes a byte at least
		return nil, corrupt("%d deltas in %d bytes", count, len(body))
	}
	vals := make([]int64, count)
	prev, p := int64(0), 0
	for i := range vals {
		u, next, err := uvarintAt(body, p)
		if err != nil {
			return nil, err
		}
		prev += unzigzag(u)
		vals[i], p = prev, next
	}
	return vals, nil
}

// decodeVarintDict decodes a DictString body of count values: a varint entry
// count, each entry a varint length and its bytes, then one varint code per
// value.
func decodeVarintDict(body []byte, count int) ([]string, error) {
	ndict, p, err := uvarintAt(body, 0)
	if err != nil || ndict > uint64(len(body)-p) { // every entry takes a byte at least
		return nil, corrupt("bad dict length")
	}
	dict := make([]string, ndict)
	for i := range dict {
		var l uint64
		if l, p, err = uvarintAt(body, p); err != nil || l > uint64(len(body)-p) {
			return nil, corrupt("bad dict entry")
		}
		dict[i], p = string(body[p:p+int(l)]), p+int(l)
	}
	if count > len(body)-p { // every code takes a byte at least
		return nil, corrupt("%d codes in %d bytes", count, len(body)-p)
	}
	vals := make([]string, count)
	for i := range vals {
		var c uint64
		if c, p, err = uvarintAt(body, p); err != nil || c >= ndict {
			return nil, corrupt("bad dict code")
		}
		vals[i] = dict[c]
	}
	return vals, nil
}
