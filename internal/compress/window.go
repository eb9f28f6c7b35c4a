package compress

// Row extents: the bytes of a block that a decode of some of its rows reads.
// A reader that fetches a block by pages — a point read of a cold block —
// asks for them, reads the pages they lie in into a block-length buffer and
// decodes there; the kernels read no other byte, so the rest of the buffer
// may hold anything.

import "encoding/binary"

// Extent is the byte range [Lo, Hi) of an encoded block.
type Extent struct{ Lo, Hi int }

// extentHeader is how many of a block's leading bytes RowExtent's first
// stage reads: the scheme header and a ForInt frame's.
const extentHeader = headerSize + forHeaderSize

// RowExtent appends to dst the byte ranges of the encoded block enc that
// Decode*Spans over spans reads, each inside [0, len(enc)). A caller holding
// only part of the block calls it in stages from stage 0, which reads only
// the block's first 22 bytes; each later stage reads only those and the
// ranges the stages before it named, and more reports that those must be read
// before the next stage names the rest. A decode of spans over a buffer that
// holds every range named then yields what it yields over the whole block:
// the same values, or ErrCorrupt.
//
// Bit-packed schemes (ForInt, ScaledFloat) name the header and the words
// their rows' bits lie in; FramedString and PlainString the offsets of the
// rows, then the bytes those offsets delimit; PackedDict its dictionary, then
// the codes; the other plain schemes and BitBool the rows' bytes. RLEInt, a
// retired scheme, and any header or spans a decode would reject name the
// whole block.
func RowExtent(enc []byte, spans []Span, stage int, dst []Extent) (ext []Extent, more bool) {
	n0 := len(dst)
	whole := func() []Extent { return appendExtent(dst[:n0], 0, len(enc)) }
	scheme, count, body, err := readHeader(enc)
	if err != nil || spansWindow(count, spans) != nil {
		return whole(), false
	}
	r0, r1 := 0, 0
	if len(spans) > 0 {
		last := spans[len(spans)-1]
		r0, r1 = spans[0].Row, last.Row+last.N
	}
	if stage == 0 {
		dst = appendExtent(dst, 0, min(extentHeader, len(enc)))
	}
	switch scheme {
	case PlainInt, PlainFloat:
		if len(body)/8 < count {
			return whole(), false
		}
		return appendExtent(dst, headerSize+8*r0, headerSize+8*r1), false
	case BitBool:
		if len(body) < (count+7)/8 || r0 == r1 {
			return dst, false
		}
		return appendExtent(dst, headerSize+r0/8, headerSize+(r1-1)/8+1), false
	case ForInt:
		f, err := parseFor(body, count)
		if err != nil {
			return whole(), false
		}
		return packedExtent(dst, extentHeader, len(f.packed), f.w, r0, r1), false
	case ScaledFloat:
		s, err := parseScaled(body, count)
		if err != nil {
			return whole(), false
		}
		return packedExtent(dst, headerSize+scaledHeaderSize, len(s.packed), uint(s.w), r0, r1), false
	case PlainString, FramedString:
		s, err := parseStrings(scheme, body, count)
		if err != nil {
			return whole(), false
		}
		if r0 == r1 {
			return dst, false // a decode reads no offset
		}
		if stage == 0 { // the offsets: start(i) is value i-1's end
			if s.framed {
				return packedExtent(dst, extentHeader, len(s.frame.packed), s.frame.w, max(r0-1, 0), r1), true
			}
			return appendExtent(dst, headerSize+4*max(r0-1, 0), headerSize+4*r1), true
		}
		if first, end := s.start(r0), s.start(r1); first >= 0 && first <= end && end <= int64(len(s.data)) {
			at := len(enc) - len(s.data)
			return appendExtent(dst, at+int(first), at+int(end)), false
		}
		return dst, false // the decode fails on the offsets alone
	case PackedDict:
		if stage == 0 { // the dictionary's offsets, whose last is its size
			if len(body) < 4 || uint64(binary.LittleEndian.Uint32(body)) > uint64(len(body)-4)/4 {
				return whole(), false
			}
			nd := int(binary.LittleEndian.Uint32(body))
			return appendExtent(dst, headerSize+4, headerSize+4+4*nd), true
		}
		d, err := parseDict(body, count)
		if err != nil {
			return whole(), false
		}
		codes := len(enc) - len(d.codes)
		dst = appendExtent(dst, codes-len(d.data), codes)
		return packedExtent(dst, codes, len(d.codes), d.w, r0, r1), false
	}
	return whole(), false
}

// appendExtent appends [lo, hi) unless it is empty.
func appendExtent(dst []Extent, lo, hi int) []Extent {
	if lo >= hi {
		return dst
	}
	return append(dst, Extent{lo, hi})
}

// packedExtent appends the bytes that reading values [r0, r1) of n bytes of
// w-bit values packed from offset at loads: from the 8-byte word holding r0's
// first bit (bitsAt) to 8 bytes past the byte holding r1's last (the
// unaligned loads of unpack and the ScaledFloat decoder).
func packedExtent(dst []Extent, at, n int, w uint, r0, r1 int) []Extent {
	if w == 0 || r0 >= r1 {
		return dst
	}
	lo := 8 * (uint64(r0) * uint64(w) >> 6)
	hi := min((uint64(r1)*uint64(w)+7)>>3+8, uint64(n))
	return appendExtent(dst, at+int(lo), at+int(hi))
}
