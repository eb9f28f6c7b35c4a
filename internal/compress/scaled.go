package compress

// ScaledFloat: decimal floats as scaled integers, the decimal case of ALP
// (Afroozeh, Kuffó, Boncz, SIGMOD 2023) without its exception list. A block
// whose every value v is float64(n)/10^k for one digit count k ≤ 4 and
// integers n of magnitude below 2^51 stores those integers as a frame of
// reference — a base and residuals bit-packed at one width — and decodes
// value i as float64(base+r_i) / 10^k: one correctly rounded IEEE division
// of an exact integer by an exact power of ten, which rounds the same on
// every platform and which no fused multiply-add can contract. A block with
// any value that does not come back bit for bit through that function (−0,
// NaN, ±Inf, a value with more digits, one too large) is written plain.

import (
	"encoding/binary"
	"math"

	"pdtstore/internal/vector"
)

// scaledHeaderSize is a ScaledFloat body's prefix: the base as a
// little-endian int64, then the digit count k and the residual width in bits.
const scaledHeaderSize = 10

// scaledLimit bounds the integers of a ScaledFloat block: each lies strictly
// between -scaledLimit and scaledLimit. Every integer there is a float64, and
// for a value v that is float64(n)/10^k with n there, v·10^k lies within half
// of n, so rounding it finds n whenever there is one.
const scaledLimit = 1 << 51

// pow10 is 10^k for every digit count a ScaledFloat block can carry.
var pow10 = [...]float64{1, 10, 100, 1000, 10000}

// scaledBlock is a parsed ScaledFloat block: value i is value(r_i).
type scaledBlock struct {
	base   int64
	p      float64 // 10^k
	w      uint
	packed []byte
}

// value is the decoder's one function: the float whose residual is r.
func (s *scaledBlock) value(r uint64) float64 {
	return float64(s.base+int64(r)) / s.p
}

// parseScaled reads a ScaledFloat body holding count values. Its integers
// base .. base+2^w-1 must lie within ±scaledLimit, so every residual decodes
// exactly and in order: value is monotone in r.
func parseScaled(body []byte, count int) (scaledBlock, error) {
	if len(body) < scaledHeaderSize {
		return scaledBlock{}, corrupt("ScaledFloat header truncated")
	}
	s := scaledBlock{
		base:   int64(binary.LittleEndian.Uint64(body)),
		w:      uint(body[9]),
		packed: body[scaledHeaderSize:],
	}
	if k := int(body[8]); k >= len(pow10) {
		return scaledBlock{}, corrupt("ScaledFloat digit count %d", k)
	} else {
		s.p = pow10[k]
	}
	if s.w > 52 || s.base <= -scaledLimit || s.base >= scaledLimit-(1<<s.w-1) {
		return scaledBlock{}, corrupt("ScaledFloat integers out of range (base %d, width %d)", s.base, s.w)
	}
	if packedLen(count, s.w) > uint64(len(s.packed)) {
		return scaledBlock{}, corrupt("ScaledFloat residuals truncated (width %d)", s.w)
	}
	return s, nil
}

// EncodeFloat64s encodes vals, as ScaledFloat when compress is true, every
// value comes back bit for bit through its decoder, and the block is strictly
// smaller than plain; plain otherwise. One pass finds the digit count, a
// second writes the residuals.
func EncodeFloat64s(vals []float64, compress bool) []byte {
	size := headerSize + 8*len(vals)
	if compress && len(vals) > 0 {
		if k, base, w, ok := fitScaled(vals); ok {
			if s := headerSize + scaledHeaderSize + int(packedLen(len(vals), w)); s < size {
				return writeScaled(vals, k, base, w, s)
			}
		}
	}
	buf := newBlock(PlainFloat, len(vals), size)
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[headerSize+8*i:], math.Float64bits(v))
	}
	return buf
}

// roundMagic is 1.5·2^52: for |x| < 2^51, x + roundMagic - roundMagic is x
// rounded to the nearest integer, ties to even, as a float64. The encoder
// rounds float64(v·10^k), a conversion that keeps the product from being
// fused with the addition.
const roundMagic = 0x1.8p52

// fitScaled finds the smallest digit count k at which every value v of a
// non-empty block comes back bit for bit through the decoder's function from
// the integer n nearest v·10^k, in one pass that starts over at k+1 on a miss,
// and returns the block's frame: k, the base and the residual width. ok is
// false when no count up to 4 fits, or when the frame's integers would leave
// ±scaledLimit. Rounding past 2^51, a NaN and an infinity yield an integer out
// of range or one whose decoded value, finite, cannot have v's bits.
func fitScaled(vals []float64) (k int, base int64, w uint, ok bool) {
	for ; k < len(pow10); k++ {
		p := pow10[k]
		lo, hi := int64(scaledLimit), int64(-scaledLimit)
		i := 0
		for ; i < len(vals); i++ {
			v := vals[i]
			n := int64(float64(v*p) + roundMagic - roundMagic)
			if uint64(n+scaledLimit-1) > 2*scaledLimit-2 || math.Float64bits(float64(n)/p) != math.Float64bits(v) {
				break
			}
			lo, hi = min(lo, n), max(hi, n)
		}
		if i == len(vals) {
			w = widthOf(lo, hi)
			return k, lo, w, lo+(1<<w-1) < scaledLimit
		}
	}
	return 0, 0, 0, false
}

// writeScaled writes the ScaledFloat block of vals at the frame fitScaled
// chose.
func writeScaled(vals []float64, k int, base int64, w uint, size int) []byte {
	buf := newBlock(ScaledFloat, len(vals), size)
	binary.LittleEndian.PutUint64(buf[headerSize:], uint64(base))
	buf[headerSize+8], buf[headerSize+9] = byte(k), byte(w)
	if w > 0 {
		pk, p := packer{buf: buf, p: headerSize + scaledHeaderSize}, pow10[k]
		for _, v := range vals {
			pk.put(uint64(int64(float64(v*p)+roundMagic-roundMagic)-base), w)
		}
		pk.flush()
	}
	return buf
}

// tableWidth is the widest residual a read maps through a table of the
// decoder's values (table), which then has 64 entries at most.
const tableWidth = 6

// table evaluates the decoder's function at every residual of the block's
// width into tab, when the width is at most tableWidth and a read of n
// values would evaluate it at least that often.
func (s *scaledBlock) table(tab *[1 << tableWidth]float64, n int) bool {
	if s.w > tableWidth || n < 1<<s.w {
		return false
	}
	for r := range tab[:1<<s.w] {
		tab[r] = s.value(uint64(r))
	}
	return true
}

// decodeSpans stores the values of the rows of every span in dst[At:At+N]:
// the residuals are unpacked a chunk at a time and each is mapped to its
// value, through the table when there is one.
func (s *scaledBlock) decodeSpans(spans []Span, dst []float64) {
	n := 0
	for _, sp := range spans {
		n += sp.N
	}
	var tab [1 << tableWidth]float64
	tabled := s.table(&tab, n)
	var r [codeChunk]uint64
	for _, sp := range spans {
		for i := 0; i < sp.N; i += codeChunk {
			chunk := r[:min(codeChunk, sp.N-i)]
			unpack(chunk, s.packed, s.w, sp.Row+i)
			s.scale(chunk, dst[sp.At+i:sp.At+i+len(chunk)], &tab, tabled)
		}
	}
}

// scale stores the value of residual rs[j] in out[j], as tab[rs[j]] when
// tabled.
func (s *scaledBlock) scale(rs []uint64, out []float64, tab *[1 << tableWidth]float64, tabled bool) {
	out = out[:len(rs)]
	if tabled {
		for j, u := range rs {
			out[j] = tab[u&(1<<tableWidth-1)]
		}
		return
	}
	for j, u := range rs {
		out[j] = s.value(u)
	}
}

// gather stores value base+rows[k] in dst[pos[k]] for every k, each
// residual read where it lies (bitsAt) and mapped as decodeSpans maps it.
func (s *scaledBlock) gather(base int, rows, pos []uint32, dst []float64) {
	var tab [1 << tableWidth]float64
	if s.table(&tab, len(rows)) {
		for k, r := range rows {
			dst[pos[k]] = tab[bitsAt(s.packed, s.w, base+int(r))&(1<<tableWidth-1)]
		}
		return
	}
	for k, r := range rows {
		dst[pos[k]] = s.value(bitsAt(s.packed, s.w, base+int(r)))
	}
}

// first is the smallest residual r in [0, 2^w] — 2^w when there is none —
// whose value is at least bound, which is not NaN. value is monotone in r, so
// the residuals passing form a suffix; the search starts from the integer
// bound·10^k names and steps until the decoder's own values straddle the
// bound, which takes a step or two.
func (s *scaledBlock) first(bound float64) int64 {
	end := int64(1) << s.w
	// ±Inf clamps to the ends here.
	r := int64(min(max(math.Ceil(bound*s.p)-float64(s.base), 0), float64(end)))
	for r > 0 && s.value(uint64(r-1)) >= bound {
		r--
	}
	for r < end && s.value(uint64(r)) < bound {
		r++
	}
	return r
}

// selectPred appends the offsets from skip of the values [skip, end) that p,
// a PredFloat64Range or PredFloat64Lt, keeps. The bounds map exactly to a
// range of residuals through first, which are compared in place
// (selectResiduals) without converting a value; a range that holds every
// residual of the width, or none, decides the window whole.
func (s *scaledBlock) selectPred(skip, end int, p vector.Pred, out []uint32) []uint32 {
	var a, e int64 // residuals [a, e) pass
	switch {
	case p.Op == vector.PredFloat64Lt && !math.IsNaN(p.FHi):
		e = s.first(p.FHi)
	case p.Op == vector.PredFloat64Range && !math.IsNaN(p.FLo) && !math.IsNaN(p.FHi):
		a, e = s.first(p.FLo), s.first(p.FHi)
		if e < 1<<s.w && s.value(uint64(e)) == p.FHi { // distinct residuals decode to distinct values
			e++
		}
	}
	switch {
	case a >= e:
		return out
	case a == 0 && e == 1<<s.w:
		return appendAll(out, end-skip)
	}
	return selectResiduals(s.packed, s.w, skip, end-skip, uint64(a), uint64(e-a-1), out)
}
