package compress

// ScaledFloat: decimal floats as scaled integers, the decimal case of ALP
// (Afroozeh, Kuffó, Boncz, SIGMOD 2023) without its exception list. A block
// whose every value v is float64(n)/10^k for one digit count k ≤ 4 and
// integers n of magnitude below 2^51 stores those integers as a frame of
// reference — a base and residuals bit-packed at one width — and decodes
// value i as float64(base+r_i) / 10^k: one correctly rounded IEEE division
// of an exact integer by an exact power of ten, which rounds the same on
// every platform and which no fused multiply-add can contract.
//
// A float computed from decimals — TPC-H's l_extendedprice is a product — is
// often not the nearest double of its decimal but one ULP beside it. Such a
// block carries a lane: a 2-bit signed correction d_i per value, and value i
// is Float64frombits(bits(float64(base+r_i)/10^k) + d_i). The lane is the
// low two bits of each packed value, which is then the value's rank
// 4·r_i + d_i + 2: one unpack reads residual and correction together, and
// ranks order as the values do, so a float filter compares them as it
// compares residuals. ALP would store those values as exceptions, a position
// and a raw double each; the lane costs 2 bits a value and is exact by
// construction. A block with any value that comes back through neither
// function (−0, NaN, ±Inf, a value with more digits, one too large, a value
// off by one ULP that is not positive) is written plain.

import (
	"encoding/binary"
	"math"

	"pdtstore/internal/vector"
)

// scaledHeaderSize is a ScaledFloat body's prefix: the base as a
// little-endian int64, then the digit count k and the width in bits of the
// packed values.
const scaledHeaderSize = 10

// scaledLane is the digit-count byte's flag for a lane: each packed value is
// then a rank 4·r + d + 2 for a correction d in [-2, 1] (the encoder writes
// -1, 0 and 1), at a width of at least 2.
const scaledLane = 0x80

// laneLimit bounds the integers of a block with a lane: each lies in
// [1, laneLimit). Its values are then positive, so their bit patterns order
// as they do, and below 2^48/10^k, so their ULP is below a sixteenth of
// 10^-k, the distance between neighbouring integers' values: a correction
// never carries a value past a neighbour's, and values order by rank.
const laneLimit = 1 << 48

// scaledLimit bounds the integers of a ScaledFloat block: each lies strictly
// between -scaledLimit and scaledLimit. Every integer there is a float64, and
// for a value v that is float64(n)/10^k with n there, v·10^k lies within half
// of n, so rounding it finds n whenever there is one.
const scaledLimit = 1 << 51

// pow10 is 10^k for every digit count a ScaledFloat block can carry.
var pow10 = [...]float64{1, 10, 100, 1000, 10000}

// scaledBlock is a parsed ScaledFloat block: value i is at(t_i), t_i its
// packed value — its residual, or its rank when the block has a lane. The
// width is a byte, as in the header, so the lane flag shares its word and the
// block every float kernel gets from parseScaled stays 48 bytes.
type scaledBlock struct {
	base   int64
	p      float64 // 10^k
	w      uint8   // the packed values' width
	lane   bool
	packed []byte
}

// corrected is v moved by d ULPs, d in two's complement.
func corrected(v float64, d uint64) float64 {
	return math.Float64frombits(math.Float64bits(v) + d)
}

// scaler is what the decoder's one function, at, reads of a block, held by
// value so that a loop keeps it in registers: calling at through the block
// reloads its fields for every value, which measured 10–15 % slower.
type scaler struct {
	base int64
	p    float64
	lane bool
}

// at is the value of packed value t: float64(base+t) / 10^k, or with a lane
// that of residual t>>2 corrected by t&3 - 2 ULPs.
func (c scaler) at(t uint64) float64 {
	if !c.lane {
		return float64(c.base+int64(t)) / c.p
	}
	return corrected(float64(c.base+int64(t>>2))/c.p, t&3-2)
}

// at is the value of packed value t (scaler.at).
func (s *scaledBlock) at(t uint64) float64 {
	return scaler{s.base, s.p, s.lane}.at(t)
}

// parseScaled reads a ScaledFloat body holding count values. Its integers
// base .. base+2^iw-1, iw the residuals' width (w, or w-2 with a lane), must
// lie within ±scaledLimit, so every residual decodes exactly and in order:
// value is monotone in r. With a lane they must lie in [1, laneLimit), so at
// is monotone in the rank too.
func parseScaled(body []byte, count int) (scaledBlock, error) {
	if len(body) < scaledHeaderSize {
		return scaledBlock{}, corrupt("ScaledFloat header truncated")
	}
	s := scaledBlock{
		base:   int64(binary.LittleEndian.Uint64(body)),
		w:      body[9],
		lane:   body[8]&scaledLane != 0,
		packed: body[scaledHeaderSize:],
	}
	if k := int(body[8] &^ scaledLane); k >= len(pow10) {
		return scaledBlock{}, corrupt("ScaledFloat digit count %d", k)
	} else {
		s.p = pow10[k]
	}
	if s.w > 52 || (s.lane && s.w < 2) {
		return scaledBlock{}, corrupt("ScaledFloat width %d (lane %v)", s.w, s.lane)
	}
	if top := int64(1)<<s.w - 1; !s.lane && (s.base <= -scaledLimit || s.base >= scaledLimit-top) {
		return scaledBlock{}, corrupt("ScaledFloat integers out of range (base %d, width %d)", s.base, s.w)
	} else if s.lane && (s.base < 1 || s.base >= laneLimit-top>>2) {
		return scaledBlock{}, corrupt("ScaledFloat lane over integers out of range (base %d, width %d)", s.base, s.w)
	}
	if packedLen(count, uint(s.w)) > uint64(len(s.packed)) {
		return scaledBlock{}, corrupt("ScaledFloat residuals truncated (width %d)", s.w)
	}
	return s, nil
}

// EncodeFloat64s encodes vals, as ScaledFloat when compress is true, every
// value comes back bit for bit through its decoder — with a lane when some
// value needs a correction — and the block is strictly smaller than plain;
// plain otherwise. One pass finds the digit count, a second writes the
// residuals, or the ranks.
func EncodeFloat64s(vals []float64, compress bool) []byte {
	size := headerSize + 8*len(vals)
	if compress && len(vals) > 0 {
		if k, base, w, lane, ok := fitScaled(vals); ok {
			if lane {
				w += 2
			}
			if s := headerSize + scaledHeaderSize + int(packedLen(len(vals), w)); s < size {
				return writeScaled(vals, k, base, w, lane, s)
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
// non-empty block comes back through the decoder from the integer n nearest
// v·10^k — bit for bit, or, when n lies in [1, laneLimit), one ULP beside it —
// in one pass that starts over at k+1 on a miss, and returns the block's
// frame: k, the base, the residual width and whether it needs a lane. ok is
// false when no count up to 4 fits, or when the frame's integers would leave
// ±scaledLimit, or [1, laneLimit) with a lane. Rounding past 2^51, a NaN and
// an infinity yield an integer out of range or one whose decoded value,
// finite, is not within a ULP of v.
func fitScaled(vals []float64) (k int, base int64, w uint, lane, ok bool) {
	for ; k < len(pow10); k++ {
		p := pow10[k]
		lo, hi := int64(scaledLimit), int64(-scaledLimit)
		lane = false
		i := 0
		for ; i < len(vals); i++ {
			v := vals[i]
			n := int64(float64(v*p) + roundMagic - roundMagic)
			if uint64(n+scaledLimit-1) > 2*scaledLimit-2 {
				break
			}
			if d := math.Float64bits(v) - math.Float64bits(float64(n)/p); d != 0 {
				if d+1 > 2 || uint64(n-1) >= laneLimit-1 { // not ±1, or n outside [1, laneLimit)
					break
				}
				lane = true
			}
			lo, hi = min(lo, n), max(hi, n)
		}
		if i == len(vals) {
			w = widthOf(lo, hi)
			if lane {
				return k, lo, w, true, lo >= 1 && lo+(1<<w-1) < laneLimit
			}
			return k, lo, w, false, lo+(1<<w-1) < scaledLimit
		}
	}
	return 0, 0, 0, false, false
}

// writeScaled writes the ScaledFloat block of vals, at the frame fitScaled
// chose, with its values packed at width w: the residuals, or the ranks with
// a lane.
func writeScaled(vals []float64, k int, base int64, w uint, lane bool, size int) []byte {
	buf := newBlock(ScaledFloat, len(vals), size)
	binary.LittleEndian.PutUint64(buf[headerSize:], uint64(base))
	buf[headerSize+8], buf[headerSize+9] = byte(k), byte(w)
	if w == 0 {
		return buf
	}
	pk, p := packer{buf: buf, p: headerSize + scaledHeaderSize}, pow10[k]
	if lane {
		buf[headerSize+8] |= scaledLane
		for _, v := range vals {
			n := int64(float64(v*p) + roundMagic - roundMagic)
			d := math.Float64bits(v) - math.Float64bits(float64(n)/p)
			pk.put(uint64(n-base)<<2+d+2, w)
		}
	} else {
		for _, v := range vals {
			pk.put(uint64(int64(float64(v*p)+roundMagic-roundMagic)-base), w)
		}
	}
	pk.flush()
	return buf
}

// tableWidth is the widest packed value a read maps through a table of the
// decoder's values (table), which then has 64 entries at most.
const tableWidth = 6

// table evaluates at at every packed value of the block's width into tab,
// when the width is at most tableWidth and a read of n values would evaluate
// it at least that often.
func (s *scaledBlock) table(tab *[1 << tableWidth]float64, n int) bool {
	if s.w > tableWidth || n < 1<<s.w {
		return false
	}
	for t := range tab[:1<<s.w] {
		tab[t] = s.at(uint64(t))
	}
	return true
}

// decodeSpans stores the values of the rows of every span in dst[At:At+N],
// through the table when there is one (decode).
func (s *scaledBlock) decodeSpans(spans []Span, dst []float64) {
	n := 0
	for _, sp := range spans {
		n += sp.N
	}
	var tab [1 << tableWidth]float64
	tabled := s.table(&tab, n)
	for _, sp := range spans {
		s.decode(dst[sp.At:sp.At+sp.N], sp.Row, &tab, tabled)
	}
}

// decode stores the values of rows [from, from+len(out)) in out in one pass,
// mapping each packed value to its value as it reads it. A table block reads
// them 57/w to an unaligned load, as unpack does. A block at most 28 bits
// wide reads two to a load with no inner loop — ≈ 20 % faster than a loop
// over a load's 57/w values at l_extendedprice's 21-bit ranks — and spells
// at's two forms out, one loop each, ≈ 5 % faster than calling at for every
// value. What the loads cannot reach, and a wider block's values, are read
// where they lie (bitsAt).
func (s *scaledBlock) decode(out []float64, from int, tab *[1 << tableWidth]float64, tabled bool) {
	i, w := 0, uint(s.w)&63 // the compiler then knows every shift by w stays below 64
	c, packed := scaler{s.base, s.p, s.lane}, s.packed
	if w > 0 {
		mask, bp := uint64(1)<<w-1, uint(from)*w
		switch {
		case tabled:
			for per := int(57 / w); i+per <= len(out) && int(bp>>3)+8 <= len(packed); bp += uint(per) * w {
				word := binary.LittleEndian.Uint64(packed[bp>>3:]) >> (bp & 7)
				for end := i + per; i < end; i++ {
					out[i] = tab[word&mask&(1<<tableWidth-1)]
					word >>= w
				}
			}
		case w <= 28 && c.lane:
			for ; i+2 <= len(out) && int(bp>>3)+8 <= len(packed); bp += 2 * w {
				word := binary.LittleEndian.Uint64(packed[bp>>3:]) >> (bp & 7)
				t0, t1, o := word&mask, word>>w&mask, out[i:i+2:i+2]
				o[0] = corrected(float64(c.base+int64(t0>>2))/c.p, t0&3-2)
				o[1] = corrected(float64(c.base+int64(t1>>2))/c.p, t1&3-2)
				i += 2
			}
		case w <= 28:
			for ; i+2 <= len(out) && int(bp>>3)+8 <= len(packed); bp += 2 * w {
				word := binary.LittleEndian.Uint64(packed[bp>>3:]) >> (bp & 7)
				t0, t1, o := word&mask, word>>w&mask, out[i:i+2:i+2]
				o[0] = float64(c.base+int64(t0)) / c.p
				o[1] = float64(c.base+int64(t1)) / c.p
				i += 2
			}
		}
	}
	for ; i < len(out); i++ {
		out[i] = s.at(bitsAt(packed, w, from+i))
	}
}

// gather stores value base+rows[k] in dst[pos[k]] for every k, each packed
// value read where it lies — with one unaligned load, as decode reads a
// pair, where the block holds its 8 bytes, and through bitsAt at the end —
// and mapped as decode maps it. The load is ≈ 15 % faster than bitsAt for
// l_extendedprice's ranks.
func (s *scaledBlock) gather(base int, rows, pos []uint32, dst []float64) {
	var tab [1 << tableWidth]float64
	tabled := s.table(&tab, len(rows))
	w, c, packed := uint(s.w)&63, scaler{s.base, s.p, s.lane}, s.packed
	mask := uint64(1)<<w - 1
	for k, r := range rows {
		i := base + int(r)
		var t uint64
		if bp := uint(i) * w; int(bp>>3)+8 <= len(packed) {
			t = binary.LittleEndian.Uint64(packed[bp>>3:]) >> (bp & 7) & mask
		} else {
			t = bitsAt(packed, w, i)
		}
		if tabled {
			dst[pos[k]] = tab[t&(1<<tableWidth-1)]
		} else {
			dst[pos[k]] = c.at(t)
		}
	}
}

// first is the smallest packed value t in [0, 2^w] — 2^w when there is none —
// whose value is at least bound, which is not NaN. at is monotone in t, so
// the packed values passing form a suffix; the search starts from the integer
// bound·10^k names and steps until the decoder's own values straddle the
// bound, which takes a step or two (a few more through a lane's ranks).
func (s *scaledBlock) first(bound float64) int64 {
	end, l := int64(1)<<s.w, int64(1)
	if s.lane {
		l = 4
	}
	// ±Inf clamps to the ends here.
	r := int64(min(max(math.Ceil(bound*s.p)-float64(s.base), 0), float64(end/l)))
	t := min(r*l+l/2, end) // the rank of r's uncorrected value, with a lane
	for t > 0 && s.at(uint64(t-1)) >= bound {
		t--
	}
	for t < end && s.at(uint64(t)) < bound {
		t++
	}
	return t
}

// selectPred appends the offsets from skip of the values [skip, end) that p,
// a PredFloat64Range or PredFloat64Lt, keeps. The bounds map exactly to a
// range of packed values through first, which are compared in place
// (selectResiduals) without converting a value; a range that holds every
// packed value of the width, or none, decides the window whole. A lane's
// ranks order as its values do, so a correction is compared with its
// residual, in the same test.
func (s *scaledBlock) selectPred(skip, end int, p vector.Pred, out []uint32) []uint32 {
	var a, e int64 // packed values [a, e) pass
	switch {
	case p.Op == vector.PredFloat64Lt && !math.IsNaN(p.FHi):
		e = s.first(p.FHi)
	case p.Op == vector.PredFloat64Range && !math.IsNaN(p.FLo) && !math.IsNaN(p.FHi):
		a, e = s.first(p.FLo), s.first(p.FHi)
		if e < 1<<s.w && s.at(uint64(e)) == p.FHi { // distinct packed values decode to distinct values
			e++
		}
	}
	switch {
	case a >= e:
		return out
	case a == 0 && e == 1<<s.w:
		return appendAll(out, end-skip)
	}
	return selectResiduals(s.packed, uint(s.w), skip, end-skip, uint64(a), uint64(e-a-1), out)
}
