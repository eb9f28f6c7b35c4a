package storage

// Per-block zone maps: min/max/null-count statistics for every encoded column
// block, written into the segment footer's sectioned tail. A scan consults the
// zone before fetching the block, so a selective predicate skips whole blocks
// without a pread. Stats are computed by the block builder (the storage layer
// never decodes vectors); a delta checkpoint recomputes stats only for the
// blocks it rewrites — inherited blocks keep the stats of the chain member
// that holds their bytes, resolved through the block-placement map.

import (
	"encoding/binary"
	"math"

	"pdtstore/internal/types"
)

// ZoneKind says which min/max arm of a Zone is populated.
type ZoneKind uint8

const (
	// ZoneNone marks a block with no usable statistics; it is never skipped.
	ZoneNone ZoneKind = iota
	// ZoneInt covers Int64, Bool and Date blocks (bools as 0/1).
	ZoneInt
	// ZoneFloat covers Float64 blocks.
	ZoneFloat
	// ZoneString covers String blocks; MaxS may be a truncated prefix.
	ZoneString
)

// Zone holds the per-block statistics recorded in the segment footer: the
// min/max of the block's values in the arm named by Kind, plus a null count
// (always zero today — the value model has no NULL — kept so the format does
// not need a bump when nullability lands).
type Zone struct {
	Kind       ZoneKind
	MinI, MaxI int64
	MinF, MaxF float64
	MinS, MaxS string
	// MaxSTrunc marks MaxS as a length-capped prefix of the true maximum
	// (long strings are not stored whole in the footer). A truncated max only
	// supports conservative comparisons: values greater than the stored
	// prefix may still exist in the block.
	MaxSTrunc bool
	Nulls     uint32
}

const zoneFlagMaxTrunc = 1

func appendZone(buf []byte, z Zone) []byte {
	buf = append(buf, byte(z.Kind))
	buf = binary.LittleEndian.AppendUint32(buf, z.Nulls)
	switch z.Kind {
	case ZoneInt:
		buf = binary.LittleEndian.AppendUint64(buf, uint64(z.MinI))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(z.MaxI))
	case ZoneFloat:
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(z.MinF))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(z.MaxF))
	case ZoneString:
		buf = types.AppendString(buf, z.MinS)
		buf = types.AppendString(buf, z.MaxS)
		var flags byte
		if z.MaxSTrunc {
			flags |= zoneFlagMaxTrunc
		}
		buf = append(buf, flags)
	}
	return buf
}

func readZone(r *types.Reader) Zone {
	z := Zone{Kind: ZoneKind(r.U8())}
	z.Nulls = r.U32()
	switch z.Kind {
	case ZoneInt:
		z.MinI = int64(r.U64())
		z.MaxI = int64(r.U64())
	case ZoneFloat:
		z.MinF = math.Float64frombits(r.U64())
		z.MaxF = math.Float64frombits(r.U64())
	case ZoneString:
		z.MinS = r.Str()
		z.MaxS = r.Str()
		z.MaxSTrunc = r.U8()&zoneFlagMaxTrunc != 0
	}
	return z
}
