package pdt

// Rebuild reconstructs a PDT from an ordered entry dump — the write-ahead
// log's replay path. Entries must be in (SID, RID) order, i.e. exactly the
// order Entries() produced them in.

import (
	"fmt"

	"pdtstore/internal/types"
)

// RebuildEntry is one logged update triplet with its payload inline.
type RebuildEntry struct {
	SID  uint64
	Kind uint16
	Ins  types.Row   // full tuple, for inserts
	Del  types.Row   // ghost sort-key values, for deletes
	Mod  types.Value // modified value, for modifies
}

// Dump flattens the PDT into rebuildable entries (the WAL's record body).
// The returned rows alias the PDT's value space — they are serialized or
// cloned by the consumer (the WAL encoder serializes them immediately and
// Rebuild clones on intake), so Dump itself never copies a payload. Callers
// must not mutate the rows, and a dump taken before later updates to the
// PDT may observe those updates through the aliases.
func (t *PDT) Dump() []RebuildEntry {
	out := make([]RebuildEntry, 0, t.nEntries)
	for c := t.newCursorAtStart(); c.valid(); c.advance() {
		e := RebuildEntry{SID: c.sid(), Kind: c.kind()}
		switch c.kind() {
		case KindIns:
			e.Ins = t.vals.ins[c.val()]
		case KindDel:
			e.Del = t.vals.del[c.val()]
		default:
			e.Mod = t.vals.mods[c.kind()][c.val()]
		}
		out = append(out, e)
	}
	return out
}

// Rebuild constructs a PDT from dumped entries.
func Rebuild(schema *types.Schema, fanout int, entries []RebuildEntry) (*PDT, error) {
	t := New(schema, fanout)
	b := newBulkBuilder(t)
	b.reserve(len(entries))
	for i, e := range entries {
		switch e.Kind {
		case KindIns:
			if err := schema.ValidateRow(e.Ins); err != nil {
				return nil, fmt.Errorf("pdt: rebuild entry %d: %w", i, err)
			}
			b.append(e.SID, KindIns, uint64(len(t.vals.ins)))
			t.vals.ins = append(t.vals.ins, e.Ins.Clone())
		case KindDel:
			if err := schema.ValidateKey(e.Del, false); err != nil {
				return nil, fmt.Errorf("pdt: rebuild entry %d: ghost key: %w", i, err)
			}
			b.append(e.SID, KindDel, uint64(len(t.vals.del)))
			t.vals.del = append(t.vals.del, e.Del.Clone())
		default:
			col := int(e.Kind)
			if col >= schema.NumCols() || schema.IsSortKeyCol(col) || e.Mod.K != schema.Cols[col].Kind {
				return nil, fmt.Errorf("pdt: rebuild entry %d: no modify of column %d to a %v", i, col, e.Mod.K)
			}
			b.append(e.SID, e.Kind, uint64(len(t.vals.mods[col])))
			t.vals.mods[col] = append(t.vals.mods[col], e.Mod)
		}
	}
	b.finish()
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("pdt: rebuild produced invalid tree: %w", err)
	}
	return t, nil
}
