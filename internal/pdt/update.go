package pdt

// Update operations: AddInsert, Modify, Delete (the paper's Algorithms 3–5)
// plus SKRidToSid (Algorithm 6) and the high-level Insert convenience that
// combines the two. All operations identify their target purely by
// position; the only value comparisons anywhere are the ghost-ordering
// comparisons of SKRidToSid, which untie multiple inserts at one SID.
//
// Every mutation first owns the cursor's root-to-leaf path (path-copying
// nodes a snapshot still shares) and, when payload memory may be visible to
// a snapshot, repoints the entry at a freshly appended value-space slot
// instead of overwriting in place.

import (
	"fmt"

	"pdtstore/internal/types"
)

// Insert records the insertion of tuple at current row position rid: every
// existing tuple at RID >= rid shifts one position right. The tuple's sort
// key must place it at rid; the PDT derives the stable SID, respecting the
// order of ghost (deleted) tuples per §2.1.
func (t *PDT) Insert(rid uint64, tuple types.Row) error {
	if err := t.schema.ValidateRow(tuple); err != nil {
		return err
	}
	sid := t.SKRidToSid(t.schema.KeyOf(tuple), rid)
	return t.AddInsert(sid, rid, tuple)
}

// AddInsert records an insert of tuple at (sid, rid). Most callers want
// Insert; AddInsert exists for callers that already know the
// ghost-respecting SID.
func (t *PDT) AddInsert(sid, rid uint64, tuple types.Row) error {
	c := t.newCursorBySidRid(sid, rid)
	// Algorithm 3: advance while the entry precedes the insertion point.
	for c.valid() && (c.sid() < sid || c.rid() < rid) {
		c.advance()
	}
	storedSID := uint64(int64(rid) - c.delta)
	if storedSID != sid {
		return fmt.Errorf("pdt: AddInsert(sid=%d, rid=%d) derives SID %d; caller's SID is inconsistent with ghost order", sid, rid, storedSID)
	}
	vs := t.mutableVals()
	off := uint64(len(vs.ins))
	vs.ins = append(vs.ins, tuple.Clone())
	t.placeEntry(&c, storedSID, KindIns, off)
	t.nIns++
	return nil
}

// placeEntry inserts a triplet at the cursor position after securing
// exclusive ownership of the cursor's path. A cursor parked at END appends
// after the last entry.
func (t *PDT) placeEntry(c *cursor, sid uint64, kind uint16, val uint64) {
	t.ownPath(c)
	t.insertEntryAt(c, sid, kind, val)
}

// Modify records setting column col of the tuple at current row position rid
// to value v (Algorithm 4). Sort-key columns cannot be modified this way
// (callers express that as delete+insert, as §2.1 prescribes). If the target
// tuple is an insert or already has a modify entry for col, the value space
// is updated in place (or, if a snapshot shares the payload, a fresh slot is
// appended and the entry repointed); otherwise a new modify triplet enters
// the tree, keeping a tuple's modify entries ordered by column number.
func (t *PDT) Modify(rid uint64, col int, v types.Value) error {
	if col < 0 || col >= t.schema.NumCols() {
		return fmt.Errorf("pdt: modify of column %d out of range", col)
	}
	if t.schema.IsSortKeyCol(col) {
		return fmt.Errorf("pdt: column %q is a sort-key column; modify must be expressed as delete+insert", t.schema.Cols[col].Name)
	}
	if v.K != t.schema.Cols[col].Kind {
		return fmt.Errorf("pdt: column %q expects %v, got %v", t.schema.Cols[col].Name, t.schema.Cols[col].Kind, v.K)
	}
	c := t.newCursorAtRidChain(rid)
	// Ghost tuples share the RID of their successor and cannot be modified:
	// skip the chain's delete entries.
	for c.valid() && c.rid() == rid && c.kind() == KindDel {
		c.advance()
	}
	if c.valid() && c.rid() == rid && c.kind() == KindIns {
		// The visible tuple at rid is a fresh insert: rewrite its value.
		if t.sharedPayload {
			vs := t.mutableVals()
			row := vs.ins[c.val()].Clone()
			row[col] = v
			off := uint64(len(vs.ins))
			vs.ins = append(vs.ins, row)
			t.ownPath(&c)
			c.lf.vals[c.pos] = off
			t.deadIns++
			return nil
		}
		t.vals.ins[c.val()][col] = v
		return nil
	}
	// Walk the tuple's modify run (ordered by column) to the col slot.
	for c.valid() && c.rid() == rid && c.kind() != KindIns && int(c.kind()) < col {
		c.advance()
	}
	if c.valid() && c.rid() == rid && int(c.kind()) == col {
		// Second modify of the same column: overwrite in the value space.
		if t.sharedPayload {
			vs := t.mutableVals()
			off := uint64(len(vs.mods[col]))
			vs.mods[col] = append(vs.mods[col], v)
			t.ownPath(&c)
			c.lf.vals[c.pos] = off
			return nil
		}
		t.vals.mods[col][c.val()] = v
		return nil
	}
	vs := t.mutableVals()
	off := uint64(len(vs.mods[col]))
	vs.mods[col] = append(vs.mods[col], v)
	t.placeEntry(&c, uint64(int64(rid)-c.delta), uint16(col), off)
	t.nMod++
	return nil
}

// Delete records the deletion of the tuple at current row position rid
// (Algorithm 5, extended with the §2.1 collapse rules). skVals must hold the
// tuple's sort-key values; for a stable tuple they become the ghost key (kept
// so sparse indexes built on the stable image stay valid) and any modify
// entries of the tuple are removed first; for an inserted tuple they are
// ignored because the insert is simply removed. Tuples at RID > rid shift one
// position left.
func (t *PDT) Delete(rid uint64, skVals types.Row) error {
	if len(skVals) != len(t.schema.SortKey) {
		return fmt.Errorf("pdt: delete needs %d sort-key values, got %d", len(t.schema.SortKey), len(skVals))
	}
	c := t.newCursorAtRidChain(rid)
	for c.valid() && c.rid() == rid && c.kind() == KindDel {
		c.advance()
	}
	if c.valid() && c.rid() == rid && c.kind() == KindIns {
		// Delete of an insert: remove all trace of it.
		t.nIns--
		t.deadIns++
		t.ownPath(&c)
		t.removeEntryAt(&c)
		return nil
	}
	// Remove any modify entries of the doomed stable tuple.
	for c.valid() && c.rid() == rid && c.kind() != KindIns && c.kind() != KindDel {
		t.nMod--
		t.ownPath(&c)
		t.removeEntryAt(&c)
		// Removal keeps the cursor pointing at the next entry of the same
		// leaf, but if the leaf emptied (its spine collapsed) or the position
		// ran off the leaf's end (the next entry lives in another leaf), the
		// cursor cannot continue; renormalize with a fresh descent.
		if c.lf.count() == 0 || c.pos >= c.lf.count() {
			c = t.newCursorAtRidChain(rid)
			for c.valid() && c.rid() == rid && c.kind() == KindDel {
				c.advance()
			}
		}
	}
	vs := t.mutableVals()
	off := uint64(len(vs.del))
	vs.del = append(vs.del, skVals.Clone())
	t.placeEntry(&c, uint64(int64(rid)-c.delta), KindDel, off)
	t.nDel++
	return nil
}

// SKRidToSid is Algorithm 6: given the sort-key values of a tuple to be
// placed at current row position rid, it returns the SID the tuple should
// receive in the stable image, positioning it among any ghost tuples that
// share rid by comparing sort keys (the only value-based step in the PDT).
func (t *PDT) SKRidToSid(skVals types.Row, rid uint64) uint64 {
	c := t.newCursorAtRidChain(rid)
	for c.valid() && c.rid() == rid && c.kind() == KindDel &&
		types.CompareRows(t.vals.del[c.val()], skVals) < 0 {
		c.advance()
	}
	return uint64(int64(rid) - c.delta)
}

// SeekSid is the O(log n) descent a positional reader opens this layer with
// at input position sid: rid is where output starts there — sid plus the
// shift of every entry before it, the RID of whatever comes first at SID >=
// sid, inserts included (MergeScan.StartRID) — and next is the SID of the
// first entry at or after sid (ok is false when there is none). Both are
// monotone in sid, so mapping a range's two ends gives the range of the layer
// above that can touch it, and next says whether this layer touches it at
// all, without visiting the entries in between.
func (t *PDT) SeekSid(sid uint64) (rid, next uint64, ok bool) {
	c := t.newCursorAtSid(sid)
	rid = uint64(int64(sid) + c.delta)
	if !c.valid() {
		return rid, 0, false
	}
	return rid, c.sid(), true
}

// SidToRid maps a stable tuple's SID to its current RID. ghost reports
// whether the tuple has been deleted (its RID is then the RID of the next
// visible tuple, per the paper's ghost convention).
func (t *PDT) SidToRid(sid uint64) (rid uint64, ghost bool) {
	c := t.newCursorAtSid(sid)
	// Entries at this SID: first inserts (which precede the stable tuple and
	// so shift it), then the stable tuple's own modify entries or delete.
	for c.valid() && c.sid() == sid && c.kind() == KindIns {
		c.advance()
	}
	if c.valid() && c.sid() == sid && c.kind() == KindDel {
		return c.rid(), true
	}
	return uint64(int64(sid) + c.delta), false
}
