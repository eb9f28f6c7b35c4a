package pdt

import "fmt"

// Propagate is the paper's Algorithm 7: it applies every update of a
// consecutive, higher-layer PDT w (whose SID domain is t's current RID
// domain) to t in place, one root descent per entry, cloning w's payloads.
// The cursor's running delta is Algorithm 7's δ — the net shift of w's own
// updates already absorbed — so each entry's RID is its position in t's
// evolving image. Every entry passes Insert/Delete/Modify's validation, so a
// malformed w yields an error; t then holds the entries before the bad one
// and must be discarded (FoldSnap, which runs this on a fork, keeps its base
// intact). Costs O(m·log n); Fold is the O(n+m) bulk merge for large w.
func (t *PDT) Propagate(w *PDT) error {
	if w.schema.NumCols() != t.schema.NumCols() {
		return fmt.Errorf("pdt: propagate across different schemas")
	}
	for c := w.newCursorAtStart(); c.valid(); c.advance() {
		rid := c.rid()
		var err error
		switch kind := c.kind(); kind {
		case KindIns:
			err = t.Insert(rid, w.vals.ins[c.val()])
		case KindDel:
			err = t.Delete(rid, w.vals.del[c.val()])
		default:
			err = t.Modify(rid, int(kind), w.vals.mods[kind][c.val()])
		}
		if err != nil {
			return err
		}
	}
	return nil
}
