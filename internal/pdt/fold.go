package pdt

import (
	"fmt"

	"pdtstore/internal/types"
)

// Fold is the bulk downward merge: it combines a consecutive, higher-layer
// PDT w (whose SIDs are base's RIDs) with base into a brand-new PDT and leaves
// both inputs untouched. The transaction manager uses it for online
// maintenance — folding the Write-PDT into a fresh Read-PDT that is then
// installed as a new version, while transactions pinned to the old version
// keep reading base — and, through FoldSnap, at commit, so a failed WAL
// append never leaves the master Write-PDT half-mutated.
//
// It is a single merge pass: both trees' leaf chains are walked in (SID, RID)
// order and the combined entry stream is emitted into a bulkBuilder, so
// folding m updates into a tree of n entries costs O(n+m) sequential work
// instead of m root descents with per-entry leaf shifting (Propagate, which
// fold_test.go's checkFold holds it entry-equal to on every small two-layer
// mix and the directed cases). The running output delta dOut plays the role of
// Algorithm 7's δ: a w entry targeting final position r stores SID r−dOut,
// which is exactly what the per-entry algorithms derive by cursor descent.
//
// Fold emits every surviving payload into the output's own value space,
// sharing row and value storage with the inputs where no rewrite happens and
// cloning the one case that needs mutation (a modify landing on a tuple base
// inserted). Both inputs therefore stay valid afterwards: immutable Read-PDT
// versions can share payload rows across the whole fold chain.
func Fold(base, w *PDT) (*PDT, error) {
	if w.schema.NumCols() != base.schema.NumCols() {
		return nil, fmt.Errorf("pdt: fold across different schemas")
	}
	out := New(base.schema, base.fanout)
	b := newBulkBuilder(out)
	b.reserve(base.nEntries + w.nEntries)
	// Every payload the merge emits comes from one input's table of its
	// kind, so the inputs' tables bound the output's: size them once.
	ov := out.vals
	ov.ins = make([]types.Row, 0, base.nIns+w.nIns)
	ov.del = make([]types.Row, 0, base.nDel+w.nDel)
	for c := range ov.mods {
		if n := len(base.vals.mods[c]) + len(w.vals.mods[c]); n > 0 {
			ov.mods[c] = make([]types.Value, 0, n)
		}
	}
	cb := base.newCursorAtStart()
	cw := w.newCursorAtStart()

	// dOut is the accumulated shift of every entry emitted so far — the
	// output tree's delta before the current merge position (Algorithm 7's δ).
	var dOut int64
	emitBase := func() {
		switch kind := cb.kind(); kind {
		case KindIns:
			b.append(cb.sid(), KindIns, uint64(len(ov.ins)))
			ov.ins = append(ov.ins, base.vals.ins[cb.val()])
		case KindDel:
			b.append(cb.sid(), KindDel, uint64(len(ov.del)))
			ov.del = append(ov.del, base.vals.del[cb.val()])
		default:
			b.append(cb.sid(), kind, uint64(len(ov.mods[kind])))
			ov.mods[kind] = append(ov.mods[kind], base.vals.mods[kind][cb.val()])
		}
		dOut += kindShift(cb.kind())
		cb.advance()
	}

	for cw.valid() {
		// p is the position, in the output image, that the next w entries
		// target (w's SID domain is base's RID domain).
		p := cw.sid()
		for cb.valid() && cb.rid() < p {
			emitBase()
		}

		// Inserts of w at p slot in among base's ghost deletes at p by sort
		// key (SKRidToSid's ghost-ordering rule). w's inserts at one SID
		// arrive in key order, so this is a sorted merge.
		for cw.valid() && cw.sid() == p && cw.kind() == KindIns {
			tuple := w.vals.ins[cw.val()]
			insKey := w.schema.KeyOf(tuple)
			for cb.valid() && cb.rid() == p && cb.kind() == KindDel &&
				types.CompareRows(base.vals.del[cb.val()], insKey) < 0 {
				emitBase()
			}
			b.append(uint64(int64(cw.rid())-dOut), KindIns, uint64(len(ov.ins)))
			ov.ins = append(ov.ins, tuple)
			dOut++
			cw.advance()
		}
		if !cw.valid() || cw.sid() != p {
			continue
		}

		// The rest of w's chain at p (one delete, or a modify run) targets
		// the tuple visible at p. base's remaining ghosts at p precede it.
		for cb.valid() && cb.rid() == p && cb.kind() == KindDel {
			emitBase()
		}

		if cw.kind() == KindDel {
			if cb.valid() && cb.rid() == p && cb.kind() == KindIns {
				// Delete of a tuple base inserted: both vanish (§2.1
				// collapse); neither payload reaches the output.
				cb.advance()
			} else {
				// Deleting a stable tuple drops its modify entries first.
				for cb.valid() && cb.rid() == p && cb.kind() != KindIns && cb.kind() != KindDel {
					cb.advance()
				}
				b.append(uint64(int64(cw.rid())-dOut), KindDel, uint64(len(ov.del)))
				ov.del = append(ov.del, w.vals.del[cw.val()])
				dOut--
			}
			cw.advance()
			continue
		}

		// Modify run of w at p.
		if cb.valid() && cb.rid() == p && cb.kind() == KindIns {
			// The visible tuple at p is an insert of base: clone the stored
			// row — base stays untouched — apply the run, and emit the insert
			// with the rewritten tuple.
			row := base.vals.ins[cb.val()].Clone()
			for cw.valid() && cw.sid() == p {
				row[cw.kind()] = w.vals.mods[cw.kind()][cw.val()]
				cw.advance()
			}
			b.append(cb.sid(), KindIns, uint64(len(ov.ins)))
			ov.ins = append(ov.ins, row)
			dOut++
			cb.advance()
			continue
		}
		// The visible tuple at p is stable: merge the two modify runs by
		// column number; on a column collision w's value wins and base's
		// entry is consumed without emitting its payload.
		for cw.valid() && cw.sid() == p {
			col := cw.kind()
			for cb.valid() && cb.rid() == p && cb.kind() < col {
				emitBase()
			}
			if cb.valid() && cb.rid() == p && cb.kind() == col {
				b.append(cb.sid(), col, uint64(len(ov.mods[col])))
				ov.mods[col] = append(ov.mods[col], w.vals.mods[col][cw.val()])
				cb.advance()
			} else {
				b.append(uint64(int64(cw.rid())-dOut), col, uint64(len(ov.mods[col])))
				ov.mods[col] = append(ov.mods[col], w.vals.mods[col][cw.val()])
			}
			cw.advance()
		}
	}
	for cb.valid() {
		emitBase()
	}
	b.finish()
	// The output's rows alias the inputs' rows, so later point mutations of
	// the output must repoint rather than rewrite them.
	out.sharedPayload = true
	return out, nil
}

// foldSnapRatio is Apply's cutover: when w holds at least 1/foldSnapRatio
// of the target's entries the full bulk merge beats per-entry insertion.
const foldSnapRatio = 8

// FoldSnap is Fold for the common commit-path shape — a small w landing on a
// large base. It forks base (O(1), structure shared) and hands the fork to
// Apply, so a small w is applied entry by entry, path-copying only the
// nodes it touches, and a large w takes the bulk merge. Both inputs stay
// valid. The result is entry-equivalent to Fold but not offset-identical:
// payloads may occupy different value-space slots.
func FoldSnap(base, w *PDT) (*PDT, error) {
	if base.nEntries == 0 {
		return Fold(base, w) // nothing to fork: Fold leaves base as it is
	}
	return Apply(base.fork(), w)
}

// Apply moves layer w down into t, a PDT the caller owns, by the one size
// rule of this package: when t is empty or w holds at least 1/foldSnapRatio
// of t's entries it returns Fold(t, w), a new PDT that leaves t untouched;
// otherwise it runs t.Propagate(w) and returns t itself, updated in place.
// The caller keeps using the result in place of t. On an error t may hold
// part of w and must be discarded; FoldSnap and WAL replay apply to a fork
// or a snapshot, so their base stays intact.
func Apply(t, w *PDT) (*PDT, error) {
	if t.nEntries == 0 || w.nEntries*foldSnapRatio >= t.nEntries {
		return Fold(t, w)
	}
	if err := t.Propagate(w); err != nil {
		return nil, err
	}
	return t, nil
}
