package table

// Dirty-set computation for incremental checkpoints. PDT updates are
// positional, so the set of stable blocks a checkpoint must rewrite is
// directly computable from the delta layers — the paper's core property put
// to work on the write-back path:
//
//   - Before the first insert/delete (in merged SID order), every tuple's
//     position is stable: an in-place modify dirties exactly one
//     (column, block) cell, SID/BlockRows, and nothing else ("region A").
//   - From the first insert/delete on, positions shift, so every block of
//     every column from that SID's block onward is dirty ("region B").
//
// Sort-key updates are expressed as delete+insert everywhere in the system,
// so region-A modifies never touch sort-key columns and the sparse index
// entries of region-A blocks are inheritable verbatim.

import (
	"fmt"

	"pdtstore/internal/colstore"
	"pdtstore/internal/engine"
	"pdtstore/internal/pdt"
	"pdtstore/internal/vector"
)

// DirtySet is the block-granular footprint of a delta stack over a stable
// image: which region-A cells need rewriting, where the shifted tail begins,
// and the merged image's geometry.
type DirtySet struct {
	NewBlocks int    // per-column logical blocks in the merged image
	NewRows   uint64 // merged image row count
	// ShiftBlk is the first block whose tuple positions shift (region B
	// starts here); NewBlocks when no insert/delete occurred anywhere.
	ShiftBlk int
	Shifted  bool
	Empty    bool     // no delta entries at all: the images are identical
	Dirty    [][]bool // [col][blk]: region-A blocks with in-place modifies

	dirtyCells int // region-A dirty (column, block) cells
}

// WriteCells returns how many (column, block) cells an incremental
// checkpoint of this dirty set writes: region-A dirty cells plus the full
// width of the shifted tail.
func (ds *DirtySet) WriteCells() int {
	return ds.dirtyCells + (ds.NewBlocks-ds.ShiftBlk)*len(ds.Dirty)
}

// TotalCells returns the merged image's total (column, block) cell count —
// what a full checkpoint writes.
func (ds *DirtySet) TotalCells() int {
	return ds.NewBlocks * len(ds.Dirty)
}

// ComputeDirty folds the delta layers (bottom-to-top, nils skipped) and maps
// their positional entries to exact block coordinates over store. The fold is
// read-only (pdt.Fold is non-destructive), so the layers stay shareable — a
// durable checkpoint calls this from its build closure on the same frozen
// layers it then materializes from.
func ComputeDirty(store *colstore.Store, deltas ...*pdt.PDT) (*DirtySet, error) {
	var merged *pdt.PDT
	for _, d := range deltas {
		if d == nil || d.Empty() {
			continue
		}
		if merged == nil {
			merged = d
			continue
		}
		m, err := pdt.Fold(merged, d)
		if err != nil {
			return nil, err
		}
		merged = m
	}
	R := store.BlockRows()
	oldBlocks := store.NumBlocks()
	ncols := store.Schema().NumCols()
	ds := &DirtySet{
		NewBlocks: oldBlocks,
		NewRows:   store.NRows(),
		ShiftBlk:  oldBlocks,
		Dirty:     make([][]bool, ncols),
	}
	if merged == nil || merged.Empty() {
		ds.Empty = true
		return ds, nil
	}
	ds.NewRows = uint64(int64(store.NRows()) + merged.Delta())
	ds.NewBlocks = 0
	if ds.NewRows > 0 {
		ds.NewBlocks = int((ds.NewRows-1)/uint64(R)) + 1
	}
	for _, e := range merged.Entries() {
		if e.IsInsert() || e.IsDelete() {
			// Entries arrive in non-decreasing SID order: everything from
			// here on lives at SID >= e.SID and is covered by region B.
			ds.Shifted = true
			ds.ShiftBlk = int(e.SID) / R
			break
		}
		// A merged modify always targets a stable tuple (modifies of
		// lower-layer inserts fold into the insert's payload).
		col, blk := e.ModColumn(), int(e.SID)/R
		if blk < oldBlocks {
			if ds.Dirty[col] == nil {
				ds.Dirty[col] = make([]bool, oldBlocks)
			}
			ds.Dirty[col][blk] = true
		}
	}
	if ds.ShiftBlk > ds.NewBlocks {
		ds.ShiftBlk = ds.NewBlocks
	}
	for c := range ds.Dirty {
		for b, d := range ds.Dirty[c] {
			if b >= ds.ShiftBlk {
				ds.Dirty[c][b] = false
			} else if d {
				ds.dirtyCells++
			}
		}
	}
	return ds, nil
}

// ComputeDirty is the package function ComputeDirty (the table plays no part).
func (t *Table) ComputeDirty(store *colstore.Store, deltas ...*pdt.PDT) (*DirtySet, error) {
	return ComputeDirty(store, deltas...)
}

// Widen turns the set into a whole rewrite: the shift block moves to 0, so
// nothing is inherited and every row streams through the tail. A checkpoint
// does this when inheriting would cost more than it saves (see the rule in
// the root package's checkpoint.go).
func (ds *DirtySet) Widen() {
	ds.ShiftBlk, ds.Shifted, ds.dirtyCells = 0, true, 0
	clear(ds.Dirty)
}

// MaterializeDelta streams the dirty part of the merged (store ∘ deltas) view
// into a checkpoint builder started at ds.ShiftBlk: each dirty region-A block
// gets a narrow stacked scan of just its dirty columns over just its SID
// range, and the shifted tail streams through the full-width merge pipeline
// from the shift block on — all of the image when that is block 0. The caller
// decides between Finish and Abort (the durable checkpoint puts its
// crash-injection points in between).
func MaterializeDelta(b *colstore.Builder, store *colstore.Store, ds *DirtySet, deltas ...*pdt.PDT) error {
	schema := store.Schema()
	R := uint64(store.BlockRows())
	var cols []int
	for blk := 0; blk < ds.ShiftBlk; blk++ {
		cols = cols[:0]
		for c := range ds.Dirty {
			if ds.Dirty[c] != nil && ds.Dirty[c][blk] {
				cols = append(cols, c)
			}
		}
		if len(cols) == 0 {
			continue
		}
		lo := uint64(blk) * R
		hi := lo + R
		if hi > store.NRows() {
			hi = store.NRows()
		}
		src := engine.StackPDTs(store.NewScanner(cols, lo, hi), cols, lo, false, deltas...)
		buf := vector.NewBatch(kinds(schema, cols), int(hi-lo))
		total := 0
		for {
			n, err := src.Next(buf, int(hi-lo)-total)
			if err != nil {
				return err
			}
			if n == 0 {
				break
			}
			total += n
		}
		if uint64(total) != hi-lo {
			// Positions are stable in region A by construction; a count drift
			// means the dirty set and the delta stack disagree.
			return fmt.Errorf("table: region-A block %d produced %d rows, want %d", blk, total, hi-lo)
		}
		for i, c := range cols {
			if err := b.WriteBlock(c, blk, buf.Vecs[i]); err != nil {
				return err
			}
		}
	}
	if !ds.Shifted {
		return nil
	}
	lo := uint64(ds.ShiftBlk) * R
	all := allCols(schema)
	src := engine.StackPDTs(store.NewScanner(all, lo, store.NRows()), all, lo, true, deltas...)
	rows, err := drainInto(b, schema, src)
	if err == nil && lo+rows != ds.NewRows {
		err = fmt.Errorf("table: tail from block %d produced %d rows, image needs %d", ds.ShiftBlk, rows, ds.NewRows-lo)
	}
	return err
}
