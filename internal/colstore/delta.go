package colstore

// Incremental checkpoints: a DeltaBuilder writes generation N+1 as a segment
// holding only the blocks the frozen PDT dirtied, plus a block map resolving
// every unchanged block into the prior generation's chain. The table layer
// drives it in two regions, matching the positional structure of a PDT:
//
//   - Region A (blocks before the first insert/delete): tuple positions are
//     stable, so only columns with in-place modifies change. Each dirty
//     (column, block) is re-encoded via WriteBlock; every clean cell inherits
//     its placement — and its sparse-index key — from the base verbatim.
//   - Region B (from the first insert/delete on): positions shift, so every
//     column's tail streams through AppendTail like a full checkpoint,
//     recomputing the sparse index as blocks fill.
//
// Finish renumbers the chain: base members that no new placement references
// fall out (fully superseded — the caller unlinks them after the manifest
// swap), survivors are retained, and the new segment joins as the last
// member carrying the footer and block map for the whole generation.

import (
	"fmt"

	"pdtstore/internal/storage"
	"pdtstore/internal/types"
	"pdtstore/internal/vector"
)

// newSegMark marks a placement that points into the segment being written;
// Finish rewrites it to the new segment's final chain position.
const newSegMark = ^uint32(0)

// DeltaBuilder streams an incremental checkpoint into a new segment file.
type DeltaBuilder struct {
	base      *Store
	segw      *storage.SegmentWriter
	newRows   uint64
	newBlocks int
	shiftBlk  int
	places    [][]storage.BlockPlace // Seg: base chain index, or newSegMark
	sparse    []types.Row
	physBlk   []int // blocks appended to the new segment, per column
	pending   *vector.Batch
	tailBlk   int    // next logical block the region-B stream fills
	tailRows  uint64 // region-B rows appended so far
	err       error
}

// NewDeltaBuilder starts an incremental checkpoint of base into a new
// segment at path. newRows is the merged image's row count and shiftBlk the
// first block whose tuple positions shift (== the base's block count when no
// insert/delete occurred): placements and sparse keys of all earlier blocks
// are inherited from base, to be selectively overwritten via WriteBlock.
func NewDeltaBuilder(base *Store, path string, newRows uint64, shiftBlk int) (*DeltaBuilder, error) {
	if base.segs == nil {
		return nil, fmt.Errorf("colstore: incremental checkpoint needs a file-backed base")
	}
	segw, err := storage.CreateSegment(path, base.schema, base.blockRows, base.compressed)
	if err != nil {
		return nil, err
	}
	nb := 0
	if newRows > 0 {
		nb = int((newRows-1)/uint64(base.blockRows)) + 1
	}
	if shiftBlk > nb {
		shiftBlk = nb
	}
	ncols := base.schema.NumCols()
	places := make([][]storage.BlockPlace, ncols)
	for c := range places {
		col := make([]storage.BlockPlace, nb)
		for b := 0; b < shiftBlk; b++ {
			si, pb := base.place(c, b)
			col[b] = storage.BlockPlace{Seg: uint32(si), Blk: uint32(pb)}
		}
		places[c] = col
	}
	inherit := shiftBlk
	if inherit > len(base.sparse) {
		inherit = len(base.sparse)
	}
	kinds := make([]types.Kind, ncols)
	for i, c := range base.schema.Cols {
		kinds[i] = c.Kind
	}
	return &DeltaBuilder{
		base:      base,
		segw:      segw,
		newRows:   newRows,
		newBlocks: nb,
		shiftBlk:  shiftBlk,
		places:    places,
		sparse:    append([]types.Row(nil), base.sparse[:inherit]...),
		physBlk:   make([]int, ncols),
		pending:   vector.NewBatch(kinds, base.blockRows),
		tailBlk:   shiftBlk,
	}, nil
}

// WriteBlock re-encodes one dirty region-A block of one column into the new
// segment, replacing its inherited placement. Positions are stable in region
// A, so v holds exactly the block's row count and the block's sparse key is
// unchanged (in-place modifies never touch sort-key columns — a sort-key
// update is a delete+insert, which shifts positions and lands in region B).
func (d *DeltaBuilder) WriteBlock(col, blk int, v *vector.Vector) error {
	if d.err != nil {
		return d.err
	}
	if blk >= d.shiftBlk {
		d.err = fmt.Errorf("colstore: WriteBlock(%d) in shifted region (shift block %d)", blk, d.shiftBlk)
		return d.err
	}
	return d.writeBlock(col, blk, v)
}

func (d *DeltaBuilder) writeBlock(col, blk int, v *vector.Vector) error {
	enc := encodeVec(v, d.base.compressed)
	if err := d.segw.AppendBlock(col, enc, zoneOf(v)); err != nil {
		d.err = err
		return err
	}
	d.places[col][blk] = storage.BlockPlace{Seg: newSegMark, Blk: uint32(d.physBlk[col])}
	d.physBlk[col]++
	return nil
}

// AppendTail streams region-B rows — every column, in final position order
// starting at block shiftBlk — re-blocking and re-encoding them and
// recomputing the sparse index, like a full checkpoint would from that point.
func (d *DeltaBuilder) AppendTail(batch *vector.Batch) error {
	if d.err != nil {
		return d.err
	}
	n := batch.Len()
	for i := 0; i < n; {
		if d.pending.Len() == 0 {
			key := d.base.schema.KeyOf(batch.Row(i))
			if ns := len(d.sparse); ns > 0 && types.CompareRows(d.sparse[ns-1], key) >= 0 {
				d.err = fmt.Errorf("colstore: tail rows not in sort-key order")
				return d.err
			}
			d.sparse = append(d.sparse, key)
		}
		take := d.base.blockRows - d.pending.Len()
		if rest := n - i; take > rest {
			take = rest
		}
		for c, v := range d.pending.Vecs {
			v.AppendRange(batch.Vecs[c], i, i+take)
		}
		i += take
		if d.pending.Len() == d.base.blockRows {
			d.flushTail()
		}
	}
	d.tailRows += uint64(n)
	return d.err
}

func (d *DeltaBuilder) flushTail() {
	for c, v := range d.pending.Vecs {
		if d.writeBlock(c, d.tailBlk, v) != nil {
			return
		}
	}
	d.tailBlk++
	d.pending.Reset()
}

// Abort discards the build, removing the partial segment file.
func (d *DeltaBuilder) Abort() {
	if d.segw != nil {
		d.segw.Abort()
		d.segw = nil
	}
	if d.err == nil {
		d.err = fmt.Errorf("colstore: delta builder aborted")
	}
}

// Finish seals the incremental checkpoint: flushes the tail, renumbers the
// chain (dropping base members no placement references any more), writes the
// block map into the footer, fsyncs, and returns the new generation's store.
// Surviving base members are retained — the base store keeps its own
// references and releases them independently on Close.
func (d *DeltaBuilder) Finish() (*Store, error) {
	if d.err == nil && d.pending.Len() > 0 {
		d.flushTail()
	}
	if d.err == nil && len(d.sparse) != d.newBlocks {
		d.err = fmt.Errorf("colstore: delta builder filled %d of %d blocks", len(d.sparse), d.newBlocks)
	}
	if d.err == nil && d.shiftBlk < d.newBlocks && uint64(d.shiftBlk)*uint64(d.base.blockRows)+d.tailRows != d.newRows {
		d.err = fmt.Errorf("colstore: delta tail holds %d rows, image needs %d", d.tailRows, d.newRows-uint64(d.shiftBlk)*uint64(d.base.blockRows))
	}
	if d.err != nil {
		d.Abort()
		return nil, d.err
	}
	// Renumber: keep only base chain members some placement still references,
	// preserving their relative order; the new segment becomes the last member.
	used := make([]bool, len(d.base.segs))
	for _, col := range d.places {
		for _, p := range col {
			if p.Seg != newSegMark {
				used[p.Seg] = true
			}
		}
	}
	remap := make([]uint32, len(d.base.segs))
	var chain []*storage.Segment
	for i, u := range used {
		if u {
			remap[i] = uint32(len(chain))
			chain = append(chain, d.base.segs[i])
		}
	}
	newIdx := uint32(len(chain))
	for _, col := range d.places {
		for j, p := range col {
			if p.Seg == newSegMark {
				col[j].Seg = newIdx
			} else {
				col[j].Seg = remap[p.Seg]
			}
		}
	}
	d.segw.SetPlacements(d.places)
	seg, err := d.segw.Finish(d.newRows, d.sparse)
	if err != nil {
		d.segw.Abort()
		d.segw = nil
		d.err = err
		return nil, err
	}
	d.segw = nil
	for _, s := range chain {
		s.Retain()
	}
	chain = append(chain, seg)
	dev := d.base.dev
	ids := make([]uint64, len(chain))
	for i, s := range chain {
		ids[i] = dev.segmentID(s)
	}
	return &Store{
		schema:     d.base.schema,
		id:         dev.register(),
		blockRows:  d.base.blockRows,
		compressed: d.base.compressed,
		nrows:      d.newRows,
		segs:       chain,
		segIDs:     ids,
		places:     d.places,
		sparse:     d.sparse,
		dev:        dev,
	}, nil
}
