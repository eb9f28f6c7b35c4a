package engine

// Source construction: the one place that knows how to assemble the paper's
// read pipelines. A stable image plus an optional differential structure
// (PDT, VDT, or none) becomes a positional batch source via NewSource; a
// stack of PDT layers (the transaction scheme's Read/Write/Trans/Query
// stacking, Equation 9) is chained with StackPDTs.

import (
	"pdtstore/internal/colstore"
	"pdtstore/internal/pdt"
	"pdtstore/internal/types"
	"pdtstore/internal/vdt"
	"pdtstore/internal/vector"
)

// TableSpec names the storage pieces of one table image: the stable column
// store and at most one differential structure. A nil (or empty) delta means
// the scan reads the stable image directly, exactly like the paper's clean
// reference runs.
type TableSpec struct {
	Store *colstore.Store
	PDT   *pdt.PDT
	VDT   *vdt.VDT
}

// NewSource builds the merged read source for the projected columns of all
// visible rows whose sort key lies in [loKey, hiKey] (nil bounds are open;
// bounds may be prefixes of the sort key). Range restriction goes through the
// sparse index, so the source may produce rows just outside the bounds
// (partial blocks); plan filters re-restrict downstream, as with real zone
// maps. The source emits RIDs.
//
// Projection is pushed all the way down: the stable scanner decodes only the
// blocks of the requested columns, and the PDT merge patches only projected
// columns (deletes and inserts are still tracked positionally, per Algorithm
// 2, without ever reading the sort key). Only the value-based VDT merge must
// additionally read the sort-key columns — the defining cost of the baseline
// the paper measures — and projects them away again before rows leave the
// source.
//
// A positional image (PDT or none) has its pipeline stated once, in
// PartitionSpec: its source is that scan's whole-range open. Only the VDT
// merge, which PartitionSpec declines, is assembled here.
func NewSource(spec TableSpec, cols []int, loKey, hiKey types.Row) (pdt.BatchSource, error) {
	if ps := PartitionSpec(spec, loKey, hiKey); ps != nil {
		return ps.OpenAll(cols)
	}
	s := spec.Store
	from, to := s.SIDRange(loKey, hiKey)
	srcCols := append([]int(nil), cols...)
	for _, k := range s.Schema().SortKey {
		present := false
		for _, c := range srcCols {
			if c == k {
				present = true
				break
			}
		}
		if !present {
			srcCols = append(srcCols, k)
		}
	}
	src := s.NewScanner(srcCols, from, to)
	startRID := spec.VDT.RangeStartRID(from, loKey)
	return vdt.NewMergeScan(spec.VDT, src, srcCols, cols, loKey, hiKey, startRID)
}

// PartitionSpec is the read pipeline of a positional table image:
// PartitionLayers over its store and its one PDT. A table whose updates live
// in a VDT declines (returns nil): a value-based merge interleaves by key, not
// position, and cannot be sliced by SID range.
func PartitionSpec(spec TableSpec, loKey, hiKey types.Row) *PartScan {
	if spec.VDT != nil && !spec.VDT.Empty() {
		return nil
	}
	return PartitionLayers(spec.Store, loKey, hiKey, spec.PDT)
}

// PartitionLayers is the read pipeline of a stable image under a stack of PDT
// layers (bottom to top; nil and empty ones allowed): it resolves the sort-key
// range to stable-SID bounds once and returns a PartScan whose Open is
// StackPDTs over the stable scanner and the layers, clamped to one morsel's
// [lo, hi) sub-range. Non-last morsels open their PDT merges with
// includeEnd=false, so a delta entry sitting exactly on a morsel boundary is
// owned by the morsel that starts there — the invariant that makes
// concatenated morsel outputs equal the whole scan. The prune pass consults
// the image's zone maps and index sidecar, treating every block the layers
// touch as unskippable — the positional dirty-block gate that keeps index and
// zone answers consistent with the layers while they are unfolded.
func PartitionLayers(s *colstore.Store, loKey, hiKey types.Row, layers ...*pdt.PDT) *PartScan {
	lo, hi := s.SIDRange(loKey, hiKey)
	return &PartScan{Lo: lo, Hi: hi, Unit: s.BlockRows(),
		Prune: PruneFunc(s, lo, hi, layers...),
		Open: func(cols []int, mlo, mhi uint64, last, ahead bool) (pdt.BatchSource, error) {
			if ahead {
				if err := s.Prefetch(cols, mlo, mhi); err != nil {
					return nil, err
				}
			}
			return StackPDTs(s.NewScanner(cols, mlo, mhi), cols, mlo, last, layers...), nil
		}}
}

// StackPDTs chains PDT layers bottom-to-top over a base source producing the
// given columns for consecutive positions starting at startSID: each layer's
// SIDs are the RIDs produced by the layer below (the transaction scheme's
// TABLE₀ ∘ R ∘ W ∘ T stacking). The merges share the consumer's batch — base
// writes every stable value into it once, whatever the depth — and the result
// numbers the rows with their RIDs.
//
// This is the one place that drops dead layers: nil and empty ones get no
// merge, so callers with optional layers — the transaction manager stacks a
// frozen maintenance layer only while a background fold or checkpoint is in
// flight, and a fresh transaction's Trans-PDT is empty — pass them
// unconditionally, and an image with nothing live above it reads as the bare
// scan. Either way the stack, under Numbered, is a pdt.Selector: the executor
// hands it the plan's filter chain — empty when the plan has no filter — each
// merge passes its runs of untouched rows down in one call per batch, and the
// stable scanner filters them on its encoded blocks. Emptiness is judged
// here, when the source is opened: a layer that gains its first entry under
// an open source stays invisible to it. A statement that writes while it
// scans must not rely on either outcome; that is what Txn.BeginQuery's
// private Query-PDT is for.
func StackPDTs(base pdt.Source, cols []int, startSID uint64, includeEnd bool, layers ...*pdt.PDT) pdt.BatchSource {
	src, sid := base, startSID
	for _, l := range layers {
		if l == nil || l.Empty() {
			continue
		}
		m := pdt.NewMergeScan(l, src, cols, sid, includeEnd)
		src, sid = m, m.StartRID()
	}
	return pdt.Numbered(src, sid)
}

// Concat chains sources end to end: rows flow from the first until it is
// exhausted, then the second, and so on. A sharded table scans as the
// concatenation of its shards' merged pipelines (each wrapped in OffsetRids so
// RIDs stay globally consecutive). Errors surface from whichever source is
// active. Every source must be a pdt.Selector, as every positional pipeline
// is, and so is the result: a morsel that also opens an empty shard's slot
// still filters in its scanners.
func Concat(srcs ...pdt.BatchSource) pdt.BatchSource {
	if len(srcs) == 1 {
		return srcs[0]
	}
	return &concat{srcs: srcs}
}

type concat struct {
	srcs []pdt.BatchSource
	cur  int
}

func (c *concat) Next(out *vector.Batch, max int) (int, error) {
	for ; c.cur < len(c.srcs); c.cur++ {
		if n, err := c.srcs[c.cur].Next(out, max); err != nil || n > 0 {
			return n, err
		}
	}
	return 0, nil
}

func (c *concat) Select(out *vector.Batch, max int, chain *vector.Chain, sel *vector.Selection) (int, error) {
	for ; c.cur < len(c.srcs); c.cur++ {
		if n, err := c.srcs[c.cur].(pdt.Selector).Select(out, max, chain, sel); err != nil || n > 0 {
			return n, err
		}
	}
	return 0, nil
}

// OffsetRids shifts every RID a source emits by off: shard i of a sharded
// table produces local RIDs starting at 0, and the coordinator re-bases them
// by the visible row counts of the shards before it so the concatenated scan
// emits one consecutive global RID space. src must be a pdt.Selector, and so
// is the result, so a shard's read still filters in its scanner; a Select
// shifts only the RIDs of the rows its selection keeps, the only ones
// written.
func OffsetRids(src pdt.BatchSource, off uint64) pdt.BatchSource {
	if off == 0 {
		return src
	}
	return &ridShift{src: src.(pdt.Selector), off: off}
}

type ridShift struct {
	src pdt.Selector
	off uint64
}

func (r *ridShift) Next(out *vector.Batch, max int) (int, error) {
	base := len(out.Rids)
	n, err := r.src.Next(out, max)
	r.shift(out.Rids[base:])
	return n, err
}

func (r *ridShift) Select(out *vector.Batch, max int, chain *vector.Chain, sel *vector.Selection) (int, error) {
	at, base := out.Len(), len(out.Rids)
	n, err := r.src.Select(out, max, chain, sel)
	if err != nil {
		return n, err
	}
	rids := out.Rids[base:]
	for _, i := range sel.Indexes() {
		rids[int(i)-at] += r.off
	}
	return n, nil
}

func (r *ridShift) shift(rids []uint64) {
	for i := range rids {
		rids[i] += r.off
	}
}
