package engine

// Pre-scan block pruning: the access-path half of the plan. Every filter is
// a Pred — a declarative description of what it keeps — and a partitionable
// relation may expose a Prune hook that resolves those
// predicates against per-block zone maps and secondary-index summaries
// BEFORE any block is fetched. The result is the subset of the scan's
// stable-SID range that can still hold qualifying rows; morselization then
// covers only that subset, so no worker ever opens a pruned block. Pruning is
// a per-plan matter: Plan.NoPrune opts one plan out (the differential suites
// run every query both ways), and there is no process-wide switch.
//
// Pruning under a PDT layer stack must respect pending updates: a block the
// frozen or in-flight PDTs touch (insert, delete or in-place modify) may
// hold rows whose current values differ from the stable image the stats
// describe, so dirty blocks are never pruned. PruneBlocks finds them by
// position (dirtyBlocks): each block boundary of the scan's range is carried
// up through the pinned layers by the same carried-shift descent a morsel
// open uses, and a layer dirties a block when its first entry at or after the
// block's start lies before the block's end — O(log n) per boundary and layer,
// so the pass costs what the range spans, whatever the deltas hold elsewhere.
// That is also what keeps index reads snapshot-consistent: the per-block
// summaries are built over the stable image at fold/checkpoint time, and any
// block whose image the snapshot's unfolded deltas would patch is scanned,
// not probed. Blocks in the shifted region whose values are untouched remain
// prunable: morsel opens seek each layer cursor to the morsel's start SID
// carrying the running shift, so RIDs stay exact across skipped ranges.

import (
	"strings"

	"pdtstore/internal/colstore"
	"pdtstore/internal/pdt"
	"pdtstore/internal/storage"
	"pdtstore/internal/vector"
)

// PredOp is a filter's predicate shape. It is declared beside the kernels in
// package vector, below the stable scanner that evaluates predicates on
// encoded blocks; the names here are the ones the index package and plans
// use.
type PredOp = vector.PredOp

// The predicate shapes (see vector.PredOp).
const (
	PredNone         = vector.PredNone
	PredInt64Range   = vector.PredInt64Range
	PredFloat64Range = vector.PredFloat64Range
	PredFloat64Lt    = vector.PredFloat64Lt
	PredStrEq        = vector.PredStrEq
	PredStrIn        = vector.PredStrIn
	PredStrPrefix    = vector.PredStrPrefix
	PredStrContains  = vector.PredStrContains
)

// Pred is the declarative form of one typed filter (see vector.Pred): what
// the kernel keeps, which a zone map or index summary can answer per block.
type Pred = vector.Pred

// SIDRange is one kept contiguous stable-SID sub-range of a pruned scan.
type SIDRange struct{ Lo, Hi uint64 }

// PruneResult is the outcome of a pre-scan pruning pass: the kept sub-ranges
// (ascending, disjoint, block-aligned except at the scan's own bounds),
// block accounting, and which structure proved each skipped block
// irrelevant. Kept == Total means nothing was pruned; the plan reads its one
// whole range.
type PruneResult struct {
	Ranges     []SIDRange
	Total      int // blocks the unpruned scan would touch
	Kept       int
	ZoneSkips  int // blocks excluded by zone-map min/max
	IndexSkips int // blocks excluded by a secondary-index probe
}

// IndexProber is the narrow interface through which the engine consults a
// secondary-index set (package index implements it; the engine never imports
// it — the store carries the set as an opaque sidecar). CanSkip reports
// whether logical block blk of pred.Col provably holds no value satisfying
// pred; indexed=false means the index has no opinion (column not indexed, or
// predicate shape not answerable).
type IndexProber interface {
	CanSkip(pred Pred, blk int) (skip, indexed bool)
}

// PruneFunc builds a PartScan.Prune hook over one store and the PDT layer
// stack pinned by the scan's snapshot (bottom-to-top; nil and empty layers
// are skipped). lo/hi are the PartScan's stable-SID bounds. Skipped blocks
// are counted on the store's device (Device.SkipStats).
func PruneFunc(store *colstore.Store, lo, hi uint64, layers ...*pdt.PDT) func(preds []Pred) *PruneResult {
	return func(preds []Pred) *PruneResult {
		return PruneBlocks(store, lo, hi, preds, layers...)
	}
}

// PruneBlocks resolves preds against store's zone maps and index sidecar for
// the stable range [lo, hi), never pruning a block the layer stack dirties.
// It returns nil when pruning does not apply (empty range or no predicates):
// in particular an empty stable range can still produce rows from delta-layer
// inserts, so it is never pruned away.
func PruneBlocks(store *colstore.Store, lo, hi uint64, preds []Pred, layers ...*pdt.PDT) *PruneResult {
	if hi <= lo || len(preds) == 0 {
		return nil
	}
	prober, _ := store.Aux().(IndexProber)
	br := uint64(store.BlockRows())
	b0, b1 := lo/br, (hi-1)/br
	dirtyBlk := dirtyBlocks(br, lo, hi, layers)
	res := &PruneResult{Total: int(b1 - b0 + 1)}
	var zoneSkips, indexSkips int
	for b := b0; b <= b1; b++ {
		blkLo, blkHi := b*br, (b+1)*br
		if blkHi > hi {
			blkHi = hi
		}
		dirty := dirtyBlk[b-b0]
		keep := true
		if !dirty {
			for _, pr := range preds {
				if z, ok := store.Zone(pr.Col, int(b)); ok && zoneExcludes(z, pr) {
					zoneSkips++
					keep = false
					break
				}
				if prober != nil {
					if skip, indexed := prober.CanSkip(pr, int(b)); indexed && skip {
						indexSkips++
						keep = false
						break
					}
				}
			}
		}
		if !keep {
			continue
		}
		res.Kept++
		rlo := blkLo
		if rlo < lo {
			rlo = lo
		}
		if n := len(res.Ranges); n > 0 && res.Ranges[n-1].Hi == rlo {
			res.Ranges[n-1].Hi = blkHi
		} else {
			res.Ranges = append(res.Ranges, SIDRange{Lo: rlo, Hi: blkHi})
		}
	}
	res.ZoneSkips, res.IndexSkips = zoneSkips, indexSkips
	store.Device().CountSkips(uint64(zoneSkips), uint64(indexSkips))
	return res
}

// dirtyBlocks reports, for each block overlapping the stable range [lo, hi),
// whether any layer of the stack (bottom-to-top; nil and empty layers are
// skipped) holds an update that lands in it. The range's final block also
// owns entries sitting exactly on hi: appends land there, and only the scan's
// last morsel emits them.
//
// bounds holds the block boundaries in the current layer's SID domain. A
// layer dirties block j when it has an entry in [bounds[j], bounds[j+1]);
// SeekSid answers that and maps the boundary into the next layer's domain in
// one descent. The mapping sends a boundary to the first output position at
// or after it, so an upper-layer entry can only be attributed to a later
// block than the one a fold would put it in when it sits next to a ghost of
// this layer — whose own delete entry already dirtied the earlier block. The
// result is therefore a superset of the folded stack's dirty set.
func dirtyBlocks(br, lo, hi uint64, layers []*pdt.PDT) []bool {
	b0 := lo / br
	nb := int((hi-1)/br - b0 + 1)
	dirty := make([]bool, nb)
	bounds := make([]uint64, nb+1)
	for j := range bounds {
		bounds[j] = min(max((b0+uint64(j))*br, lo), hi)
	}
	for _, l := range layers {
		if l == nil || l.Empty() {
			continue
		}
		rid, next, ok := l.SeekSid(bounds[0])
		for j := 0; j < nb; j++ {
			end := bounds[j+1]
			if ok && (next < end || (next == end && j == nb-1)) {
				dirty[j] = true
			}
			bounds[j] = rid
			rid, next, ok = l.SeekSid(end)
		}
		bounds[nb] = rid
	}
	return dirty
}

// zoneExcludes reports whether the zone proves no value of the block can
// satisfy p. Kind mismatches (a pred over a column whose zone holds another
// arm, or ZoneNone) never exclude.
func zoneExcludes(z storage.Zone, p Pred) bool {
	switch p.Op {
	case PredInt64Range:
		return z.Kind == storage.ZoneInt && (p.IHi < z.MinI || p.ILo > z.MaxI)
	case PredFloat64Range:
		return z.Kind == storage.ZoneFloat && (p.FHi < z.MinF || p.FLo > z.MaxF)
	case PredFloat64Lt:
		return z.Kind == storage.ZoneFloat && p.FHi <= z.MinF
	case PredStrEq:
		return z.Kind == storage.ZoneString && strOutsideZone(z, p.Strs[0])
	case PredStrIn:
		if z.Kind != storage.ZoneString {
			return false
		}
		for _, s := range p.Strs {
			if !strOutsideZone(z, s) {
				return false
			}
		}
		return true
	case PredStrPrefix:
		if z.Kind != storage.ZoneString {
			return false
		}
		pre := p.Strs[0]
		// Strings with prefix pre all sort >= pre, and the block's true max
		// is provably < pre when the stored max (or, truncated, every string
		// extending it) sorts below pre. Symmetrically for the min side.
		if strAboveBlockMax(z, pre) {
			return true
		}
		return z.MinS > pre && !strings.HasPrefix(z.MinS, pre)
	}
	return false
}

// strOutsideZone reports that x cannot occur in the block: every block value
// is provably < x or provably > x.
func strOutsideZone(z storage.Zone, x string) bool {
	return strAboveBlockMax(z, x) || z.MinS > x
}

// strAboveBlockMax reports that every string in the block is < x. With an
// untruncated max that is MaxS < x. A truncated MaxS is a prefix of the true
// max, so additionally x must not extend MaxS — if it does, the true max
// could still reach x.
func strAboveBlockMax(z storage.Zone, x string) bool {
	if !(z.MaxS < x) {
		return false
	}
	return !z.MaxSTrunc || !strings.HasPrefix(x, z.MaxS)
}
