// Package engine owns the end-to-end read pipeline of the store: source
// (stable colstore scan, MergeScan over a stack of PDTs, or a value-based VDT
// merge) → filter → project → sink. Every consumer — the table layer, the
// transaction layer's stacked snapshots, the TPC-H queries and the benchmark
// harness — builds its scans here, so there is exactly one place that knows
// how to assemble the paper's merge pipelines (Algorithm 2 and Equation 9)
// and one place execution strategy lives: every plan resolves to stable-SID
// ranges cut into block-aligned morsels, and one executor (parallel.go) walks
// them with one pipeline loop — on several goroutines over a shared morsel
// queue when the scan is large or Plan.Parallel says so, inline on the
// caller's goroutine otherwise. Run, Collect and RunPartitioned below are
// three sinks over that executor: ordered delivery, per-worker output
// stitched in morsel order, and morsel-tagged delivery for partial states
// merged in morsel order.
//
// The pipeline is vectorized in the MonetDB/X100 style the paper assumes:
// batches of typed column vectors flow block-at-a-time, predicates run as
// typed comparison kernels that narrow a reusable selection vector (package
// vector), and column projection is pushed down so the stable image only
// decodes the blocks a query touches.
//
// The predicates run in the stable scanner, under however many PDT layers
// lie above it. Every positional read pipeline — the bare scanner, or a stack
// of merges over it — is a pdt.Selector, so pipe.pump hands it the plan's
// filter chain: each merge walks its entries by position and hands the
// scanner the batch's runs of untouched rows in one call
// (colstore.Scanner.SelectRuns), which runs the first filter on the encoded
// block, each later one on its column gathered at the rows still selected,
// and gathers the projected columns at the final survivors only (decoding
// them whole where nearly every row survives). A merge
// filters just the rows it writes itself — its inserts and the rows it
// patches — with the same kernels. A plan without filters is the same read
// with an empty chain, and so is a source's Next: there is one positional
// read path. Only the value-based VDT merge, which must see every row, is
// read whole through Next and filtered after it. Either way every vector of a
// batch keeps the batch's length, and its values at rows the selection leaves
// out are unspecified.
package engine

import (
	"errors"
	"fmt"
	"math"

	"pdtstore/internal/pdt"
	"pdtstore/internal/types"
	"pdtstore/internal/vector"
)

// DefaultBatchSize is the number of rows per pipeline batch when the plan
// does not override it.
const DefaultBatchSize = 1024

// Relation is anything that can produce a positional, RID-emitting batch
// source for a column projection and sort-key range: table.Table, txn.Txn and
// txn.Query all satisfy it, which is how one plan API serves all three delta
// modes and arbitrary PDT layer stacks.
type Relation interface {
	Schema() *types.Schema
	Scan(cols []int, loKey, hiKey types.Row) (pdt.BatchSource, error)
}

// Stop is returned by a sink callback to end a Run early without error.
var Stop = errors.New("engine: stop iteration")

// Plan is a buildable scan pipeline over one relation. Zero or more typed
// filters narrow a selection vector per batch; the sink sees (batch, sel)
// pairs and never a per-row closure. Filter columns that the caller does not
// project are still scanned (appended after the projected columns) but are
// dropped again at the sink boundary by Collect.
type Plan struct {
	rel       Relation
	outCols   []int
	loKey     types.Row
	hiKey     types.Row
	filters   []Pred // in the order they narrow the selection; Col is the schema column
	batchSize int
	needRids  bool
	workers   int  // 0 = auto, 1 = caller's goroutine, n > 1 = forced (see Parallel)
	noPrune   bool // see NoPrune
}

// Scan starts a plan producing the given schema columns of rel.
func Scan(rel Relation, cols ...int) *Plan {
	return &Plan{rel: rel, outCols: cols, batchSize: DefaultBatchSize}
}

// Range restricts the scan to sort keys in [loKey, hiKey] through the sparse
// index. Bounds may be nil (open) or prefixes of the sort key; the underlying
// range is conservative (partial blocks), so pair Range with an exact filter
// when the query needs a sharp edge.
func (p *Plan) Range(loKey, hiKey types.Row) *Plan {
	p.loKey, p.hiKey = loKey, hiKey
	return p
}

// BatchSize overrides the rows-per-batch granularity of the pipeline.
func (p *Plan) BatchSize(n int) *Plan {
	if n > 0 {
		p.batchSize = n
	}
	return p
}

// WithRids asks Collect to fill out.Rids with the RIDs of the rows it
// returns. A Run batch carries RIDs either way when its source emits them,
// and, like its values, they are those of the rows sel names: a pipeline
// that filters as it reads writes none anywhere else.
func (p *Plan) WithRids() *Plan {
	p.needRids = true
	return p
}

// NoPrune disables pre-scan block pruning for this plan only: every block of
// the range is scanned and filtered by the kernels, whatever the zone maps
// and indexes say. The differential suites run each query both ways and
// assert identical output; it is also the honest baseline side of the
// benchmark's lookup figure.
func (p *Plan) NoPrune() *Plan {
	p.noPrune = true
	return p
}

func (p *Plan) addFilter(col int, pred Pred) *Plan {
	pred.Col = col
	p.filters = append(p.filters, pred)
	return p
}

// FilterInt64Range keeps rows with lo <= col <= hi (Int64/Date/Bool columns).
func (p *Plan) FilterInt64Range(col int, lo, hi int64) *Plan {
	return p.addFilter(col, Pred{Op: PredInt64Range, ILo: lo, IHi: hi})
}

// FilterInt64Le keeps rows with col <= hi.
func (p *Plan) FilterInt64Le(col int, hi int64) *Plan {
	return p.addFilter(col, Pred{Op: PredInt64Range, ILo: math.MinInt64, IHi: hi})
}

// FilterInt64Ge keeps rows with col >= lo.
func (p *Plan) FilterInt64Ge(col int, lo int64) *Plan {
	return p.addFilter(col, Pred{Op: PredInt64Range, ILo: lo, IHi: math.MaxInt64})
}

// FilterInt64Eq keeps rows with col == x.
func (p *Plan) FilterInt64Eq(col int, x int64) *Plan {
	return p.addFilter(col, Pred{Op: PredInt64Range, ILo: x, IHi: x, Eq: true})
}

// FilterFloat64Range keeps rows with lo <= col <= hi.
func (p *Plan) FilterFloat64Range(col int, lo, hi float64) *Plan {
	return p.addFilter(col, Pred{Op: PredFloat64Range, FLo: lo, FHi: hi})
}

// FilterFloat64Lt keeps rows with col < hi.
func (p *Plan) FilterFloat64Lt(col int, hi float64) *Plan {
	return p.addFilter(col, Pred{Op: PredFloat64Lt, FLo: math.Inf(-1), FHi: hi})
}

// FilterStrEq keeps rows with col == x.
func (p *Plan) FilterStrEq(col int, x string) *Plan {
	return p.addFilter(col, Pred{Op: PredStrEq, Strs: []string{x}, Eq: true})
}

// FilterStrIn keeps rows whose col equals one of the given strings. The plan
// keeps its own copy of set: a caller may reuse the slice afterwards.
func (p *Plan) FilterStrIn(col int, set ...string) *Plan {
	return p.addFilter(col, Pred{Op: PredStrIn, Strs: append([]string(nil), set...)})
}

// FilterStrPrefix keeps rows whose col starts with prefix.
func (p *Plan) FilterStrPrefix(col int, prefix string) *Plan {
	return p.addFilter(col, Pred{Op: PredStrPrefix, Strs: []string{prefix}})
}

// FilterStrContains keeps rows whose col contains sub. Substring containment
// has no zone-map or index description, so this filter never prunes blocks.
func (p *Plan) FilterStrContains(col int, sub string) *Plan {
	return p.addFilter(col, Pred{Op: PredStrContains, Strs: []string{sub}})
}

// analyzed is the relation-independent part of a plan: the scan column set
// (projected columns first, then filter-only columns), the batch kinds, and
// the filter chain bound to batch slots. Every worker pipeline of an
// execution shares one analysis.
type analyzed struct {
	scanCols []int
	kinds    []types.Kind
	chain    vector.Chain
}

func (p *Plan) analyze() (*analyzed, error) {
	if p.rel == nil {
		return nil, fmt.Errorf("engine: plan has no relation")
	}
	schema := p.rel.Schema()
	scanCols := append([]int(nil), p.outCols...)
	chain := vector.Chain{Filters: make([]vector.Filter, len(p.filters)), Outputs: len(p.outCols)}
	for i, f := range p.filters {
		slot := -1
		for j, c := range scanCols {
			if c == f.Col {
				slot = j
				break
			}
		}
		if slot < 0 {
			// Filter on an unprojected column: push it into the scan anyway
			// (read for filtering, dropped at the sink boundary).
			slot = len(scanCols)
			scanCols = append(scanCols, f.Col)
		}
		chain.Filters[i] = vector.Filter{Slot: slot, Pred: f}
	}
	for _, c := range scanCols {
		if c < 0 || c >= schema.NumCols() {
			return nil, fmt.Errorf("engine: column %d out of range (schema has %d columns)", c, schema.NumCols())
		}
	}
	kinds := make([]types.Kind, len(scanCols))
	for i, c := range scanCols {
		kinds[i] = schema.Cols[c].Kind
	}
	return &analyzed{scanCols: scanCols, kinds: kinds, chain: chain}, nil
}

// Run streams the pipeline into fn: the ordered sink. Each call hands fn the
// current batch (the plan's projected columns first, in order, then any
// filter-only columns) and the selection of qualifying row indexes. Only the
// projected columns' values at selected rows are defined: a value at a row
// the selection leaves out, and any value of a filter-only column, is
// unspecified. The batch and selection are reused across calls; fn must not
// retain them. Returning Stop from fn ends the run without error. Batches
// where every row is filtered out never reach fn.
//
// fn always runs on the caller's goroutine and sees the rows in scan order.
// With one worker it is the executor's emit callback itself; with several
// the workers hand their batches to a delivery loop that releases them in
// morsel order (runOrdered), so a sink that folds rows sequentially sees the
// same stream either way — only the batch boundaries move.
func (p *Plan) Run(fn func(b *vector.Batch, sel []uint32) error) error {
	ap, err := p.resolveAccess()
	if err != nil {
		return err
	}
	if ap.workers > 1 {
		return ap.runOrdered(fn)
	}
	return ap.pumpAll(func(pp *pipe, _ int) error { return fn(pp.b, pp.sel.Indexes()) })
}

// RunPartitioned streams the pipeline like Run, but tags every (batch, sel)
// pair with the index of the part it came from instead of imposing a global
// order: the unordered sink. A part is a morsel — the part count is always
// the execution's morsel count, whatever the worker count — so parts are
// processed concurrently when there are several workers, each part by
// exactly one worker, and within a part batches arrive in row order. start
// runs once, before any fn call, with the part count, so the caller can
// allocate per-part state up front; folding those partial states together in
// part order after RunPartitioned returns yields a result independent of how
// parts were scheduled — the deterministic combine step parallel
// aggregations need. fn may be called concurrently for different parts,
// never for the same one; returning Stop ends the whole run without error.
// fn sees batches as Run's does: only the projected columns' values at
// selected rows are defined.
func (p *Plan) RunPartitioned(start func(parts int) error, fn func(part int, b *vector.Batch, sel []uint32) error) error {
	ap, err := p.resolveAccess()
	if err != nil {
		return err
	}
	if err := start(len(ap.morsels)); err != nil {
		return err
	}
	return ap.pumpAll(func(pp *pipe, part int) error { return fn(part, pp.b, pp.sel.Indexes()) })
}

// Collect drains the pipeline into one dense batch holding exactly the
// projected columns (filter-only columns are projected away): the
// materializing sink. It copies the selected rows only, so the unspecified
// values a pipeline batch holds at unselected rows never reach it. RIDs are
// carried through when WithRids was set. Each worker appends its morsels'
// survivors to a private output batch, pre-sized from the morsel widths, and
// records one segment per morsel; stitching the segments in morsel order
// reproduces the scan order exactly, whatever the worker count. With one
// worker its output already is that order, and is returned as it stands.
func (p *Plan) Collect() (*vector.Batch, error) {
	ap, err := p.resolveAccess()
	if err != nil {
		return nil, err
	}
	outKinds := ap.a.kinds[:len(p.outCols)]
	width := 0
	for _, m := range ap.morsels {
		width += int(m.hi - m.lo)
	}
	hint := width / ap.workers
	if hint == 0 {
		hint = p.batchSize
	}
	outs := make([]*vector.Batch, ap.workers)
	for w := range outs {
		outs[w] = vector.NewBatch(outKinds, hint)
	}
	type seg struct {
		worker       int
		start, end   int
		rstart, rend int
	}
	segs := make([]seg, len(ap.morsels))
	// With no filter and no filter-only column a morsel's rows are the output
	// rows: the source decodes straight into the worker's output batch.
	direct := len(p.filters) == 0 && len(ap.a.scanCols) == len(p.outCols)
	project := func(pp *pipe, _ int) error {
		out, idx := outs[pp.worker], pp.sel.Indexes()
		for i, v := range out.Vecs {
			v.AppendSelected(pp.b.Vecs[i], idx)
		}
		if p.needRids && len(pp.b.Rids) > 0 {
			for _, ri := range idx {
				out.Rids = append(out.Rids, pp.b.Rids[ri])
			}
		}
		return nil
	}
	err = ap.execute(func(pp *pipe, mi int, src pdt.BatchSource) error {
		out := outs[pp.worker]
		s := seg{worker: pp.worker, start: out.Len(), rstart: len(out.Rids)}
		var err error
		if direct {
			for n := 1; n > 0 && err == nil; {
				n, err = src.Next(out, p.batchSize)
			}
			if !p.needRids {
				out.Rids = out.Rids[:s.rstart]
			}
		} else {
			err = pp.pump(src, mi, project)
		}
		s.end, s.rend = out.Len(), len(out.Rids)
		segs[mi] = s
		return err
	})
	if err != nil {
		return nil, err
	}
	if ap.workers == 1 {
		return outs[0], nil
	}
	// Stitch: each morsel was fully processed by exactly one worker, so
	// concatenating the segments in morsel order restores the scan order.
	total := 0
	for _, s := range segs {
		total += s.end - s.start
	}
	final := vector.NewBatch(outKinds, total)
	for _, s := range segs {
		src := outs[s.worker]
		for i, v := range final.Vecs {
			v.AppendRange(src.Vecs[i], s.start, s.end)
		}
		final.Rids = append(final.Rids, src.Rids[s.rstart:s.rend]...)
	}
	return final, nil
}
