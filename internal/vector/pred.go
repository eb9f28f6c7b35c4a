package vector

// PredOp enumerates the predicate shapes a filter can take. Every shape has a
// kernel (Selection.Filter), an encoded-block evaluation (package compress)
// and, except substring containment, a zone-map or index answer.
type PredOp uint8

const (
	// PredNone marks a predicate with no description; it keeps every row.
	PredNone PredOp = iota
	// PredInt64Range keeps ILo <= v <= IHi (Int64/Date/Bool columns).
	PredInt64Range
	// PredFloat64Range keeps FLo <= v <= FHi.
	PredFloat64Range
	// PredFloat64Lt keeps v < FHi (strict).
	PredFloat64Lt
	// PredStrEq keeps v == Strs[0].
	PredStrEq
	// PredStrIn keeps v ∈ Strs.
	PredStrIn
	// PredStrPrefix keeps v with prefix Strs[0].
	PredStrPrefix
	// PredStrContains keeps v containing Strs[0]. No zone map or index
	// summary can answer it, so it never prunes a block.
	PredStrContains
)

// Pred is the declarative form of one typed filter: what its kernel keeps,
// stated so that a zone map or index summary can prove "no row of this block
// qualifies" and an encoded block can be tested without decoding it. The arm
// named by Op is populated.
type Pred struct {
	Col      int
	Op       PredOp
	ILo, IHi int64
	FLo, FHi float64
	Strs     []string
	// Eq marks an exact-match predicate (FilterInt64Eq, FilterStrEq) — the
	// shape a hash/bloom index summary can answer even when a range cannot.
	Eq bool
}

// Filter binds one predicate of a plan's filter chain to the batch slot
// holding the column it reads.
type Filter struct {
	Slot int
	Pred Pred
}

// Chain is a plan's filter chain as its source sees it: the filters in the
// order they narrow the selection, and how many leading batch slots the
// consumer reads. The slots after Outputs hold columns only the filters read.
type Chain struct {
	Filters []Filter
	Outputs int
}

// Run places a stretch of a source's rows in a batch: the source passes over
// Skip rows, then its next N rows land at batch positions At, At+1, ... A
// merge describes the rows it passes through untouched as runs, and its
// source reads them (pdt.Source); a bare read is one run.
type Run struct {
	Skip, N, At int
}

// Apply narrows sel through every filter of the chain in order, reading each
// filter's slot of b.
func (c *Chain) Apply(b *Batch, sel *Selection) {
	for _, f := range c.Filters {
		if sel.Len() == 0 {
			return
		}
		sel.Filter(b.Vecs[f.Slot], f.Pred)
	}
}

// Filter narrows the selection to the rows whose value in v satisfies p,
// through the typed kernel for p's shape. PredNone keeps every row.
func (s *Selection) Filter(v *Vector, p Pred) {
	switch p.Op {
	case PredInt64Range:
		s.FilterInt64Range(v, p.ILo, p.IHi)
	case PredFloat64Range:
		s.FilterFloat64Range(v, p.FLo, p.FHi)
	case PredFloat64Lt:
		s.FilterFloat64Lt(v, p.FHi)
	case PredStrEq:
		s.FilterStrEq(v, p.Strs[0])
	case PredStrIn:
		s.FilterStrIn(v, p.Strs...)
	case PredStrPrefix:
		s.FilterStrPrefix(v, p.Strs[0])
	case PredStrContains:
		s.FilterStrContains(v, p.Strs[0])
	}
}
