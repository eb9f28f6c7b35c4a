// Package exec provides the small query-processing toolkit the TPC-H workload
// is written against: hash aggregation over the batches engine plans deliver,
// and the fixed-precision row rendering its results are compared by. It is
// deliberately minimal — the paper's subject is the scan/merge path, which
// package engine runs, and these helpers supply the "processing" side of each
// query.
package exec

import (
	"fmt"
	"sort"
	"strings"

	"pdtstore/internal/types"
)

// Agg is one accumulator cell.
type Agg struct {
	Count int64
	Sum   float64
	Min   float64
	Max   float64
}

// Add folds x into the cell.
func (a *Agg) Add(x float64) {
	if a.Count == 0 || x < a.Min {
		a.Min = x
	}
	if a.Count == 0 || x > a.Max {
		a.Max = x
	}
	a.Count++
	a.Sum += x
}

// Avg returns the running mean.
func (a *Agg) Avg() float64 {
	if a.Count == 0 {
		return 0
	}
	return a.Sum / float64(a.Count)
}

// Merge folds another cell into a, as if every value o accumulated had been
// Added to a directly: the combine step of a partitioned aggregation. Fold
// partial cells in partition order for a scheduling-independent result (the
// float sums accumulate in a fixed order then).
func (a *Agg) Merge(o Agg) {
	if o.Count == 0 {
		return
	}
	if a.Count == 0 || o.Min < a.Min {
		a.Min = o.Min
	}
	if a.Count == 0 || o.Max > a.Max {
		a.Max = o.Max
	}
	a.Count += o.Count
	a.Sum += o.Sum
}

// GroupAgg is a hash aggregation keyed by composite string keys, holding a
// fixed number of accumulator cells per group.
type GroupAgg struct {
	nAggs  int
	groups map[string]*groupState
}

type groupState struct {
	repr types.Row
	aggs []Agg
}

// NewGroupAgg creates an aggregation with nAggs cells per group.
func NewGroupAgg(nAggs int) *GroupAgg {
	return &GroupAgg{nAggs: nAggs, groups: map[string]*groupState{}}
}

// TouchKey returns the accumulator cells for the group whose composite key is
// key, creating it with the representative key row repr returns on first
// sight. The key may live in a reusable scratch buffer: the lookup allocates
// nothing (the compiler elides the string conversion), and the key is only
// copied when the group is first created — the zero-alloc per-row aggregation
// path the vectorized pipeline feeds.
func (g *GroupAgg) TouchKey(key []byte, repr func() types.Row) []Agg {
	st, ok := g.groups[string(key)]
	if !ok {
		st = &groupState{repr: repr(), aggs: make([]Agg, g.nAggs)}
		g.groups[string(key)] = st
	}
	return st.aggs
}

// Merge folds another aggregation's groups into g cell by cell — the combine
// step for per-partition GroupAggs built by a parallel scan. Groups absent
// from g adopt o's state (including its representative key row). Merging the
// partials in partition order makes the result independent of which worker
// processed which partition. o must not be used afterwards.
func (g *GroupAgg) Merge(o *GroupAgg) {
	for k, st := range o.groups {
		mine, ok := g.groups[k]
		if !ok {
			g.groups[k] = st
			continue
		}
		for i := range st.aggs {
			mine.aggs[i].Merge(st.aggs[i])
		}
	}
}

// Len returns the number of groups.
func (g *GroupAgg) Len() int { return len(g.groups) }

// Result is one output group.
type Result struct {
	Key  types.Row
	Aggs []Agg
}

// Results returns all groups, sorted by their representative key rows.
func (g *GroupAgg) Results() []Result {
	out := make([]Result, 0, len(g.groups))
	for _, st := range g.groups {
		out = append(out, Result{Key: st.repr, Aggs: st.aggs})
	}
	sort.Slice(out, func(i, j int) bool {
		return types.CompareRows(out[i].Key, out[j].Key) < 0
	})
	return out
}

// FormatRow renders a result row with fixed float precision, for the
// deterministic query fingerprints the cross-mode tests compare.
func FormatRow(vals ...interface{}) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case float64:
			parts[i] = fmt.Sprintf("%.2f", x)
		default:
			parts[i] = fmt.Sprint(x)
		}
	}
	return strings.Join(parts, "|")
}
