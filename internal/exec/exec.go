// Package exec provides the small vectorized query-processing toolkit the
// TPC-H workload is written against: hash aggregation, hash joins and
// ordering over the batches engine plans deliver. It is deliberately minimal —
// the paper's subject is the scan/merge path, which package engine runs, and
// these operators supply the "processing" side of each query in
// block-at-a-time style.
package exec

import (
	"fmt"
	"sort"
	"strings"

	"pdtstore/internal/types"
	"pdtstore/internal/vector"
)

// GroupKey builds a composite group key from values.
func GroupKey(vals ...types.Value) string {
	var sb strings.Builder
	for i, v := range vals {
		if i > 0 {
			sb.WriteByte(0)
		}
		sb.WriteString(v.String())
	}
	return sb.String()
}

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

// Touch returns the accumulator cells for a group, creating it with the
// given representative key row on first sight.
func (g *GroupAgg) Touch(key string, repr func() types.Row) []Agg {
	st, ok := g.groups[key]
	if !ok {
		st = &groupState{repr: repr(), aggs: make([]Agg, g.nAggs)}
		g.groups[key] = st
	}
	return st.aggs
}

// TouchKey is Touch for a byte-slice key built in a reusable scratch buffer:
// the lookup allocates nothing (the compiler elides the string conversion),
// and the key is only copied when the group is first created — the zero-alloc
// per-row aggregation path the vectorized pipeline feeds.
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

// IntJoinMap is a hash join build side keyed by int64 (the common TPC-H
// case: all join keys are integer surrogates).
type IntJoinMap struct {
	rows map[int64][]types.Row
}

// NewIntJoinMap builds a join map from the selected rows of a batch (sel nil
// means all rows): key column keyCol, payload the given columns.
func NewIntJoinMap(b *vector.Batch, sel []uint32, keyCol int, payloadCols []int) *IntJoinMap {
	n := b.Len()
	if sel != nil {
		n = len(sel)
	}
	m := NewEmptyIntJoinMap(n)
	m.AddBatch(b, sel, keyCol, payloadCols)
	return m
}

// NewEmptyIntJoinMap returns an empty build side sized for capHint rows, for
// incremental building with AddBatch — the per-worker partial state of a
// parallel join build.
func NewEmptyIntJoinMap(capHint int) *IntJoinMap {
	if capHint < 0 {
		capHint = 0
	}
	return &IntJoinMap{rows: make(map[int64][]types.Row, capHint)}
}

// AddBatch inserts the selected rows of a batch (sel nil means all rows):
// key column keyCol, payload the given columns.
func (m *IntJoinMap) AddBatch(b *vector.Batch, sel []uint32, keyCol int, payloadCols []int) {
	build := func(i int) {
		k := b.Vecs[keyCol].I[i]
		payload := make(types.Row, len(payloadCols))
		for j, c := range payloadCols {
			payload[j] = b.Vecs[c].Get(i)
		}
		m.rows[k] = append(m.rows[k], payload)
	}
	if sel != nil {
		for _, i := range sel {
			build(int(i))
		}
	} else {
		for i := 0; i < b.Len(); i++ {
			build(i)
		}
	}
}

// Merge folds another build side into m, appending o's payload rows after
// m's for shared keys — so merging per-partition maps in partition order
// reproduces the row order of a serial build. o must not be used afterwards.
func (m *IntJoinMap) Merge(o *IntJoinMap) {
	for k, rs := range o.rows {
		if mine, ok := m.rows[k]; ok {
			m.rows[k] = append(mine, rs...)
		} else {
			m.rows[k] = rs
		}
	}
}

// Probe returns the payload rows for key.
func (m *IntJoinMap) Probe(key int64) []types.Row { return m.rows[key] }

// ProbeOne returns the single payload row for key (unique joins).
func (m *IntJoinMap) ProbeOne(key int64) (types.Row, bool) {
	rs := m.rows[key]
	if len(rs) == 0 {
		return nil, false
	}
	return rs[0], true
}

// Len returns the number of distinct keys.
func (m *IntJoinMap) Len() int { return len(m.rows) }

// SortBatch returns the selected row indexes of b (sel nil means all rows)
// ordered by less. The input selection is not modified.
func SortBatch(b *vector.Batch, sel []uint32, less func(i, j uint32) bool) []uint32 {
	var idx []uint32
	if sel != nil {
		idx = append([]uint32(nil), sel...)
	} else {
		idx = make([]uint32, b.Len())
		for i := range idx {
			idx[i] = uint32(i)
		}
	}
	sort.SliceStable(idx, func(x, y int) bool { return less(idx[x], idx[y]) })
	return idx
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
