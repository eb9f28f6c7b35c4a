// Package vector provides typed column vectors and row batches, the unit of
// block-at-a-time query processing used throughout the store (in the spirit
// of MonetDB/X100 vectorized execution, which the paper's MergeScan operator
// is built on).
package vector

import (
	"fmt"
	"slices"
	"sync"

	"pdtstore/internal/types"
)

// Vector is a typed column of values. Exactly one of the payload slices is
// in use, selected by Kind: I for Int64/Date/Bool, F for Float64, S for
// String. The payload fields are exported so hot loops can iterate natively
// typed data without interface boxing.
type Vector struct {
	Kind types.Kind
	I    []int64
	F    []float64
	S    []string
}

// New returns an empty vector of the given kind with room for capHint values.
func New(kind types.Kind, capHint int) *Vector {
	v := &Vector{Kind: kind}
	switch kind {
	case types.Int64, types.Date, types.Bool:
		v.I = make([]int64, 0, capHint)
	case types.Float64:
		v.F = make([]float64, 0, capHint)
	case types.String:
		v.S = make([]string, 0, capHint)
	default:
		panic(fmt.Sprintf("vector: unknown kind %v", kind))
	}
	return v
}

// Len returns the number of values in the vector.
func (v *Vector) Len() int {
	switch v.Kind {
	case types.Float64:
		return len(v.F)
	case types.String:
		return len(v.S)
	default:
		return len(v.I)
	}
}

// Reset truncates the vector to zero length, keeping capacity.
func (v *Vector) Reset() {
	v.I = v.I[:0]
	v.F = v.F[:0]
	v.S = v.S[:0]
}

// Append adds a single Value, which must match the vector's kind.
func (v *Vector) Append(val types.Value) {
	if val.K != v.Kind {
		panic(fmt.Sprintf("vector: appending %v to %v vector", val.K, v.Kind))
	}
	switch v.Kind {
	case types.Float64:
		v.F = append(v.F, val.F)
	case types.String:
		v.S = append(v.S, val.S)
	default:
		v.I = append(v.I, val.I)
	}
}

// Get returns the value at index i as a types.Value.
func (v *Vector) Get(i int) types.Value {
	switch v.Kind {
	case types.Float64:
		return types.Value{K: v.Kind, F: v.F[i]}
	case types.String:
		return types.Value{K: v.Kind, S: v.S[i]}
	default:
		return types.Value{K: v.Kind, I: v.I[i]}
	}
}

// Set overwrites the value at index i, which must match the vector's kind.
func (v *Vector) Set(i int, val types.Value) {
	if val.K != v.Kind {
		panic(fmt.Sprintf("vector: setting %v into %v vector", val.K, v.Kind))
	}
	switch v.Kind {
	case types.Float64:
		v.F[i] = val.F
	case types.String:
		v.S[i] = val.S
	default:
		v.I[i] = val.I
	}
}

// Extend lengthens the vector by n values, keeping capacity where it can, and
// leaves them unspecified (whatever the backing array held): for a writer
// that then fills only some of them, at the positions a selection kept.
func (v *Vector) Extend(n int) {
	switch v.Kind {
	case types.Float64:
		v.F = slices.Grow(v.F, n)[:len(v.F)+n]
	case types.String:
		v.S = slices.Grow(v.S, n)[:len(v.S)+n]
	default:
		v.I = slices.Grow(v.I, n)[:len(v.I)+n]
	}
}

// AppendRange appends src[from:to] to v. Both vectors must share a kind.
func (v *Vector) AppendRange(src *Vector, from, to int) {
	if src.Kind != v.Kind {
		panic("vector: AppendRange kind mismatch")
	}
	switch v.Kind {
	case types.Float64:
		v.F = append(v.F, src.F[from:to]...)
	case types.String:
		v.S = append(v.S, src.S[from:to]...)
	default:
		v.I = append(v.I, src.I[from:to]...)
	}
}

// AppendSelected appends src's values at the selected row indexes (a gather:
// the compaction step of selection-vector pipelines). Both vectors must share
// a kind.
func (v *Vector) AppendSelected(src *Vector, sel []uint32) {
	if src.Kind != v.Kind {
		panic("vector: AppendSelected kind mismatch")
	}
	switch v.Kind {
	case types.Float64:
		for _, i := range sel {
			v.F = append(v.F, src.F[i])
		}
	case types.String:
		for _, i := range sel {
			v.S = append(v.S, src.S[i])
		}
	default:
		for _, i := range sel {
			v.I = append(v.I, src.I[i])
		}
	}
}

// Batch is a set of equal-length column vectors plus an optional RID column.
// It is the unit that flows between scan, merge, and query operators.
type Batch struct {
	Vecs []*Vector
	Rids []uint64
}

// NewBatch allocates a batch with one vector per kind and the given capacity
// hint per vector.
func NewBatch(kinds []types.Kind, capHint int) *Batch {
	b := &Batch{Vecs: make([]*Vector, len(kinds)), Rids: make([]uint64, 0, capHint)}
	for i, k := range kinds {
		b.Vecs[i] = New(k, capHint)
	}
	return b
}

// Len returns the number of rows in the batch.
func (b *Batch) Len() int {
	if len(b.Vecs) == 0 {
		return len(b.Rids)
	}
	return b.Vecs[0].Len()
}

// Reset truncates all vectors (and RIDs) to zero length.
func (b *Batch) Reset() {
	for _, v := range b.Vecs {
		v.Reset()
	}
	b.Rids = b.Rids[:0]
}

// Extend lengthens every vector by n unspecified values (Vector.Extend).
func (b *Batch) Extend(n int) {
	for _, v := range b.Vecs {
		v.Extend(n)
	}
}

// AppendRow appends one row; r must have one value per vector, kind-aligned.
func (b *Batch) AppendRow(r types.Row) {
	if len(r) != len(b.Vecs) {
		panic(fmt.Sprintf("vector: row arity %d, batch arity %d", len(r), len(b.Vecs)))
	}
	for i, v := range b.Vecs {
		v.Append(r[i])
	}
}

// Row materializes row i as a types.Row (allocates; use typed access in hot
// paths).
func (b *Batch) Row(i int) types.Row {
	r := make(types.Row, len(b.Vecs))
	for c, v := range b.Vecs {
		r[c] = v.Get(i)
	}
	return r
}

// CompareKey orders key against row i of the batch, reading key[j] from
// column cols[j] (nil means key[j] from column j). Unlike Row+CompareRows it
// materializes nothing — the comparison point probes run per visited row.
func (b *Batch) CompareKey(key types.Row, cols []int, i int) int {
	for j := range key {
		c := j
		if cols != nil {
			c = cols[j]
		}
		if cmp := types.Compare(key[j], b.Vecs[c].Get(i)); cmp != 0 {
			return cmp
		}
	}
	return 0
}

// Kinds returns the kind of each column vector.
func (b *Batch) Kinds() []types.Kind {
	out := make([]types.Kind, len(b.Vecs))
	for i, v := range b.Vecs {
		out[i] = v.Kind
	}
	return out
}

// BatchPool recycles equally-shaped batches. It wraps a sync.Pool, whose
// free lists are sharded per P, so the parallel scan engine's workers get
// and put scratch batches concurrently without sharing a lock — and batches
// (with their grown vector capacities) survive across plan executions.
type BatchPool struct {
	kinds   []types.Kind
	capHint int
	pool    sync.Pool
}

// NewBatchPool returns a pool producing batches of the given kinds with the
// given initial capacity per vector.
func NewBatchPool(kinds []types.Kind, capHint int) *BatchPool {
	p := &BatchPool{kinds: append([]types.Kind(nil), kinds...), capHint: capHint}
	p.pool.New = func() interface{} { return NewBatch(p.kinds, p.capHint) }
	return p
}

// Get fetches an empty batch from the pool.
func (p *BatchPool) Get() *Batch {
	b := p.pool.Get().(*Batch)
	b.Reset()
	return b
}

// Put returns a batch to the pool. The caller must not use it afterwards.
func (p *BatchPool) Put(b *Batch) { p.pool.Put(b) }
