package vector

import (
	"slices"
	"strings"
	"sync"
)

// Selection is a reusable selection vector: the row indexes within a batch
// that survive filtering, in ascending order. Operators pass (batch, sel)
// pairs instead of materializing filtered copies — the MonetDB/X100 idiom the
// engine package is built around. Selections are pooled; hot paths obtain one
// with GetSelection and return it with PutSelection.
type Selection struct {
	idx []uint32
}

var selPool = sync.Pool{New: func() interface{} {
	return &Selection{idx: make([]uint32, 0, 1024)}
}}

// GetSelection fetches a cleared selection from the pool.
func GetSelection() *Selection {
	s := selPool.Get().(*Selection)
	s.idx = s.idx[:0]
	return s
}

// PutSelection returns a selection to the pool. The caller must not use it
// afterwards.
func PutSelection(s *Selection) { selPool.Put(s) }

// NewSelection returns an unpooled selection with the given capacity hint.
func NewSelection(capHint int) *Selection {
	return &Selection{idx: make([]uint32, 0, capHint)}
}

// Len returns the number of selected rows.
func (s *Selection) Len() int { return len(s.idx) }

// Indexes exposes the selected row indexes (valid until the next mutation).
func (s *Selection) Indexes() []uint32 { return s.idx }

// Reset empties the selection, keeping capacity.
func (s *Selection) Reset() { s.idx = s.idx[:0] }

// Append adds one row index (must keep ascending order).
func (s *Selection) Append(i uint32) { s.idx = append(s.idx, i) }

// AppendShifted appends i+shift, in uint32 arithmetic, for every i of idx:
// the rows of a run of offsets that land shift positions on. They must keep
// the selection ascending.
func (s *Selection) AppendShifted(idx []uint32, shift uint32) {
	n := len(s.idx)
	s.idx = slices.Grow(s.idx, len(idx))[:n+len(idx)]
	for k, i := range idx {
		s.idx[n+k] = i + shift
	}
}

// Search returns how many of the ascending, distinct rows s lie below x.
// At most x-s[0] do, and exactly that many when the rows run without a gap
// up to x, the common case of a dense selection: that count is tried first,
// then a binary search.
func Search(s []uint32, x uint32) int {
	if len(s) == 0 || s[0] >= x {
		return 0
	}
	if d := x - s[0]; uint64(d) < uint64(len(s)) {
		s = s[:d]
	}
	if s[len(s)-1] < x {
		return len(s)
	}
	lo, hi := 1, len(s)-1 // s[lo-1] < x <= s[hi]
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s[m] < x {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// Drop removes from s the rows of all that kept lacks, where kept is all
// narrowed by some filter and s holds every row of all. Nothing moves unless
// a row is dropped, and then only the rows from the first dropped one on.
func (s *Selection) Drop(all, kept []uint32) {
	for len(kept) > 0 && all[0] == kept[0] {
		all, kept = all[1:], kept[1:]
	}
	if len(all) == 0 {
		return
	}
	w := Search(s.idx, all[0])
	for _, x := range s.idx[w:] {
		if len(all) > 0 && all[0] == x {
			all = all[1:]
			if len(kept) == 0 || kept[0] != x {
				continue
			}
			kept = kept[1:]
		}
		s.idx[w] = x
		w++
	}
	s.idx = s.idx[:w]
}

// All resets the selection to the identity over n rows: 0..n-1.
func (s *Selection) All(n int) {
	if cap(s.idx) < n {
		s.idx = make([]uint32, n)
	} else {
		s.idx = s.idx[:n]
	}
	for i := range s.idx {
		s.idx[i] = uint32(i)
	}
}

// The Filter* kernels narrow the selection in place: each keeps only the
// selected rows whose value in v satisfies the predicate. They loop over the
// typed payload slices directly — no per-row closures, no boxing — and are
// the only filtering primitives the engine's hot paths use.

// FilterInt64Range keeps rows with lo <= v.I[i] <= hi (Int64/Date/Bool).
func (s *Selection) FilterInt64Range(v *Vector, lo, hi int64) {
	kept := s.idx[:0]
	col := v.I
	for _, i := range s.idx {
		if x := col[i]; x >= lo && x <= hi {
			kept = append(kept, i)
		}
	}
	s.idx = kept
}

// FilterFloat64Range keeps rows with lo <= v.F[i] <= hi.
func (s *Selection) FilterFloat64Range(v *Vector, lo, hi float64) {
	kept := s.idx[:0]
	col := v.F
	for _, i := range s.idx {
		if x := col[i]; x >= lo && x <= hi {
			kept = append(kept, i)
		}
	}
	s.idx = kept
}

// FilterFloat64Lt keeps rows with v.F[i] < hi.
func (s *Selection) FilterFloat64Lt(v *Vector, hi float64) {
	kept := s.idx[:0]
	col := v.F
	for _, i := range s.idx {
		if col[i] < hi {
			kept = append(kept, i)
		}
	}
	s.idx = kept
}

// FilterStrEq keeps rows with v.S[i] == x.
func (s *Selection) FilterStrEq(v *Vector, x string) {
	kept := s.idx[:0]
	col := v.S
	for _, i := range s.idx {
		if col[i] == x {
			kept = append(kept, i)
		}
	}
	s.idx = kept
}

// FilterStrIn keeps rows whose v.S[i] equals one of the given strings
// (linear membership test; intended for the small IN-lists of TPC-H).
func (s *Selection) FilterStrIn(v *Vector, set ...string) {
	kept := s.idx[:0]
	col := v.S
	for _, i := range s.idx {
		for _, w := range set {
			if col[i] == w {
				kept = append(kept, i)
				break
			}
		}
	}
	s.idx = kept
}

// FilterStrContains keeps rows whose v.S[i] contains sub.
func (s *Selection) FilterStrContains(v *Vector, sub string) {
	kept := s.idx[:0]
	col := v.S
	for _, i := range s.idx {
		if strings.Contains(col[i], sub) {
			kept = append(kept, i)
		}
	}
	s.idx = kept
}

// FilterStrPrefix keeps rows whose v.S[i] starts with prefix.
func (s *Selection) FilterStrPrefix(v *Vector, prefix string) {
	kept := s.idx[:0]
	col := v.S
	for _, i := range s.idx {
		x := col[i]
		if len(x) >= len(prefix) && x[:len(prefix)] == prefix {
			kept = append(kept, i)
		}
	}
	s.idx = kept
}
