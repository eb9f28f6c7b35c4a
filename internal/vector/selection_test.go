package vector

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"pdtstore/internal/types"
)

func intVec(vals ...int64) *Vector {
	v := New(types.Int64, len(vals))
	v.I = append(v.I, vals...)
	return v
}

func TestSelectionAllAndReset(t *testing.T) {
	s := NewSelection(4)
	s.All(5)
	if s.Len() != 5 || s.Indexes()[0] != 0 || s.Indexes()[4] != 4 {
		t.Fatalf("All(5) = %v", s.Indexes())
	}
	s.Reset()
	if s.Len() != 0 {
		t.Fatal("Reset did not clear")
	}
	s.All(0)
	if s.Len() != 0 {
		t.Fatal("All(0) must select nothing")
	}
}

func TestSelectionPoolReuse(t *testing.T) {
	s := GetSelection()
	s.Append(7)
	PutSelection(s)
	s2 := GetSelection()
	if s2.Len() != 0 {
		t.Fatal("pooled selection not cleared")
	}
	PutSelection(s2)
}

func TestFilterInt64Kernels(t *testing.T) {
	v := intVec(5, 1, 9, 3, 7)
	s := NewSelection(8)

	s.All(v.Len())
	s.FilterInt64Range(v, 3, 7)
	if got := s.Indexes(); len(got) != 3 || got[0] != 0 || got[1] != 3 || got[2] != 4 {
		t.Fatalf("range = %v", got)
	}
	// narrowing composes: a second kernel sees only survivors
	s.Filter(v, Pred{Op: PredInt64Range, ILo: math.MinInt64, IHi: 5})
	if got := s.Indexes(); len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Fatalf("range∘le = %v", got)
	}
	s.Filter(v, Pred{Op: PredInt64Range, ILo: 3, IHi: 3})
	if got := s.Indexes(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("eq = %v", got)
	}
	// all rows filtered out
	s.Filter(v, Pred{Op: PredInt64Range, ILo: 100, IHi: math.MaxInt64})
	if s.Len() != 0 {
		t.Fatal("expected empty selection")
	}
	// kernels on an empty selection stay empty (and must not panic)
	s.FilterInt64Range(v, 0, 100)
	if s.Len() != 0 {
		t.Fatal("empty selection grew")
	}
}

func TestFilterFloat64Kernels(t *testing.T) {
	v := New(types.Float64, 4)
	v.F = append(v.F, 0.04, 0.05, 0.07, 0.08)
	s := NewSelection(4)
	s.All(4)
	s.FilterFloat64Range(v, 0.05, 0.07)
	if got := s.Indexes(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("frange = %v", got)
	}
	s.All(4)
	s.FilterFloat64Lt(v, 0.05)
	if got := s.Indexes(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("flt = %v", got)
	}
}

func TestFilterStringKernels(t *testing.T) {
	v := New(types.String, 5)
	v.S = append(v.S, "MAIL", "SHIP", "AIR", "MAILBOX", "REG AIR")
	s := NewSelection(5)

	s.All(5)
	s.FilterStrEq(v, "MAIL")
	if got := s.Indexes(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("streq = %v", got)
	}
	s.All(5)
	s.FilterStrIn(v, "MAIL", "SHIP")
	if got := s.Indexes(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("strin = %v", got)
	}
	s.All(5)
	s.FilterStrPrefix(v, "MAIL")
	if got := s.Indexes(); len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Fatalf("strprefix = %v", got)
	}
	s.All(5)
	s.FilterStrContains(v, "AIR")
	if got := s.Indexes(); len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Fatalf("strcontains = %v", got)
	}
}

func TestAppendSelected(t *testing.T) {
	src := intVec(10, 20, 30, 40)
	dst := New(types.Int64, 4)
	dst.AppendSelected(src, []uint32{1, 3})
	if dst.Len() != 2 || dst.I[0] != 20 || dst.I[1] != 40 {
		t.Fatalf("gather = %v", dst.I)
	}
	dst.AppendSelected(src, nil) // empty selection appends nothing
	if dst.Len() != 2 {
		t.Fatal("empty gather changed length")
	}
	strSrc := New(types.String, 2)
	strSrc.S = append(strSrc.S, "a", "b")
	strDst := New(types.String, 2)
	strDst.AppendSelected(strSrc, []uint32{1})
	if strDst.Len() != 1 || strDst.S[0] != "b" {
		t.Fatalf("string gather = %v", strDst.S)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch must panic")
		}
	}()
	dst.AppendSelected(strSrc, []uint32{0})
}

// TestSelectionListOps holds Search, AppendShifted and Drop to their
// definitions over random ascending lists, dense runs and sparse ones.
func TestSelectionListOps(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		// a and b: disjoint ascending rows, dense stretches and gaps.
		var a, b []uint32
		for r, end := uint32(rng.Intn(5)), uint32(rng.Intn(300)); r < end; r++ {
			switch rng.Intn(8) {
			case 0:
				b = append(b, r)
			case 1, 2:
			default:
				a = append(a, r)
			}
		}
		x := uint32(rng.Intn(320))
		want := 0
		for want < len(a) && a[want] < x {
			want++
		}
		if got := Search(a, x); got != want {
			t.Fatalf("Search(%v, %d) = %d, want %d", a, x, got, want)
		}
		s := NewSelection(0)
		s.AppendShifted(a, 7)
		for i, r := range s.Indexes() {
			if r != a[i]+7 {
				t.Fatalf("AppendShifted(%v, 7) = %v", a, s.Indexes())
			}
		}
		union := append(slices.Clone(a), b...)
		slices.Sort(union)
		u := NewSelection(0)
		u.AppendShifted(union, 0)
		// Drop the rows of b that a filter turned down from the union.
		var kept, left []uint32
		for _, r := range b {
			if rng.Intn(3) == 0 {
				kept = append(kept, r)
			}
		}
		for _, r := range union {
			if !slices.Contains(b, r) || slices.Contains(kept, r) {
				left = append(left, r)
			}
		}
		u.Drop(b, kept)
		if !slices.Equal(u.Indexes(), left) {
			t.Fatalf("Drop(%v, %v) from %v = %v, want %v", b, kept, union, u.Indexes(), left)
		}
	}
}
