package exec

import (
	"testing"

	"pdtstore/internal/types"
	"pdtstore/internal/vector"
)

func TestAgg(t *testing.T) {
	var a Agg
	for _, x := range []float64{3, 1, 2} {
		a.Add(x)
	}
	if a.Count != 3 || a.Sum != 6 || a.Min != 1 || a.Max != 3 || a.Avg() != 2 {
		t.Fatalf("agg = %+v", a)
	}
	var empty Agg
	if empty.Avg() != 0 {
		t.Fatal("empty avg must be 0")
	}
}

func TestGroupAgg(t *testing.T) {
	g := NewGroupAgg(2)
	data := []struct {
		k string
		v float64
	}{{"b", 1}, {"a", 2}, {"b", 3}}
	for _, d := range data {
		d := d
		cells := g.Touch(d.k, func() types.Row { return types.Row{types.Str(d.k)} })
		cells[0].Add(d.v)
		cells[1].Add(-d.v)
	}
	if g.Len() != 2 {
		t.Fatalf("groups = %d", g.Len())
	}
	rs := g.Results()
	if rs[0].Key[0].S != "a" || rs[1].Key[0].S != "b" {
		t.Fatal("results not key-sorted")
	}
	if rs[1].Aggs[0].Sum != 4 || rs[1].Aggs[1].Sum != -4 {
		t.Fatalf("group b aggs = %+v", rs[1].Aggs)
	}
}

func TestGroupKey(t *testing.T) {
	a := GroupKey(types.Str("x"), types.Int(1))
	b := GroupKey(types.Str("x"), types.Int(2))
	if a == b {
		t.Fatal("distinct keys collide")
	}
	if GroupKey(types.Str("x"), types.Int(1)) != a {
		t.Fatal("group key not deterministic")
	}
}

func TestIntJoinMap(t *testing.T) {
	b := vector.NewBatch([]types.Kind{types.Int64, types.String}, 4)
	b.AppendRow(types.Row{types.Int(1), types.Str("a")})
	b.AppendRow(types.Row{types.Int(2), types.Str("b")})
	b.AppendRow(types.Row{types.Int(1), types.Str("c")})
	m := NewIntJoinMap(b, nil, 0, []int{1})
	if m.Len() != 2 {
		t.Fatalf("len = %d", m.Len())
	}
	if rows := m.Probe(1); len(rows) != 2 || rows[1][0].S != "c" {
		t.Fatalf("probe(1) = %v", rows)
	}
	if _, ok := m.ProbeOne(9); ok {
		t.Fatal("probe of missing key")
	}
	if r, ok := m.ProbeOne(2); !ok || r[0].S != "b" {
		t.Fatalf("probeOne(2) = %v", r)
	}
}

func TestSortBatch(t *testing.T) {
	b := vector.NewBatch([]types.Kind{types.Int64}, 4)
	for _, v := range []int64{3, 1, 2} {
		b.AppendRow(types.Row{types.Int(v)})
	}
	idx := SortBatch(b, nil, func(i, j uint32) bool { return b.Vecs[0].I[i] < b.Vecs[0].I[j] })
	if b.Vecs[0].I[idx[0]] != 1 || b.Vecs[0].I[idx[2]] != 3 {
		t.Fatalf("sort order = %v", idx)
	}
	sub := SortBatch(b, []uint32{2, 0}, func(i, j uint32) bool { return b.Vecs[0].I[i] < b.Vecs[0].I[j] })
	if len(sub) != 2 || b.Vecs[0].I[sub[0]] != 2 || b.Vecs[0].I[sub[1]] != 3 {
		t.Fatalf("selected sort order = %v", sub)
	}
}

func TestTouchKeyMatchesTouch(t *testing.T) {
	g := NewGroupAgg(1)
	var buf []byte
	for i, k := range []string{"a", "b", "a"} {
		buf = append(buf[:0], k...)
		k := k
		cells := g.TouchKey(buf, func() types.Row { return types.Row{types.Str(k)} })
		cells[0].Add(float64(i))
	}
	if g.Len() != 2 {
		t.Fatalf("groups = %d", g.Len())
	}
	if cells := g.Touch("a", nil); cells[0].Count != 2 || cells[0].Sum != 2 {
		t.Fatalf("group a = %+v", cells[0])
	}
}

func TestFormatRow(t *testing.T) {
	got := FormatRow("x", 1.23456, 7)
	if got != "x|1.23|7" {
		t.Fatalf("FormatRow = %q", got)
	}
}
