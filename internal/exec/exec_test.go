package exec

import (
	"testing"

	"pdtstore/internal/types"
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
	var key []byte // one scratch buffer for every key, as the queries build them
	for _, d := range data {
		key = append(key[:0], d.k...)
		cells := g.TouchKey(key, func() types.Row { return types.Row{types.Str(d.k)} })
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
	if rs[1].Aggs[0].Count != 2 || rs[1].Aggs[0].Sum != 4 || rs[1].Aggs[1].Sum != -4 {
		t.Fatalf("group b aggs = %+v", rs[1].Aggs)
	}
}

// TestTouchKeyMatchesTouch drives TouchKey as the string-keyed Touch was
// driven: a group is found by its key's bytes at the call, so one buffer
// reused for every key still gives one group per key.
func TestTouchKeyMatchesTouch(t *testing.T) {
	g := NewGroupAgg(1)
	var buf []byte
	for i, k := range []string{"a", "b", "a"} {
		buf = append(buf[:0], k...)
		cells := g.TouchKey(buf, func() types.Row { return types.Row{types.Str(k)} })
		cells[0].Add(float64(i))
	}
	if g.Len() != 2 {
		t.Fatalf("groups = %d", g.Len())
	}
	if a := g.Results()[0]; a.Key[0].S != "a" || a.Aggs[0].Count != 2 || a.Aggs[0].Sum != 2 {
		t.Fatalf("group a = %+v", a)
	}
}

func TestFormatRow(t *testing.T) {
	got := FormatRow("x", 1.23456, 7)
	if got != "x|1.23|7" {
		t.Fatalf("FormatRow = %q", got)
	}
}
