package pdt

import (
	"testing"

	"pdtstore/internal/types"
	"pdtstore/internal/vector"
)

func intSchema() *types.Schema {
	return types.MustSchema([]types.Column{
		{Name: "k", Kind: types.Int64},
		{Name: "a", Kind: types.Int64},
		{Name: "b", Kind: types.String},
	}, []int{0})
}

// buildIntTable returns n stable rows with keys 10,20,30,...
func buildIntTable(n int) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{
			types.Int(int64((i + 1) * 10)),
			types.Int(int64(i)),
			types.Str(string(rune('a' + i%26))),
		}
	}
	return rows
}

func TestMergeScanProjectionSubset(t *testing.T) {
	schema := intSchema()
	stable := buildIntTable(10)
	p := New(schema, 4)
	ref := newRefModel(schema, stable)
	applyModify(t, p, ref, 4, 1, types.Int(444))
	applyModify(t, p, ref, 4, 2, types.Str("zz"))
	applyDelete(t, p, ref, 7)
	applyInsert(t, p, ref, types.Row{types.Int(15), types.Int(-1), types.Str("new")})

	// Project only columns (a) — the merge must apply the col-1 modify,
	// silently consume the col-2 modify, and never need column k.
	cols := []int{1}
	ms := NewMergeScan(p, newBlockSource(stable, cols, 0, len(stable)), cols, 0, true)
	out, err := scanNumbered(ms, []types.Kind{types.Int64})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != len(ref.rows) {
		t.Fatalf("projected merge %d rows, want %d", out.Len(), len(ref.rows))
	}
	for i := range ref.rows {
		if out.Vecs[0].I[i] != ref.rows[i][1].I {
			t.Fatalf("row %d col a = %d, want %d", i, out.Vecs[0].I[i], ref.rows[i][1].I)
		}
	}
}

func TestMergeScanRange(t *testing.T) {
	schema := intSchema()
	stable := buildIntTable(20)
	p := New(schema, 4)
	ref := newRefModel(schema, stable)
	applyInsert(t, p, ref, types.Row{types.Int(15), types.Int(-1), types.Str("x")}) // rid 1
	applyDelete(t, p, ref, 5)                                                       // key 50
	applyModify(t, p, ref, 10, 1, types.Int(1000))

	// Scan stable SIDs [3, 12): rows with keys 40..120 as updated.
	cols := []int{0, 1, 2}
	ms := NewMergeScan(p, newBlockSource(stable, cols, 3, 12), cols, 3, false)
	kinds := []types.Kind{types.Int64, types.Int64, types.String}
	out, err := scanNumbered(ms, kinds)
	if err != nil {
		t.Fatal(err)
	}
	// Expected: visible rows derived from ref whose ORIGINAL stable sids are
	// 3..11. With the insert at rid 1 and delete of sid 4 (key 50):
	// sids 3..11 → keys 40,(50 deleted),60..120 → 8 rows.
	if out.Len() != 8 {
		t.Fatalf("range merge returned %d rows, want 8", out.Len())
	}
	if out.Vecs[0].I[0] != 40 || out.Vecs[0].I[1] != 60 || out.Vecs[0].I[7] != 120 {
		t.Fatalf("range keys wrong: %v", out.Vecs[0].I)
	}
	// RIDs: stable sid 3 has one insert and zero deletes before it → rid 4.
	if out.Rids[0] != 4 {
		t.Fatalf("first rid = %d, want 4", out.Rids[0])
	}
	if ms.StartRID() != 4 {
		t.Fatalf("StartRID = %d, want 4", ms.StartRID())
	}
}

func TestMergeScanIncludeEnd(t *testing.T) {
	schema := intSchema()
	stable := buildIntTable(10)
	p := New(schema, 4)
	ref := newRefModel(schema, stable)
	// Insert between stable sids 4 and 5 (keys 50 and 60): sid 5.
	applyInsert(t, p, ref, types.Row{types.Int(55), types.Int(-5), types.Str("t")})

	cols := []int{0}
	// Range [2,5) excluding end: insert at sid 5 not emitted.
	ms := NewMergeScan(p, newBlockSource(stable, cols, 2, 5), cols, 2, false)
	out, err := scanNumbered(ms, []types.Kind{types.Int64})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 3 {
		t.Fatalf("excl-end merge %d rows, want 3 (keys 30,40,50)", out.Len())
	}
	// Same range including end: the trailing insert appears.
	ms = NewMergeScan(p, newBlockSource(stable, cols, 2, 5), cols, 2, true)
	out, err = scanNumbered(ms, []types.Kind{types.Int64})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 4 || out.Vecs[0].I[3] != 55 {
		t.Fatalf("incl-end merge rows: %v", out.Vecs[0].I)
	}
}

func TestMergeScanStacked(t *testing.T) {
	schema := intSchema()
	stable := buildIntTable(30)
	lower := New(schema, 4)
	ref := newRefModel(schema, stable)

	// Layer 1 updates.
	applyInsert(t, lower, ref, types.Row{types.Int(15), types.Int(-1), types.Str("l1")})
	applyDelete(t, lower, ref, 9)
	applyModify(t, lower, ref, 20, 1, types.Int(2020))

	// Layer 2 updates, positioned against the layer-1 image (ref mirrors it).
	upper := New(schema, 4)
	applyInsert(t, upper, ref, types.Row{types.Int(17), types.Int(-2), types.Str("l2")})
	applyDelete(t, upper, ref, 25)
	applyModify(t, upper, ref, 0, 1, types.Int(9999))

	cols := []int{0, 1, 2}
	kinds := []types.Kind{types.Int64, types.Int64, types.String}
	m1 := NewMergeScan(lower, newBlockSource(stable, cols, 0, len(stable)), cols, 0, true)
	m2 := NewMergeScan(upper, m1, cols, m1.StartRID(), true)
	out, err := scanNumbered(m2, kinds)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != len(ref.rows) {
		t.Fatalf("stacked merge %d rows, want %d", out.Len(), len(ref.rows))
	}
	for i, want := range ref.rows {
		if types.CompareRows(out.Row(i), want) != 0 {
			t.Fatalf("stacked row %d = %v, want %v", i, out.Row(i), want)
		}
		if out.Rids[i] != uint64(i) {
			t.Fatalf("stacked rid %d = %d", i, out.Rids[i])
		}
	}
}

func TestMergeScanSmallBatches(t *testing.T) {
	// Emitting through tiny output batches must agree with one big scan.
	schema := intSchema()
	stable := buildIntTable(50)
	p := New(schema, 4)
	ref := newRefModel(schema, stable)
	for i := 0; i < 10; i++ {
		applyInsert(t, p, ref, types.Row{types.Int(int64(i*50 + 5)), types.Int(int64(-i)), types.Str("x")})
	}
	applyDelete(t, p, ref, 30)
	applyDelete(t, p, ref, 30)
	applyModify(t, p, ref, 12, 1, types.Int(808))

	cols := []int{0, 1, 2}
	kinds := []types.Kind{types.Int64, types.Int64, types.String}
	ms := NewMergeScan(p, newBlockSource(stable, cols, 0, len(stable)), cols, 0, true)
	src, out := Numbered(ms, ms.StartRID()), vector.NewBatch(kinds, 4)
	for {
		n, err := src.Next(out, 3)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
	}
	if out.Len() != len(ref.rows) {
		t.Fatalf("small-batch merge %d rows, want %d", out.Len(), len(ref.rows))
	}
	for i, want := range ref.rows {
		if types.CompareRows(out.Row(i), want) != 0 {
			t.Fatalf("row %d = %v, want %v", i, out.Row(i), want)
		}
	}
}

func TestMergeScanEmptyStable(t *testing.T) {
	schema := intSchema()
	p := New(schema, 4)
	ref := newRefModel(schema, nil)
	applyInsert(t, p, ref, types.Row{types.Int(1), types.Int(1), types.Str("a")})
	applyInsert(t, p, ref, types.Row{types.Int(2), types.Int(2), types.Str("b")})
	checkAgainstRef(t, p, nil, ref)
}

func TestMergeScanEverythingDeleted(t *testing.T) {
	schema := intSchema()
	stable := buildIntTable(8)
	p := New(schema, 4)
	ref := newRefModel(schema, stable)
	for len(ref.rows) > 0 {
		applyDelete(t, p, ref, 0)
	}
	checkAgainstRef(t, p, stable, ref)
	if p.Delta() != -8 {
		t.Errorf("delta = %d", p.Delta())
	}
}
