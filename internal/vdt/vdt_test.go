package vdt

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

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

func buildRows(n int) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.Int(int64((i + 1) * 10)), types.Int(int64(i)), types.Str(fmt.Sprintf("s%d", i))}
	}
	return rows
}

// --- btree unit tests --------------------------------------------------------

func key(k int64) types.Row { return types.Row{types.Int(k)} }

func TestBTreeSetGetRemove(t *testing.T) {
	bt := newBTree()
	for i := int64(0); i < 200; i++ {
		if !bt.set(key(i*7%211), types.Row{types.Int(i)}) {
			t.Fatalf("duplicate on fresh key %d", i*7%211)
		}
	}
	if bt.Len() != 200 {
		t.Fatalf("Len = %d", bt.Len())
	}
	if v, ok := bt.get(key(14)); !ok || v[0].I != 2 {
		t.Fatalf("get(14) = %v,%v", v, ok)
	}
	// replace
	if bt.set(key(14), types.Row{types.Int(999)}) {
		t.Fatal("replace reported as insert")
	}
	if v, _ := bt.get(key(14)); v[0].I != 999 {
		t.Fatal("replace did not stick")
	}
	if !bt.remove(key(14)) || bt.remove(key(14)) {
		t.Fatal("remove misbehaved")
	}
	if _, ok := bt.get(key(14)); ok {
		t.Fatal("removed key still present")
	}
	if bt.Len() != 199 {
		t.Fatalf("Len after remove = %d", bt.Len())
	}
}

func TestBTreeIterationSorted(t *testing.T) {
	bt := newBTree()
	perm := rand.New(rand.NewSource(1)).Perm(500)
	for _, p := range perm {
		bt.set(key(int64(p)), nil)
	}
	prev := int64(-1)
	n := 0
	for it := bt.iterAll(); it.valid(); it.advance() {
		k := it.key()[0].I
		if k <= prev {
			t.Fatalf("iteration out of order: %d after %d", k, prev)
		}
		prev = k
		n++
	}
	if n != 500 {
		t.Fatalf("iterated %d keys", n)
	}
}

func TestBTreeIterFrom(t *testing.T) {
	bt := newBTree()
	for i := int64(0); i < 100; i += 2 { // even keys
		bt.set(key(i), nil)
	}
	it := bt.iterFrom(key(31))
	if !it.valid() || it.key()[0].I != 32 {
		t.Fatalf("iterFrom(31) at %v", it.key())
	}
	it = bt.iterFrom(key(98))
	if !it.valid() || it.key()[0].I != 98 {
		t.Fatal("iterFrom(existing) must land on the key")
	}
	it = bt.iterFrom(key(99))
	if it.valid() {
		t.Fatal("iterFrom past end should be invalid")
	}
}

func TestBTreeCountLess(t *testing.T) {
	bt := newBTree()
	for i := int64(0); i < 300; i++ {
		bt.set(key(i*2), nil)
	}
	if got := bt.countLess(key(100)); got != 50 {
		t.Fatalf("countLess(100) = %d, want 50", got)
	}
	if got := bt.countLess(key(0)); got != 0 {
		t.Fatalf("countLess(0) = %d", got)
	}
	if got := bt.countLess(key(10000)); got != 300 {
		t.Fatalf("countLess(10000) = %d", got)
	}
	bt.remove(key(50))
	if got := bt.countLess(key(100)); got != 49 {
		t.Fatalf("countLess after remove = %d, want 49", got)
	}
}

func TestBTreeQuickAgainstMap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bt := newBTree()
		model := map[int64]int64{}
		for i := 0; i < 400; i++ {
			k := int64(rng.Intn(120))
			switch rng.Intn(3) {
			case 0:
				bt.set(key(k), types.Row{types.Int(int64(i))})
				model[k] = int64(i)
			case 1:
				bt.remove(key(k))
				delete(model, k)
			case 2:
				v, ok := bt.get(key(k))
				mv, mok := model[k]
				if ok != mok || (ok && v[0].I != mv) {
					return false
				}
			}
		}
		if bt.Len() != len(model) {
			return false
		}
		// countLess against model for a few probes
		for _, probe := range []int64{0, 30, 60, 90, 200} {
			want := 0
			for k := range model {
				if k < probe {
					want++
				}
			}
			if bt.countLess(key(probe)) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// --- VDT behaviour -----------------------------------------------------------

type sliceSource struct {
	rows []types.Row
	cols []int
	pos  int
	end  int
}

func newSliceSource(rows []types.Row, cols []int, from, to int) *sliceSource {
	if to > len(rows) {
		to = len(rows)
	}
	return &sliceSource{rows: rows, cols: cols, pos: from, end: to}
}

func (s *sliceSource) Next(out *vector.Batch, max int) (int, error) {
	n := 0
	for s.pos < s.end && n < max {
		for i, c := range s.cols {
			out.Vecs[i].Append(s.rows[s.pos][c])
		}
		s.pos++
		n++
	}
	return n, nil
}

// refModel mirrors the one in the pdt tests.
type refModel struct {
	schema *types.Schema
	rows   []types.Row
}

func newRef(schema *types.Schema, stable []types.Row) *refModel {
	r := &refModel{schema: schema}
	for _, row := range stable {
		r.rows = append(r.rows, row.Clone())
	}
	return r
}

func (r *refModel) findKey(k types.Row) int {
	for i, row := range r.rows {
		if types.CompareRows(r.schema.KeyOf(row), k) == 0 {
			return i
		}
	}
	return -1
}

func mergeAllVDT(t *testing.T, v *VDT, stable []types.Row, outCols []int) *vector.Batch {
	t.Helper()
	// source must produce outCols ∪ sort key
	srcCols := append([]int(nil), outCols...)
	for _, k := range v.schema.SortKey {
		found := false
		for _, c := range srcCols {
			if c == k {
				found = true
			}
		}
		if !found {
			srcCols = append(srcCols, k)
		}
	}
	src := newSliceSource(stable, srcCols, 0, len(stable))
	ms, err := NewMergeScan(v, src, srcCols, outCols, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	kinds := make([]types.Kind, len(outCols))
	for i, c := range outCols {
		kinds[i] = v.schema.Cols[c].Kind
	}
	out := vector.NewBatch(kinds, 64)
	for {
		n, err := ms.Next(out, 7)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
	}
	return out
}

func checkVDT(t *testing.T, v *VDT, stable []types.Row, ref *refModel) {
	t.Helper()
	out := mergeAllVDT(t, v, stable, []int{0, 1, 2})
	if out.Len() != len(ref.rows) {
		t.Fatalf("merged %d rows, want %d", out.Len(), len(ref.rows))
	}
	for i, want := range ref.rows {
		if types.CompareRows(out.Row(i), want) != 0 {
			t.Fatalf("row %d = %v, want %v", i, out.Row(i), want)
		}
		if out.Rids[i] != uint64(i) {
			t.Fatalf("rid %d = %d", i, out.Rids[i])
		}
	}
}

func TestVDTInsertDeleteModify(t *testing.T) {
	schema := intSchema()
	stable := buildRows(10)
	v := New(schema)
	ref := newRef(schema, stable)

	// insert
	row := types.Row{types.Int(15), types.Int(-1), types.Str("new")}
	if err := v.Insert(row); err != nil {
		t.Fatal(err)
	}
	ref.rows = append(ref.rows[:1], append([]types.Row{row}, ref.rows[1:]...)...)
	checkVDT(t, v, stable, ref)

	// modify stable tuple (key 40)
	idx := ref.findKey(key(40))
	cur := ref.rows[idx]
	if err := v.Modify(cur, 1, types.Int(444), true); err != nil {
		t.Fatal(err)
	}
	ref.rows[idx] = cur.Clone()
	ref.rows[idx][1] = types.Int(444)
	checkVDT(t, v, stable, ref)
	ins, del := v.Counts()
	if ins != 2 || del != 1 {
		t.Fatalf("counts = %d/%d, want 2/1 (modify = del+ins)", ins, del)
	}

	// delete stable tuple (key 70)
	v.Delete(key(70), true)
	idx = ref.findKey(key(70))
	ref.rows = append(ref.rows[:idx], ref.rows[idx+1:]...)
	checkVDT(t, v, stable, ref)

	// delete the fresh insert (key 15)
	v.Delete(key(15), false)
	ref.rows = append(ref.rows[:1], ref.rows[2:]...)
	checkVDT(t, v, stable, ref)

	// modify an inserted tuple: stays insert-only
	row2 := types.Row{types.Int(25), types.Int(-2), types.Str("x")}
	if err := v.Insert(row2); err != nil {
		t.Fatal(err)
	}
	if err := v.Modify(row2, 2, types.Str("y"), false); err != nil {
		t.Fatal(err)
	}
	ref.rows = append(ref.rows[:2], append([]types.Row{{types.Int(25), types.Int(-2), types.Str("y")}}, ref.rows[2:]...)...)
	checkVDT(t, v, stable, ref)
}

func TestVDTDuplicateInsertRejected(t *testing.T) {
	v := New(intSchema())
	row := types.Row{types.Int(5), types.Int(0), types.Str("a")}
	if err := v.Insert(row); err != nil {
		t.Fatal(err)
	}
	if err := v.Insert(row); !errors.Is(err, types.ErrDuplicateKey) {
		t.Fatalf("duplicate insert: got %v, want types.ErrDuplicateKey", err)
	}
}

func TestVDTModifyValidation(t *testing.T) {
	v := New(intSchema())
	row := buildRows(1)[0]
	if err := v.Modify(row, 0, types.Int(1), true); err == nil {
		t.Error("sort-key modify accepted")
	}
	if err := v.Modify(row, 1, types.Str("x"), true); err == nil {
		t.Error("wrong kind accepted")
	}
}

func TestVDTProjectionRequiresSortKey(t *testing.T) {
	schema := intSchema()
	stable := buildRows(5)
	v := New(schema)
	// source without the sort-key column must be rejected
	src := newSliceSource(stable, []int{1}, 0, len(stable))
	if _, err := NewMergeScan(v, src, []int{1}, []int{1}, nil, nil, 0); err == nil {
		t.Fatal("merge without sort-key columns accepted")
	}
	// projected column missing from source must be rejected
	src = newSliceSource(stable, []int{0}, 0, len(stable))
	if _, err := NewMergeScan(v, src, []int{0}, []int{1}, nil, nil, 0); err == nil {
		t.Fatal("projection of unproduced column accepted")
	}
}

func TestVDTRangeScanWithRIDs(t *testing.T) {
	schema := intSchema()
	stable := buildRows(20) // keys 10..200
	v := New(schema)
	// one insert before the range, one delete before the range
	if err := v.Insert(types.Row{types.Int(15), types.Int(0), types.Str("pre")}); err != nil {
		t.Fatal(err)
	}
	v.Delete(key(30), true)
	// one insert inside the range
	if err := v.Insert(types.Row{types.Int(105), types.Int(0), types.Str("mid")}); err != nil {
		t.Fatal(err)
	}

	// Range keys [100,130]: stable sids 9..12 (keys 100..130).
	lo, hi := key(100), key(130)
	src := newSliceSource(stable, []int{0, 1, 2}, 9, 13)
	startRID := v.RangeStartRID(9, lo)
	// 9 stable rows before + 1 insert - 1 delete = rid 9
	if startRID != 9 {
		t.Fatalf("startRID = %d, want 9", startRID)
	}
	ms, err := NewMergeScan(v, src, []int{0, 1, 2}, []int{0}, lo, hi, startRID)
	if err != nil {
		t.Fatal(err)
	}
	out := vector.NewBatch([]types.Kind{types.Int64}, 16)
	for {
		n, err := ms.Next(out, 16)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
	}
	wantKeys := []int64{100, 105, 110, 120, 130}
	if out.Len() != len(wantKeys) {
		t.Fatalf("range merge keys = %v", out.Vecs[0].I)
	}
	for i, k := range wantKeys {
		if out.Vecs[0].I[i] != k {
			t.Fatalf("key %d = %d, want %d", i, out.Vecs[0].I[i], k)
		}
		if out.Rids[i] != uint64(9+i) {
			t.Fatalf("rid %d = %d, want %d", i, out.Rids[i], 9+i)
		}
	}
}

func TestVDTRandomizedAgainstReference(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed + 77))
		schema := intSchema()
		stable := buildRows(30)
		v := New(schema)
		ref := newRef(schema, stable)
		stableKeys := map[int64]bool{}
		for _, r := range stable {
			stableKeys[r[0].I] = true
		}
		visible := map[int64]bool{}
		for k := range stableKeys {
			visible[k] = true
		}
		for i := 0; i < 400; i++ {
			switch rng.Intn(3) {
			case 0: // insert
				k := int64(rng.Intn(500))
				if visible[k] {
					continue
				}
				row := types.Row{types.Int(k), types.Int(int64(i)), types.Str(fmt.Sprintf("i%d", i))}
				if err := v.Insert(row); err != nil {
					t.Fatal(err)
				}
				idx := 0
				for idx < len(ref.rows) && ref.rows[idx][0].I < k {
					idx++
				}
				ref.rows = append(ref.rows[:idx], append([]types.Row{row}, ref.rows[idx:]...)...)
				visible[k] = true
			case 1: // delete
				if len(ref.rows) == 0 {
					continue
				}
				idx := rng.Intn(len(ref.rows))
				k := ref.rows[idx][0].I
				_, inIns := v.HasInsert(key(k))
				stableHome := stableKeys[k] && !inIns ||
					stableKeys[k] && inIns // stable key counts as stable even if modified
				v.Delete(key(k), stableHome)
				ref.rows = append(ref.rows[:idx], ref.rows[idx+1:]...)
				delete(visible, k)
			case 2: // modify
				if len(ref.rows) == 0 {
					continue
				}
				idx := rng.Intn(len(ref.rows))
				cur := ref.rows[idx]
				col := 1 + rng.Intn(2)
				var val types.Value
				if col == 1 {
					val = types.Int(int64(rng.Intn(1000)))
				} else {
					val = types.Str(fmt.Sprintf("m%d", i))
				}
				if err := v.Modify(cur, col, val, stableKeys[cur[0].I]); err != nil {
					t.Fatal(err)
				}
				ref.rows[idx] = cur.Clone()
				ref.rows[idx][col] = val
			}
		}
		checkVDT(t, v, stable, ref)
	}
}

func TestVDTMemBytes(t *testing.T) {
	v := New(intSchema())
	if v.MemBytes() != 0 {
		t.Error("empty VDT should report 0 bytes")
	}
	if err := v.Insert(types.Row{types.Int(1), types.Int(2), types.Str("abcd")}); err != nil {
		t.Fatal(err)
	}
	v.Delete(key(500), true)
	if v.MemBytes() == 0 {
		t.Error("MemBytes should be positive after updates")
	}
	if v.Delta() != 0 {
		t.Errorf("delta = %d", v.Delta())
	}
}
