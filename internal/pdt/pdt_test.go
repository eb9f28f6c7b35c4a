package pdt

import (
	"fmt"
	"testing"

	"pdtstore/internal/types"
	"pdtstore/internal/vector"
)

// --- shared test infrastructure ---------------------------------------------

// inventorySchema is the paper's running-example table (Figure 1).
func inventorySchema() *types.Schema {
	return types.MustSchema([]types.Column{
		{Name: "store", Kind: types.String},
		{Name: "prod", Kind: types.String},
		{Name: "new", Kind: types.Bool},
		{Name: "qty", Kind: types.Int64},
	}, []int{0, 1})
}

func inv(store, prod string, isNew bool, qty int64) types.Row {
	return types.Row{types.Str(store), types.Str(prod), types.BoolVal(isNew), types.Int(qty)}
}

// table0 is Figure 1's TABLE0.
func table0() []types.Row {
	return []types.Row{
		inv("London", "chair", false, 30),
		inv("London", "stool", false, 10),
		inv("London", "table", false, 20),
		inv("Paris", "rug", false, 1),
		inv("Paris", "stool", false, 5),
	}
}

// scanNumbered drains a merge the way a consumer sees it: under Numbered, from
// the merge's own start RID.
func scanNumbered(ms *MergeScan, kinds []types.Kind) (*vector.Batch, error) {
	return ScanAll(Numbered(ms, ms.StartRID()), kinds)
}

// refModel is the naive row-slice reference implementation of an updatable
// ordered table; the PDT must always agree with it.
type refModel struct {
	schema *types.Schema
	rows   []types.Row
}

func newRefModel(schema *types.Schema, stable []types.Row) *refModel {
	r := &refModel{schema: schema}
	for _, row := range stable {
		r.rows = append(r.rows, row.Clone())
	}
	return r
}

func (r *refModel) insertAt(rid int, row types.Row) {
	r.rows = append(r.rows, nil)
	copy(r.rows[rid+1:], r.rows[rid:])
	r.rows[rid] = row.Clone()
}

func (r *refModel) deleteAt(rid int) {
	r.rows = append(r.rows[:rid], r.rows[rid+1:]...)
}

func (r *refModel) modifyAt(rid, col int, v types.Value) {
	r.rows[rid] = r.rows[rid].Clone()
	r.rows[rid][col] = v
}

// insertRid returns the position a new key belongs at: the RID of the first
// visible row whose key exceeds it.
func (r *refModel) insertRid(row types.Row) int {
	for i, existing := range r.rows {
		if r.schema.CompareKeyRows(existing, row) > 0 {
			return i
		}
	}
	return len(r.rows)
}

// mergeAll runs a full MergeScan of the stable rows plus t and returns the
// resulting batch (all schema columns projected).
func mergeAll(t *testing.T, p *PDT, stable []types.Row) *vector.Batch {
	t.Helper()
	cols := make([]int, p.Schema().NumCols())
	kinds := make([]types.Kind, len(cols))
	for i := range cols {
		cols[i] = i
		kinds[i] = p.Schema().Cols[i].Kind
	}
	ms := NewMergeScan(p, newBlockSource(stable, cols, 0, len(stable)), cols, 0, true)
	out, err := scanNumbered(ms, kinds)
	if err != nil {
		t.Fatalf("merge scan: %v", err)
	}
	return out
}

// checkAgainstRef verifies that merging stable+p yields exactly ref's rows
// with consecutive RIDs.
func checkAgainstRef(t *testing.T, p *PDT, stable []types.Row, ref *refModel) {
	t.Helper()
	if err := p.Validate(); err != nil {
		t.Fatalf("invariant violation: %v\n%s", err, p)
	}
	out := mergeAll(t, p, stable)
	if out.Len() != len(ref.rows) {
		t.Fatalf("merged %d rows, reference has %d\nPDT: %s", out.Len(), len(ref.rows), p)
	}
	for i, want := range ref.rows {
		got := out.Row(i)
		if types.CompareRows(got, want) != 0 {
			t.Fatalf("row %d: merged %v, reference %v\nPDT: %s", i, got, want, p)
		}
		if out.Rids[i] != uint64(i) {
			t.Fatalf("row %d has rid %d", i, out.Rids[i])
		}
	}
}

// applyInsert drives both the PDT and the reference for an insert of row.
func applyInsert(t *testing.T, p *PDT, ref *refModel, row types.Row) {
	t.Helper()
	rid := ref.insertRid(row)
	if err := p.Insert(uint64(rid), row); err != nil {
		t.Fatalf("Insert(%d, %v): %v", rid, row, err)
	}
	ref.insertAt(rid, row)
}

// applyDelete drives both sides for a delete of the visible row at rid.
func applyDelete(t *testing.T, p *PDT, ref *refModel, rid int) {
	t.Helper()
	sk := ref.schema.KeyOf(ref.rows[rid])
	if err := p.Delete(uint64(rid), sk); err != nil {
		t.Fatalf("Delete(%d): %v", rid, err)
	}
	ref.deleteAt(rid)
}

// applyModify drives both sides for a modify.
func applyModify(t *testing.T, p *PDT, ref *refModel, rid, col int, v types.Value) {
	t.Helper()
	if err := p.Modify(uint64(rid), col, v); err != nil {
		t.Fatalf("Modify(%d, %d): %v", rid, col, err)
	}
	ref.modifyAt(rid, col, v)
}

// --- basic unit tests --------------------------------------------------------

func TestEmptyPDT(t *testing.T) {
	p := New(inventorySchema(), 0)
	if !p.Empty() || p.Count() != 0 || p.Delta() != 0 {
		t.Error("fresh PDT not empty")
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	stable := table0()
	ref := newRefModel(inventorySchema(), stable)
	checkAgainstRef(t, p, stable, ref)
}

func TestNewRejectsTooManyColumns(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for column overflow")
		}
	}()
	cols := make([]types.Column, MaxColumns+1)
	for i := range cols {
		cols[i] = types.Column{Name: fmt.Sprintf("c%d", i), Kind: types.Int64}
	}
	New(types.MustSchema(cols, []int{0}), 0)
}

func TestSingleInsertAtFront(t *testing.T) {
	p := New(inventorySchema(), 0)
	stable := table0()
	ref := newRefModel(inventorySchema(), stable)
	applyInsert(t, p, ref, inv("Berlin", "table", true, 10))
	if p.Count() != 1 || p.Delta() != 1 {
		t.Errorf("count=%d delta=%d", p.Count(), p.Delta())
	}
	checkAgainstRef(t, p, stable, ref)
	es := p.Entries()
	if len(es) != 1 || es[0].SID != 0 || es[0].RID != 0 || !es[0].IsInsert() {
		t.Errorf("entries = %+v", es)
	}
}

func TestInsertAtEnd(t *testing.T) {
	p := New(inventorySchema(), 0)
	stable := table0()
	ref := newRefModel(inventorySchema(), stable)
	applyInsert(t, p, ref, inv("Zurich", "chair", true, 3))
	es := p.Entries()
	if len(es) != 1 || es[0].SID != 5 || es[0].RID != 5 {
		t.Errorf("append insert entry = %+v", es)
	}
	checkAgainstRef(t, p, stable, ref)
}

func TestModifyStableTuple(t *testing.T) {
	p := New(inventorySchema(), 0)
	stable := table0()
	ref := newRefModel(inventorySchema(), stable)
	applyModify(t, p, ref, 1, 3, types.Int(99))
	checkAgainstRef(t, p, stable, ref)
	es := p.Entries()
	if len(es) != 1 || es[0].ModColumn() != 3 || es[0].SID != 1 {
		t.Errorf("entries = %+v", es)
	}
	// Second modify of the same column rewrites the value space in place.
	applyModify(t, p, ref, 1, 3, types.Int(100))
	if p.Count() != 1 {
		t.Errorf("in-place remodify grew the tree: %d entries", p.Count())
	}
	checkAgainstRef(t, p, stable, ref)
}

func TestModifyMultipleColumnsSameTuple(t *testing.T) {
	p := New(inventorySchema(), 0)
	stable := table0()
	ref := newRefModel(inventorySchema(), stable)
	applyModify(t, p, ref, 2, 3, types.Int(7))
	applyModify(t, p, ref, 2, 2, types.BoolVal(true))
	checkAgainstRef(t, p, stable, ref)
	es := p.Entries()
	if len(es) != 2 || es[0].ModColumn() != 2 || es[1].ModColumn() != 3 {
		t.Errorf("modify run not column-ordered: %+v", es)
	}
}

func TestModifyRejectsSortKeyAndBadColumn(t *testing.T) {
	p := New(inventorySchema(), 0)
	if err := p.Modify(0, 0, types.Str("x")); err == nil {
		t.Error("sort-key modify accepted")
	}
	if err := p.Modify(0, 9, types.Int(1)); err == nil {
		t.Error("out-of-range column accepted")
	}
	if err := p.Modify(0, 3, types.Str("x")); err == nil {
		t.Error("wrong-kind value accepted")
	}
}

func TestDeleteStableTuple(t *testing.T) {
	p := New(inventorySchema(), 0)
	stable := table0()
	ref := newRefModel(inventorySchema(), stable)
	applyDelete(t, p, ref, 3) // (Paris,rug)
	if p.Delta() != -1 {
		t.Errorf("delta = %d", p.Delta())
	}
	checkAgainstRef(t, p, stable, ref)
}

func TestDeleteOfInsertRemovesEntry(t *testing.T) {
	p := New(inventorySchema(), 0)
	stable := table0()
	ref := newRefModel(inventorySchema(), stable)
	applyInsert(t, p, ref, inv("Berlin", "table", true, 10))
	applyDelete(t, p, ref, 0)
	if p.Count() != 0 || p.Delta() != 0 {
		t.Errorf("delete-of-insert left %d entries, delta %d", p.Count(), p.Delta())
	}
	checkAgainstRef(t, p, stable, ref)
}

func TestDeleteOfModifiedTupleCollapses(t *testing.T) {
	p := New(inventorySchema(), 0)
	stable := table0()
	ref := newRefModel(inventorySchema(), stable)
	applyModify(t, p, ref, 1, 3, types.Int(42))
	applyModify(t, p, ref, 1, 2, types.BoolVal(true))
	applyDelete(t, p, ref, 1)
	es := p.Entries()
	if len(es) != 1 || !es[0].IsDelete() {
		t.Errorf("delete of modified tuple should leave one DEL entry, got %+v", es)
	}
	checkAgainstRef(t, p, stable, ref)
}

func TestModifyOfInsertInPlace(t *testing.T) {
	p := New(inventorySchema(), 0)
	stable := table0()
	ref := newRefModel(inventorySchema(), stable)
	applyInsert(t, p, ref, inv("Berlin", "cloth", true, 5))
	applyModify(t, p, ref, 0, 3, types.Int(1))
	if p.Count() != 1 {
		t.Errorf("modify-of-insert should not add entries, have %d", p.Count())
	}
	checkAgainstRef(t, p, stable, ref)
}

func TestGhostRespectingInsert(t *testing.T) {
	// Delete (Paris,rug), then insert (Paris,rack): rack < rug, so the new
	// tuple must receive the ghost's position's SID (3), not 4.
	p := New(inventorySchema(), 0)
	stable := table0()
	ref := newRefModel(inventorySchema(), stable)
	applyDelete(t, p, ref, 3)
	applyInsert(t, p, ref, inv("Paris", "rack", true, 4))
	var insEntry *Entry
	for _, e := range p.Entries() {
		if e.IsInsert() {
			e := e
			insEntry = &e
		}
	}
	if insEntry == nil || insEntry.SID != 3 {
		t.Fatalf("ghost-respecting SID wrong: %+v", insEntry)
	}
	checkAgainstRef(t, p, stable, ref)

	// Now a key above the ghost: (Paris,rye) > (Paris,rug) gets SID 4.
	applyInsert(t, p, ref, inv("Paris", "rye", true, 2))
	found := false
	for _, e := range p.Entries() {
		if e.IsInsert() && p.EntryTuple(e)[1].S == "rye" {
			found = true
			if e.SID != 4 {
				t.Fatalf("insert above ghost got SID %d, want 4", e.SID)
			}
		}
	}
	if !found {
		t.Fatal("rye insert not found")
	}
	checkAgainstRef(t, p, stable, ref)
}

func TestSidToRid(t *testing.T) {
	p := New(inventorySchema(), 0)
	stable := table0()
	ref := newRefModel(inventorySchema(), stable)
	applyInsert(t, p, ref, inv("Berlin", "chair", true, 1)) // rid 0
	applyDelete(t, p, ref, 2)                               // stable sid 1 (London,stool)
	// stable sid 0 (London,chair) now at rid 1
	if rid, ghost := p.SidToRid(0); rid != 1 || ghost {
		t.Errorf("SidToRid(0) = %d,%v", rid, ghost)
	}
	// deleted stable sid 1 is a ghost sharing the successor's rid
	if rid, ghost := p.SidToRid(1); rid != 2 || !ghost {
		t.Errorf("SidToRid(1) = %d,%v", rid, ghost)
	}
	// stable sid 4 (Paris,stool): one insert before, one delete before → rid 4
	if rid, ghost := p.SidToRid(4); rid != 4 || ghost {
		t.Errorf("SidToRid(4) = %d,%v", rid, ghost)
	}
}

func TestSnapshotIsIndependent(t *testing.T) {
	p := New(inventorySchema(), 0)
	stable := table0()
	ref := newRefModel(inventorySchema(), stable)
	applyInsert(t, p, ref, inv("Berlin", "chair", true, 1))
	applyModify(t, p, ref, 3, 3, types.Int(77))

	cp := p.Snapshot()
	if err := cp.Validate(); err != nil {
		t.Fatalf("snapshot invalid: %v", err)
	}
	// Mutate the snapshot; the original must not change.
	if err := cp.Modify(2, 3, types.Int(123)); err != nil {
		t.Fatal(err)
	}
	if err := cp.Insert(0, inv("Aachen", "rug", true, 9)); err != nil {
		t.Fatal(err)
	}
	checkAgainstRef(t, p, stable, ref)
	if cp.Count() == p.Count() {
		t.Error("snapshot mutation affected entry counts equally")
	}
}

func TestMemBytesAndEncodedSize(t *testing.T) {
	if EncodedEntrySize != 16 {
		t.Fatalf("paper requires 16-byte entries, got %d", EncodedEntrySize)
	}
	p := New(inventorySchema(), 0)
	stable := table0()
	ref := newRefModel(inventorySchema(), stable)
	if p.MemBytes() != 0 {
		t.Error("empty PDT should report 0 bytes")
	}
	applyModify(t, p, ref, 0, 3, types.Int(5))
	want := uint64(EncodedEntrySize + 8) // one entry + one int64 mod value
	if p.MemBytes() != want {
		t.Errorf("MemBytes = %d, want %d", p.MemBytes(), want)
	}
}

func TestDeepTreeGrowthAndOrder(t *testing.T) {
	// Force multi-level trees with a tiny fanout and many appended inserts.
	schema := types.MustSchema([]types.Column{
		{Name: "k", Kind: types.Int64},
		{Name: "v", Kind: types.Int64},
	}, []int{0})
	p := New(schema, 4)
	stable := []types.Row{}
	ref := newRefModel(schema, stable)
	for i := 0; i < 500; i++ {
		applyInsert(t, p, ref, types.Row{types.Int(int64(i)), types.Int(int64(i * 10))})
	}
	depth, leaves := p.DepthAndLeaves()
	if depth < 4 {
		t.Errorf("500 entries at fanout 4 should be deep, depth=%d leaves=%d", depth, leaves)
	}
	checkAgainstRef(t, p, stable, ref)
}

func TestInterleavedInsertsSharedSID(t *testing.T) {
	// Many inserts landing at the same stable position must keep their
	// left-to-right order (equal SIDs, ascending RIDs).
	schema := types.MustSchema([]types.Column{
		{Name: "k", Kind: types.Int64},
	}, []int{0})
	stable := []types.Row{{types.Int(0)}, {types.Int(1000)}}
	p := New(schema, 4)
	ref := newRefModel(schema, stable)
	for _, k := range []int64{500, 250, 750, 125, 375, 625, 875, 300, 700} {
		applyInsert(t, p, ref, types.Row{types.Int(k)})
	}
	checkAgainstRef(t, p, stable, ref)
	for _, e := range p.Entries() {
		if e.SID != 1 {
			t.Errorf("insert got SID %d, want 1 (before stable key 1000)", e.SID)
		}
	}
}

func TestEntryTupleAndString(t *testing.T) {
	p := New(inventorySchema(), 0)
	stable := table0()
	ref := newRefModel(inventorySchema(), stable)
	applyInsert(t, p, ref, inv("Berlin", "chair", true, 1))
	applyDelete(t, p, ref, 4) // (Paris,rug) shifted to rid 4
	applyModify(t, p, ref, 1, 3, types.Int(2))
	for _, e := range p.Entries() {
		if got := p.EntryTuple(e); len(got) == 0 {
			t.Errorf("EntryTuple empty for %+v", e)
		}
	}
	s := p.String()
	if s == "" {
		t.Error("String() empty")
	}
	checkAgainstRef(t, p, stable, ref)
}
