package txn

import (
	"testing"

	"pdtstore/internal/types"
	"pdtstore/internal/vector"
)

func TestQueryPDTSelfProtection(t *testing.T) {
	// The Halloween-problem scenario: a statement inserts rows derived from
	// what it scans; its own inserts must stay invisible until Finish.
	m := newManager(t, 10, Options{}) // keys 10..100
	tx := m.Begin()
	defer tx.Abort()

	q, err := tx.BeginQuery()
	if err != nil {
		t.Fatal(err)
	}
	// "INSERT INTO t SELECT key+1 ..." — scan while inserting.
	keysBefore := txnKeys(t, tx)
	for _, k := range keysBefore {
		if err := q.Insert(types.Row{types.Int(k + 1), types.Int(0), types.Str("q")}); err != nil {
			t.Fatalf("insert %d: %v", k+1, err)
		}
		// The statement's view must not grow while it runs.
		if got := len(txnKeys(t, tx)); got != len(keysBefore) {
			t.Fatalf("statement observes its own writes: %d rows", got)
		}
	}
	if q.Pending() != len(keysBefore) {
		t.Fatalf("pending = %d", q.Pending())
	}
	if err := q.Finish(); err != nil {
		t.Fatal(err)
	}
	// After Finish the transaction sees everything.
	after := txnKeys(t, tx)
	if len(after) != 2*len(keysBefore) {
		t.Fatalf("after finish: %d rows, want %d", len(after), 2*len(keysBefore))
	}
	// And commits propagate as usual.
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	check := m.Begin()
	defer check.Abort()
	if len(txnKeys(t, check)) != 2*len(keysBefore) {
		t.Fatal("query-PDT updates lost at commit")
	}
}

func TestQueryPDTUpdateDeleteAndDiscard(t *testing.T) {
	m := newManager(t, 10, Options{})
	tx := m.Begin()
	defer tx.Abort()

	q, err := tx.BeginQuery()
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := q.UpdateByKey(types.Row{types.Int(20)}, 1, types.Int(777)); err != nil || !ok {
		t.Fatalf("update: %v %v", ok, err)
	}
	if ok, err := q.DeleteByKey(types.Row{types.Int(30)}); err != nil || !ok {
		t.Fatalf("delete: %v %v", ok, err)
	}
	// double delete within the statement: not found
	if ok, _ := q.DeleteByKey(types.Row{types.Int(30)}); ok {
		t.Fatal("double delete in one statement succeeded")
	}
	// frozen view: the transaction still sees the original state
	if _, row, found, _ := tx.FindByKey(types.Row{types.Int(20)}); !found || row[1].I == 777 {
		t.Fatal("statement write leaked into the frozen view")
	}
	if err := q.Finish(); err != nil {
		t.Fatal(err)
	}
	_, row, found, _ := tx.FindByKey(types.Row{types.Int(20)})
	if !found || row[1].I != 777 {
		t.Fatal("update not visible after Finish")
	}
	if _, _, found, _ := tx.FindByKey(types.Row{types.Int(30)}); found {
		t.Fatal("delete not visible after Finish")
	}

	// Discard: a second statement's writes vanish.
	q2, err := tx.BeginQuery()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q2.UpdateByKey(types.Row{types.Int(40)}, 1, types.Int(1)); err != nil {
		t.Fatal(err)
	}
	q2.Discard()
	if _, row, _, _ := tx.FindByKey(types.Row{types.Int(40)}); row[1].I == 1 {
		t.Fatal("discarded statement leaked")
	}
	if err := q2.Finish(); err == nil {
		t.Fatal("finish after discard accepted")
	}
}

func TestQueryPDTDuplicateInsert(t *testing.T) {
	m := newManager(t, 5, Options{})
	tx := m.Begin()
	defer tx.Abort()
	q, err := tx.BeginQuery()
	if err != nil {
		t.Fatal(err)
	}
	// duplicate against the frozen view
	if err := q.Insert(types.Row{types.Int(10), types.Int(0), types.Str("d")}); err == nil {
		t.Fatal("duplicate of stable key accepted")
	}
	// duplicate against the statement's own pending insert
	if err := q.Insert(types.Row{types.Int(11), types.Int(0), types.Str("a")}); err != nil {
		t.Fatal(err)
	}
	if err := q.Insert(types.Row{types.Int(11), types.Int(0), types.Str("b")}); err == nil {
		t.Fatal("duplicate of pending insert accepted")
	}
}

// TestQueryFinishLeavesOpenScansAlone: Finish installs a new Trans-PDT rather
// than rewriting the one in place, so a scan opened before it drains the
// pre-Finish view — including a row the transaction inserted and the
// statement then modified, which an in-place fold rewrites under the scan.
func TestQueryFinishLeavesOpenScansAlone(t *testing.T) {
	m := newManager(t, 10, Options{})
	tx := m.Begin()
	defer tx.Abort()
	if err := tx.Insert(types.Row{types.Int(15), types.Int(1), types.Str("tx")}); err != nil {
		t.Fatal(err)
	}
	q, err := tx.BeginQuery()
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := q.UpdateByKey(types.Row{types.Int(15)}, 1, types.Int(777)); err != nil || !ok {
		t.Fatalf("update: %v %v", ok, err)
	}
	if ok, err := q.DeleteByKey(types.Row{types.Int(30)}); err != nil || !ok {
		t.Fatalf("delete: %v %v", ok, err)
	}
	if err := q.Insert(types.Row{types.Int(55), types.Int(0), types.Str("q")}); err != nil {
		t.Fatal(err)
	}

	before := snapshotRows(t, tx)
	src, err := tx.Scan([]int{0, 1, 2}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Finish(); err != nil {
		t.Fatal(err)
	}
	out := vector.NewBatch([]types.Kind{types.Int64, types.Int64, types.String}, 64)
	for {
		n, err := src.Next(out, 64)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
	}
	got := make([]types.Row, out.Len())
	for i := range got {
		got[i] = out.Row(i)
	}
	sameRows(t, got, before, "scan opened before Finish")

	after := snapshotRows(t, tx)
	if len(after) != len(before) { // one delete, one insert
		t.Fatalf("after Finish: %d rows, want %d", len(after), len(before))
	}
	if _, row, found, _ := tx.FindByKey(types.Row{types.Int(15)}); !found || row[1].I != 777 {
		t.Fatalf("statement's update missing after Finish: %v %v", row, found)
	}
}
