package txn

import (
	"fmt"
	"testing"

	"pdtstore/internal/pdt"
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

// TestScanJudgesLayersWhenOpened: engine.StackPDTs drops an empty layer when
// the source is opened, so the first write a fresh transaction makes under an
// open scan of its own does not reach that scan; the next scan sees it. A
// statement that writes while it reads must not lean on that: it runs under
// BeginQuery, and reads one and the same view whether the Trans-PDT was empty
// or live when its scan was opened.
func TestScanJudgesLayersWhenOpened(t *testing.T) {
	drain := func(src pdt.BatchSource, out *vector.Batch) {
		for {
			if n, err := src.Next(out, 3); err != nil {
				t.Fatal(err)
			} else if n == 0 {
				return
			}
		}
	}
	rowsOf := func(b *vector.Batch) []types.Row {
		rows := make([]types.Row, b.Len())
		for i := range rows {
			rows[i] = b.Row(i)
		}
		return rows
	}
	cols, kinds := []int{0, 1, 2}, []types.Kind{types.Int64, types.Int64, types.String}

	m := newManager(t, 10, Options{})
	tx := m.Begin()
	defer tx.Abort()
	before := snapshotRows(t, tx)
	src, err := tx.Scan(cols, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := vector.NewBatch(kinds, 16)
	if _, err := src.Next(out, 3); err != nil {
		t.Fatal(err)
	}
	// The Trans-PDT's first entry, ahead of the open scan's position.
	if err := tx.Insert(types.Row{types.Int(55), types.Int(0), types.Str("late")}); err != nil {
		t.Fatal(err)
	}
	drain(src, out)
	sameRows(t, rowsOf(out), before, "scan opened over the empty Trans-PDT")
	if after := snapshotRows(t, tx); len(after) != len(before)+1 {
		t.Fatalf("a scan opened after the write reads %d rows, want %d", len(after), len(before)+1)
	}

	for _, live := range []bool{false, true} {
		tx := m.Begin()
		if live {
			if err := tx.Insert(types.Row{types.Int(15), types.Int(0), types.Str("tx")}); err != nil {
				t.Fatal(err)
			}
		}
		q, err := tx.BeginQuery()
		if err != nil {
			t.Fatal(err)
		}
		view := snapshotRows(t, q)
		src, err := q.Scan(cols, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		out.Reset()
		for read := 0; ; {
			n, err := src.Next(out, 3)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				break
			}
			for ; read < out.Len(); read++ { // INSERT INTO t SELECT key+1 FROM t
				if err := q.Insert(types.Row{types.Int(out.Vecs[0].I[read] + 1), types.Int(0), types.Str("q")}); err != nil {
					t.Fatal(err)
				}
			}
		}
		sameRows(t, rowsOf(out), view, fmt.Sprintf("statement scan (Trans-PDT live at open: %v)", live))
		if err := q.Finish(); err != nil {
			t.Fatal(err)
		}
		if after := snapshotRows(t, tx); len(after) != 2*len(view) {
			t.Fatalf("after Finish (live %v): %d rows, want %d", live, len(after), 2*len(view))
		}
		tx.Abort()
	}
}
