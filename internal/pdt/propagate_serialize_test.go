package pdt

// Tests for the two transaction-management transforms: the downward merge
// (fold a consecutive PDT into the one below — every case goes through
// fold_test.go's checkFold, so Fold, per-entry Propagate and FoldSnap all
// answer it) and Serialize (re-base an aligned PDT onto a committed sibling,
// detecting write-write conflicts).

import (
	"errors"
	"testing"

	"pdtstore/internal/types"
)

func TestPropagateBasic(t *testing.T) {
	schema := intSchema()
	stable := buildIntTable(20)
	lower := New(schema, 4)
	ref := newRefModel(schema, stable)

	applyInsert(t, lower, ref, types.Row{types.Int(15), types.Int(1), types.Str("r")})
	applyDelete(t, lower, ref, 5)
	applyModify(t, lower, ref, 10, 1, types.Int(111))

	upper := New(schema, 4)
	applyInsert(t, upper, ref, types.Row{types.Int(17), types.Int(2), types.Str("w")})
	applyModify(t, upper, ref, 0, 1, types.Int(222))
	applyDelete(t, upper, ref, 8)

	checkFold(t, lower, upper, stable, ref)
}

func TestPropagateEmptyUpper(t *testing.T) {
	schema := intSchema()
	stable := buildIntTable(5)
	lower := New(schema, 4)
	ref := newRefModel(schema, stable)
	applyInsert(t, lower, ref, types.Row{types.Int(11), types.Int(0), types.Str("x")})
	checkFold(t, lower, New(schema, 4), stable, ref)
}

func TestPropagateIntoEmptyLower(t *testing.T) {
	schema := intSchema()
	stable := buildIntTable(5)
	lower := New(schema, 4)
	ref := newRefModel(schema, stable)
	upper := New(schema, 4)
	applyDelete(t, upper, ref, 3)
	applyInsert(t, upper, ref, types.Row{types.Int(12), types.Int(0), types.Str("y")})
	checkFold(t, lower, upper, stable, ref)
}

func TestPropagateCollapsesUpperOntoLowerEntries(t *testing.T) {
	// Upper deletes a tuple the lower inserted, and modifies a tuple the
	// lower modified: the lower PDT must collapse both.
	schema := intSchema()
	stable := buildIntTable(10)
	lower := New(schema, 4)
	ref := newRefModel(schema, stable)
	applyInsert(t, lower, ref, types.Row{types.Int(15), types.Int(5), types.Str("tmp")}) // rid 1
	applyModify(t, lower, ref, 4, 1, types.Int(44))

	upper := New(schema, 4)
	applyDelete(t, upper, ref, 1)                   // deletes the lower's insert
	applyModify(t, upper, ref, 3, 1, types.Int(55)) // re-modifies same tuple+col

	lower = checkFold(t, lower, upper, stable, ref)
	ins, del, mod := lower.Counts()
	if ins != 0 || del != 0 || mod != 1 {
		t.Errorf("counts after collapse: ins=%d del=%d mod=%d, want 0/0/1", ins, del, mod)
	}
}

// --- Serialize ---------------------------------------------------------------

// opKind names a logical operation's kind.
type opKind int

const (
	opInsert opKind = iota
	opDelete
	opModify
)

// logicalOp describes a transaction operation in snapshot terms, so the test
// can replay it through any serialization order.
type logicalOp struct {
	kind opKind
	key  int64     // identifies the tuple (snapshot key for del/mod)
	row  types.Row // for inserts
	col  int       // for modifies
	val  types.Value
}

// buildTxn applies ops against a private copy of the snapshot, recording them
// in a fresh fanout-3 PDT (aligned with the snapshot).
func buildTxn(t *testing.T, schema *types.Schema, snapshot []types.Row, ops []logicalOp) *PDT {
	t.Helper()
	p := New(schema, 3)
	applyOpsByKey(t, p, newRefModel(schema, snapshot), ops)
	return p
}

func findKeyRid(ref *refModel, key int64) int {
	for i, r := range ref.rows {
		if r[0].I == key {
			return i
		}
	}
	return -1
}

// writeSet is what a transaction's ops leave for a concurrent one to collide
// with: the keys it inserted and did not delete again, the snapshot tuples it
// deleted, and the columns it modified of the snapshot tuples it kept.
type writeSet struct {
	ins, del map[int64]bool
	mod      map[int64]map[int]bool
}

func writesOf(ops []logicalOp) writeSet {
	w := writeSet{ins: map[int64]bool{}, del: map[int64]bool{}, mod: map[int64]map[int]bool{}}
	for _, op := range ops {
		switch {
		case op.kind == opInsert:
			w.ins[op.row[0].I] = true
		case w.ins[op.key]: // the transaction's own insert
			if op.kind == opDelete {
				delete(w.ins, op.key)
			}
		case op.kind == opDelete:
			w.del[op.key] = true
			delete(w.mod, op.key)
		default:
			if w.mod[op.key] == nil {
				w.mod[op.key] = map[int]bool{}
			}
			w.mod[op.key][op.col] = true
		}
	}
	return w
}

// naiveConflict reports whether x conflicts with committed y under
// tuple-level write sets with per-column modify reconciliation.
func naiveConflict(x, y []logicalOp) bool {
	wx, wy := writesOf(x), writesOf(y)
	for k := range wx.ins {
		if wy.ins[k] {
			return true
		}
	}
	for k := range wx.del {
		if wy.del[k] || wy.mod[k] != nil {
			return true
		}
	}
	for k, cols := range wx.mod {
		for c := range cols {
			if wy.del[k] || wy.mod[k][c] {
				return true
			}
		}
	}
	return false
}

// applyOpsByKey replays logical ops against p and ref, locating tuples by key
// (the serial re-execution semantics Serialize must reproduce).
func applyOpsByKey(t *testing.T, p *PDT, ref *refModel, ops []logicalOp) {
	t.Helper()
	for _, op := range ops {
		rid := findKeyRid(ref, op.key)
		if op.kind != opInsert && rid < 0 {
			t.Fatalf("test bug: key %d not visible", op.key)
		}
		switch op.kind {
		case opInsert:
			applyInsert(t, p, ref, op.row)
		case opDelete:
			applyDelete(t, p, ref, rid)
		case opModify:
			applyModify(t, p, ref, rid, op.col, op.val)
		}
	}
}

func TestSerializeNoConflictDisjoint(t *testing.T) {
	schema := intSchema()
	snapshot := buildIntTable(20) // keys 10..200

	xOps := []logicalOp{
		{kind: opInsert, row: types.Row{types.Int(15), types.Int(1), types.Str("x")}},
		{kind: opModify, key: 100, col: 1, val: types.Int(111)},
		{kind: opDelete, key: 130},
	}
	yOps := []logicalOp{
		{kind: opInsert, row: types.Row{types.Int(25), types.Int(2), types.Str("y")}},
		{kind: opModify, key: 50, col: 2, val: types.Str("yy")},
		{kind: opDelete, key: 180},
	}
	tx := buildTxn(t, schema, snapshot, xOps)
	ty := buildTxn(t, schema, snapshot, yOps)

	txPrime, err := tx.Serialize(ty)
	if err != nil {
		t.Fatalf("unexpected conflict: %v", err)
	}
	if err := txPrime.Validate(); err != nil {
		t.Fatalf("serialized PDT invalid: %v", err)
	}

	checkSerialExecution(t, schema, snapshot, xOps, yOps, txPrime)
}

// checkSerialExecution folds the serialized x' onto y's own PDT (checkFold:
// all three downward merges) and holds the result to serial re-execution
// semantics: y's updates, then x's write set located by key — the rows x
// left where it inserted, its deletes, and the values it left where it
// modified; what x wrote and undid again is not in its PDT.
func checkSerialExecution(t *testing.T, schema *types.Schema, snapshot []types.Row, xOps, yOps []logicalOp, txPrime *PDT) *PDT {
	t.Helper()
	ref, x := newRefModel(schema, snapshot), newRefModel(schema, snapshot)
	replayByKey(t, ref, yOps)
	replayByKey(t, x, xOps)
	w := writesOf(xOps)
	for k := range w.del {
		ref.deleteAt(findKeyRid(ref, k))
	}
	for k := range w.ins {
		row := x.rows[findKeyRid(x, k)]
		ref.insertAt(ref.insertRid(row), row)
	}
	for k, cols := range w.mod {
		for c := range cols {
			ref.modifyAt(findKeyRid(ref, k), c, x.rows[findKeyRid(x, k)][c])
		}
	}
	return checkFold(t, buildTxn(t, schema, snapshot, yOps), txPrime, snapshot, ref)
}

// replayByKey applies logical ops to a reference only.
func replayByKey(t *testing.T, ref *refModel, ops []logicalOp) {
	t.Helper()
	for _, op := range ops {
		switch op.kind {
		case opInsert:
			ref.insertAt(ref.insertRid(op.row), op.row)
		case opDelete:
			ref.deleteAt(findKeyRid(ref, op.key))
		case opModify:
			ref.modifyAt(findKeyRid(ref, op.key), op.col, op.val)
		}
	}
}

func TestSerializeConflicts(t *testing.T) {
	schema := intSchema()
	snapshot := buildIntTable(10) // keys 10..100

	cases := []struct {
		name string
		x, y []logicalOp
	}{
		{"insert same key", []logicalOp{
			{kind: opInsert, row: types.Row{types.Int(15), types.Int(1), types.Str("x")}},
		}, []logicalOp{
			{kind: opInsert, row: types.Row{types.Int(15), types.Int(2), types.Str("y")}},
		}},
		{"both delete same tuple", []logicalOp{
			{kind: opDelete, key: 50},
		}, []logicalOp{
			{kind: opDelete, key: 50},
		}},
		{"x modifies tuple y deleted", []logicalOp{
			{kind: opModify, key: 50, col: 1, val: types.Int(1)},
		}, []logicalOp{
			{kind: opDelete, key: 50},
		}},
		{"x deletes tuple y modified", []logicalOp{
			{kind: opDelete, key: 50},
		}, []logicalOp{
			{kind: opModify, key: 50, col: 1, val: types.Int(1)},
		}},
		{"same column modified", []logicalOp{
			{kind: opModify, key: 50, col: 1, val: types.Int(1)},
		}, []logicalOp{
			{kind: opModify, key: 50, col: 1, val: types.Int(2)},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tx := buildTxn(t, schema, snapshot, c.x)
			ty := buildTxn(t, schema, snapshot, c.y)
			_, err := tx.Serialize(ty)
			var conflict *ConflictError
			if !errors.As(err, &conflict) {
				t.Fatalf("expected ConflictError, got %v", err)
			}
		})
	}
}

func TestSerializeModDifferentColumnsReconciles(t *testing.T) {
	schema := intSchema()
	snapshot := buildIntTable(10)
	xOps := []logicalOp{{kind: opModify, key: 50, col: 1, val: types.Int(1)}}
	yOps := []logicalOp{{kind: opModify, key: 50, col: 2, val: types.Str("y")}}
	tx := buildTxn(t, schema, snapshot, xOps)
	ty := buildTxn(t, schema, snapshot, yOps)
	txPrime, err := tx.Serialize(ty)
	if err != nil {
		t.Fatalf("different-column modifies must reconcile: %v", err)
	}
	checkSerialExecution(t, schema, snapshot, xOps, yOps, txPrime)
}

func TestSerializeInsertVsDeleteNoConflict(t *testing.T) {
	// y deletes stable key 50; x inserts key 45, which lands at the same
	// stable position. Inserts never conflict with deletes.
	schema := intSchema()
	snapshot := buildIntTable(10)
	xOps := []logicalOp{{kind: opInsert, row: types.Row{types.Int(45), types.Int(0), types.Str("x")}}}
	yOps := []logicalOp{{kind: opDelete, key: 50}}
	tx := buildTxn(t, schema, snapshot, xOps)
	ty := buildTxn(t, schema, snapshot, yOps)
	txPrime, err := tx.Serialize(ty)
	if err != nil {
		t.Fatalf("insert vs delete conflicted: %v", err)
	}
	checkSerialExecution(t, schema, snapshot, xOps, yOps, txPrime)
}

func TestSerializeConcurrentInsertsSameSID(t *testing.T) {
	// Both transactions insert between stable keys 40 and 50 — different
	// keys, same SID. The serialized order must interleave them by key.
	schema := intSchema()
	snapshot := buildIntTable(10)
	xOps := []logicalOp{
		{kind: opInsert, row: types.Row{types.Int(44), types.Int(1), types.Str("x1")}},
		{kind: opInsert, row: types.Row{types.Int(48), types.Int(2), types.Str("x2")}},
	}
	yOps := []logicalOp{
		{kind: opInsert, row: types.Row{types.Int(42), types.Int(3), types.Str("y1")}},
		{kind: opInsert, row: types.Row{types.Int(46), types.Int(4), types.Str("y2")}},
	}
	tx := buildTxn(t, schema, snapshot, xOps)
	ty := buildTxn(t, schema, snapshot, yOps)
	txPrime, err := tx.Serialize(ty)
	if err != nil {
		t.Fatal(err)
	}
	merged := checkSerialExecution(t, schema, snapshot, xOps, yOps, txPrime)
	// Verify key interleaving in the final image: 40,42,44,46,48,50.
	out := mergeAll(t, merged, snapshot)
	wantKeys := []int64{10, 20, 30, 40, 42, 44, 46, 48, 50}
	for i, k := range wantKeys {
		if out.Vecs[0].I[i] != k {
			t.Fatalf("key %d = %d, want %d", i, out.Vecs[0].I[i], k)
		}
	}
}
