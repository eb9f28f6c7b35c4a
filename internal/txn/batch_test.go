package txn

// ApplyBatch equivalence tests: a batch applied through the shared
// resolution cursor must leave exactly the state the row-at-a-time
// Insert/DeleteByKey/UpdateByKey sequence leaves — under plain commits,
// under concurrent snapshots, across Write→Read migration and checkpoints,
// and through WAL replay.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"pdtstore/internal/engine"
	"pdtstore/internal/table"
	"pdtstore/internal/types"
	"pdtstore/internal/wal"
)

// snapshotRows drains every column of rel into comparable rows.
func snapshotRows(t *testing.T, rel engine.Relation) []types.Row {
	t.Helper()
	schema := rel.Schema()
	cols := make([]int, schema.NumCols())
	for i := range cols {
		cols[i] = i
	}
	b, err := engine.Scan(rel, cols...).Collect()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]types.Row, b.Len())
	for i := range out {
		out[i] = b.Row(i)
	}
	return out
}

// storeRows reads the manager's current stable image alone.
func storeRows(t *testing.T, m *Manager) []types.Row {
	t.Helper()
	img, err := table.FromStore(m.Store(), table.Options{Mode: table.ModeNone})
	if err != nil {
		t.Fatal(err)
	}
	return snapshotRows(t, img)
}

func sameRows(t *testing.T, got, want []types.Row, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range got {
		if types.CompareRows(got[i], want[i]) != 0 {
			t.Fatalf("%s: row %d is %v, want %v", label, i, got[i], want[i])
		}
	}
}

// randomBatch builds a batch of nOps ops over distinct keys: deletes and
// updates of (possibly absent) keys in [10, 10*tableRows], inserts of fresh
// odd keys.
func randomBatch(rng *rand.Rand, tableRows, nOps int, tag *int64) []table.Op {
	used := map[int64]bool{}
	ops := make([]table.Op, 0, nOps)
	for len(ops) < nOps {
		switch rng.Intn(3) {
		case 0: // insert a fresh odd key
			*tag++
			k := (*tag)*10 + 5
			if used[k] {
				continue
			}
			used[k] = true
			ops = append(ops, table.Op{Kind: table.OpInsert,
				Row: types.Row{types.Int(k), types.Int(*tag), types.Str(fmt.Sprintf("ins%d", *tag))}})
		case 1: // delete a random (maybe missing) even key
			k := int64(1+rng.Intn(tableRows+4)) * 10
			if used[k] {
				continue
			}
			used[k] = true
			ops = append(ops, table.Op{Kind: table.OpDelete, Key: types.Row{types.Int(k)}})
		default: // update a random (maybe missing) even key
			k := int64(1+rng.Intn(tableRows+4)) * 10
			if used[k] {
				continue
			}
			used[k] = true
			*tag++
			col := 1 + rng.Intn(2)
			v := types.Int(*tag)
			if col == 2 {
				v = types.Str(fmt.Sprintf("upd%d", *tag))
			}
			ops = append(ops, table.Op{Kind: table.OpUpdate, Key: types.Row{types.Int(k)}, Col: col, Val: v})
		}
	}
	return ops
}

// applyPerOp plays a batch through the row-at-a-time API.
func applyPerOp(t *testing.T, tx *Txn, ops []table.Op) int {
	t.Helper()
	applied := 0
	for _, op := range ops {
		switch op.Kind {
		case table.OpInsert:
			if err := tx.Insert(op.Row); err != nil {
				t.Fatal(err)
			}
			applied++
		case table.OpDelete:
			ok, err := tx.DeleteByKey(op.Key)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				applied++
			}
		case table.OpUpdate:
			ok, err := tx.UpdateByKey(op.Key, op.Col, op.Val)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				applied++
			}
		}
	}
	return applied
}

func TestApplyBatchMatchesPerOp(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			mBatch := newManager(t, 30, Options{})
			mPerOp := newManager(t, 30, Options{})
			rng := rand.New(rand.NewSource(seed))
			tagA, tagB := int64(0), int64(0)
			for round := 0; round < 4; round++ {
				ops := randomBatch(rng, 30, 25, &tagA)
				tagB = tagA // generators share the key sequence

				txB := mBatch.Begin()
				nB, err := txB.ApplyBatch(ops)
				if err != nil {
					t.Fatal(err)
				}
				txP := mPerOp.Begin()
				nP := applyPerOp(t, txP, ops)
				if nB != nP {
					t.Fatalf("batch applied %d ops, per-op %d", nB, nP)
				}
				// Views agree before commit (read-your-own-writes)...
				sameRows(t, snapshotRows(t, txB), snapshotRows(t, txP), "pre-commit view")
				if err := txB.Commit(); err != nil {
					t.Fatal(err)
				}
				if err := txP.Commit(); err != nil {
					t.Fatal(err)
				}
				// ...and after commit.
				vb, vp := mBatch.Begin(), mPerOp.Begin()
				sameRows(t, snapshotRows(t, vb), snapshotRows(t, vp), "committed view")
				vb.Abort()
				vp.Abort()
				_ = tagB
			}
			// Fold everything down and compare the stable images too.
			if err := mBatch.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := mPerOp.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			sameRows(t, storeRows(t, mBatch), storeRows(t, mPerOp), "checkpointed image")
		})
	}
}

func TestApplyBatchSnapshotIsolation(t *testing.T) {
	m := newManager(t, 20, Options{})

	reader := m.Begin() // starts before any batch
	before := snapshotRows(t, reader)

	writer := m.Begin()
	if _, err := writer.ApplyBatch([]table.Op{
		{Kind: table.OpInsert, Row: types.Row{types.Int(15), types.Int(1), types.Str("x")}},
		{Kind: table.OpDelete, Key: types.Row{types.Int(40)}},
		{Kind: table.OpUpdate, Key: types.Row{types.Int(70)}, Col: 1, Val: types.Int(99)},
	}); err != nil {
		t.Fatal(err)
	}
	if err := writer.Commit(); err != nil {
		t.Fatal(err)
	}

	// The earlier snapshot must not see the batch.
	sameRows(t, snapshotRows(t, reader), before, "isolated snapshot")

	// A batch applied on the old snapshot over keys the writer did not
	// touch serializes cleanly against the committed batch.
	if _, err := reader.ApplyBatch([]table.Op{
		{Kind: table.OpUpdate, Key: types.Row{types.Int(100)}, Col: 1, Val: types.Int(-1)},
	}); err != nil {
		t.Fatal(err)
	}
	if err := reader.Commit(); err != nil {
		t.Fatal(err)
	}
	final := m.Begin()
	defer final.Abort()
	rows := snapshotRows(t, final)
	wantGone, sawIns, sawUpd := true, false, false
	for _, r := range rows {
		switch r[0].I {
		case 40:
			wantGone = false
		case 15:
			sawIns = true
		case 100:
			sawUpd = r[1].I == -1
		}
	}
	if !wantGone || !sawIns || !sawUpd {
		t.Fatalf("merged batches wrong: gone=%v ins=%v upd=%v\n%v", wantGone, sawIns, sawUpd, rows)
	}
}

func TestApplyBatchConflictAborts(t *testing.T) {
	m := newManager(t, 10, Options{})
	a, b := m.Begin(), m.Begin()
	upd := []table.Op{{Kind: table.OpUpdate, Key: types.Row{types.Int(50)}, Col: 1, Val: types.Int(1)}}
	if _, err := a.ApplyBatch(upd); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ApplyBatch(upd); err != nil {
		t.Fatal(err)
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("expected conflict, got %v", err)
	}
}

func TestApplyBatchWALReplay(t *testing.T) {
	var buf bytes.Buffer
	m := newManager(t, 25, Options{Log: wal.NewWriter(&buf)})
	rng := rand.New(rand.NewSource(7))
	tag := int64(0)
	for round := 0; round < 3; round++ {
		tx := m.Begin()
		if _, err := tx.ApplyBatch(randomBatch(rng, 25, 15, &tag)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	live := m.Begin()
	want := snapshotRows(t, live)
	live.Abort()

	// Crash-recover: a fresh manager over the same checkpointed image
	// replays the log and must reach the identical view.
	recovered := newManager(t, 25, Options{})
	records, err := wal.Replay(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 3 {
		t.Fatalf("replayed %d records, want 3", len(records))
	}
	if err := recovered.Recover(records); err != nil {
		t.Fatal(err)
	}
	tx := recovered.Begin()
	defer tx.Abort()
	sameRows(t, snapshotRows(t, tx), want, "recovered view")
}

func TestApplyBatchRejectsBadBatches(t *testing.T) {
	m := newManager(t, 10, Options{})
	tx := m.Begin()
	defer tx.Abort()

	// Duplicate-key insert aborts with an error.
	if _, err := tx.ApplyBatch([]table.Op{
		{Kind: table.OpInsert, Row: types.Row{types.Int(50), types.Int(0), types.Str("dup")}},
	}); err == nil {
		t.Fatal("duplicate-key insert accepted")
	}

	// Conflicting same-key ops are rejected up front.
	if _, err := tx.ApplyBatch([]table.Op{
		{Kind: table.OpDelete, Key: types.Row{types.Int(30)}},
		{Kind: table.OpInsert, Row: types.Row{types.Int(30), types.Int(0), types.Str("re")}},
	}); err == nil {
		t.Fatal("delete+insert of one key accepted")
	}

	// Sort-key updates must go through UpdateByKey.
	if _, err := tx.ApplyBatch([]table.Op{
		{Kind: table.OpUpdate, Key: types.Row{types.Int(30)}, Col: 0, Val: types.Int(31)},
	}); err == nil {
		t.Fatal("sort-key update accepted")
	}

	// Two updates of one key are fine and apply in order.
	if n, err := tx.ApplyBatch([]table.Op{
		{Kind: table.OpUpdate, Key: types.Row{types.Int(30)}, Col: 1, Val: types.Int(7)},
		{Kind: table.OpUpdate, Key: types.Row{types.Int(30)}, Col: 1, Val: types.Int(8)},
	}); err != nil || n != 2 {
		t.Fatalf("same-key updates: n=%d err=%v", n, err)
	}
	var got int64
	for _, r := range snapshotRows(t, tx) {
		if r[0].I == 30 {
			got = r[1].I
		}
	}
	if got != 8 {
		t.Fatalf("last update should win, got %d", got)
	}
}

// TestApplyBatchAcrossMigration drives enough batched commits through a tiny
// write budget that Write→Read propagation (the bulk merge) runs mid-stream,
// and checks the view against a per-op twin with an unbounded budget.
func TestApplyBatchAcrossMigration(t *testing.T) {
	small := newManager(t, 40, Options{WriteBudget: 1}) // migrate after every commit
	big := newManager(t, 40, Options{WriteBudget: 1 << 30})
	rng := rand.New(rand.NewSource(3))
	tag := int64(0)
	for round := 0; round < 6; round++ {
		ops := randomBatch(rng, 40, 20, &tag)
		txS := small.Begin()
		if _, err := txS.ApplyBatch(ops); err != nil {
			t.Fatal(err)
		}
		if err := txS.Commit(); err != nil {
			t.Fatal(err)
		}
		txB := big.Begin()
		applyPerOp(t, txB, ops)
		if err := txB.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := small.WaitMaintenance(); err != nil { // migration is a background fold now
		t.Fatal(err)
	}
	if small.ReadPDT().Empty() {
		t.Fatal("write budget never triggered a migration")
	}
	a, b := small.Begin(), big.Begin()
	defer a.Abort()
	defer b.Abort()
	sameRows(t, snapshotRows(t, a), snapshotRows(t, b), "post-migration view")
}
