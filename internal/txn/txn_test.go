package txn

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"pdtstore/internal/colstore"
	"pdtstore/internal/pdt"
	"pdtstore/internal/table"
	"pdtstore/internal/types"
	"pdtstore/internal/vector"
	"pdtstore/internal/wal"
)

func testSchema() *types.Schema {
	return types.MustSchema([]types.Column{
		{Name: "k", Kind: types.Int64},
		{Name: "a", Kind: types.Int64},
		{Name: "b", Kind: types.String},
	}, []int{0})
}

func newManager(t *testing.T, n int, opts Options) *Manager {
	t.Helper()
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.Int(int64((i + 1) * 10)), types.Int(int64(i)), types.Str(fmt.Sprintf("s%d", i))}
	}
	tbl, err := table.Load(testSchema(), rows, table.Options{Mode: table.ModePDT, BlockRows: 32})
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(tbl.Store(), nil, opts)
	return m
}

func txnKeys(t *testing.T, tx *Txn) []int64 {
	t.Helper()
	src, err := tx.Scan([]int{0}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := vector.NewBatch([]types.Kind{types.Int64}, 64)
	for {
		n, err := src.Next(out, 64)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
	}
	return append([]int64(nil), out.Vecs[0].I...)
}

func TestCommitVisibility(t *testing.T) {
	m := newManager(t, 10, Options{})

	tx := m.Begin()
	if err := tx.Insert(types.Row{types.Int(15), types.Int(0), types.Str("new")}); err != nil {
		t.Fatal(err)
	}
	// Uncommitted: other transactions must not see it.
	other := m.Begin()
	if len(txnKeys(t, other)) != 10 {
		t.Fatal("uncommitted insert visible to concurrent snapshot")
	}
	// The inserting transaction sees its own write.
	if len(txnKeys(t, tx)) != 11 {
		t.Fatal("transaction does not see its own insert")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Snapshots taken before the commit still don't see it.
	if len(txnKeys(t, other)) != 10 {
		t.Fatal("commit leaked into older snapshot")
	}
	other.Abort()
	// New transactions do.
	after := m.Begin()
	defer after.Abort()
	if len(txnKeys(t, after)) != 11 {
		t.Fatal("committed insert not visible to new snapshot")
	}
}

func TestReadYourOwnWrites(t *testing.T) {
	m := newManager(t, 10, Options{})
	tx := m.Begin()
	defer tx.Abort()
	key := types.Row{types.Int(30)}
	if ok, err := tx.UpdateByKey(key, 1, types.Int(999)); err != nil || !ok {
		t.Fatalf("update: %v %v", ok, err)
	}
	_, row, found, err := tx.FindByKey(key)
	if err != nil || !found || row[1].I != 999 {
		t.Fatalf("own write invisible: %v %v %v", row, found, err)
	}
	if ok, err := tx.DeleteByKey(key); err != nil || !ok {
		t.Fatalf("delete: %v %v", ok, err)
	}
	if _, _, found, _ := tx.FindByKey(key); found {
		t.Fatal("own delete invisible")
	}
	if err := tx.Insert(types.Row{types.Int(30), types.Int(7), types.Str("re")}); err != nil {
		t.Fatalf("reinsert of own-deleted key: %v", err)
	}
}

func TestWriteWriteConflictAborts(t *testing.T) {
	m := newManager(t, 10, Options{})
	a := m.Begin()
	b := m.Begin()
	key := types.Row{types.Int(50)}
	if _, err := a.UpdateByKey(key, 1, types.Int(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.UpdateByKey(key, 1, types.Int(2)); err != nil {
		t.Fatal(err)
	}
	if err := a.Commit(); err != nil {
		t.Fatalf("first commit: %v", err)
	}
	err := b.Commit()
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("expected conflict, got %v", err)
	}
	// Loser's changes must not be visible.
	check := m.Begin()
	defer check.Abort()
	_, row, _, _ := check.FindByKey(key)
	if row[1].I != 1 {
		t.Fatalf("final value = %d, want winner's 1", row[1].I)
	}
}

func TestDifferentColumnsReconcile(t *testing.T) {
	m := newManager(t, 10, Options{})
	a := m.Begin()
	b := m.Begin()
	key := types.Row{types.Int(50)}
	if _, err := a.UpdateByKey(key, 1, types.Int(11)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.UpdateByKey(key, 2, types.Str("bb")); err != nil {
		t.Fatal(err)
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); err != nil {
		t.Fatalf("different-column commits must reconcile: %v", err)
	}
	check := m.Begin()
	defer check.Abort()
	_, row, _, _ := check.FindByKey(key)
	if row[1].I != 11 || row[2].S != "bb" {
		t.Fatalf("reconciled row = %v", row)
	}
}

func TestThreeTransactionPaperExample(t *testing.T) {
	// Figure 15: a and b start from the same snapshot; b commits, then a
	// commits (serializing against b), then c (started after b's commit)
	// commits, serializing against a only.
	m := newManager(t, 20, Options{})
	a := m.Begin()
	b := m.Begin()
	if err := b.Insert(types.Row{types.Int(15), types.Int(0), types.Str("b")}); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	c := m.Begin()
	if _, err := a.UpdateByKey(types.Row{types.Int(100)}, 1, types.Int(1)); err != nil {
		t.Fatal(err)
	}
	if err := a.Commit(); err != nil {
		t.Fatalf("a: %v", err)
	}
	if _, err := c.UpdateByKey(types.Row{types.Int(200)}, 1, types.Int(2)); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(); err != nil {
		t.Fatalf("c: %v", err)
	}
	check := m.Begin()
	defer check.Abort()
	keys := txnKeys(t, check)
	if len(keys) != 21 {
		t.Fatalf("final row count = %d", len(keys))
	}
}

// TestSortKeyUpdateCollisionKeepsOldRow is the txn-path regression test for
// the delete-then-insert bug: a sort-key update to a key held by another
// visible row must fail without deleting the old row.
func TestSortKeyUpdateCollisionKeepsOldRow(t *testing.T) {
	m := newManager(t, 10, Options{}) // keys 10,20,...,100
	tx := m.Begin()
	defer tx.Abort()
	key := types.Row{types.Int(30)}
	if ok, err := tx.UpdateByKey(key, 0, types.Int(40)); err == nil {
		t.Fatalf("colliding sort-key update accepted (ok=%v)", ok)
	}
	if _, _, found, err := tx.FindByKey(key); err != nil || !found {
		t.Fatalf("old row lost after rejected update: found=%v err=%v", found, err)
	}
	if n := len(txnKeys(t, tx)); n != 10 {
		t.Fatalf("row count after rejected update = %d, want 10", n)
	}
	// Moving to a free key still works, including within the same txn.
	if ok, err := tx.UpdateByKey(key, 0, types.Int(35)); err != nil || !ok {
		t.Fatalf("legal sort-key update: %v", err)
	}
	if _, _, found, _ := tx.FindByKey(types.Row{types.Int(35)}); !found {
		t.Fatal("moved row missing")
	}
}

// TestLSNClockAgreement pins the LSN bookkeeping contract: the manager's
// commit clock moves only when a WAL record is durable — empty commits leave
// it alone — and recovery restores exactly the pre-crash clock, with a fresh
// writer continuing the sequence.
func TestLSNClockAgreement(t *testing.T) {
	var logBuf bytes.Buffer
	w := wal.NewWriter(&logBuf)
	m := newManager(t, 10, Options{Log: w})

	empty := m.Begin()
	if err := empty.Commit(); err != nil {
		t.Fatal(err)
	}
	if m.LSN() != 0 || w.LSN() != 0 {
		t.Fatalf("empty commit advanced the clock: mgr=%d wal=%d", m.LSN(), w.LSN())
	}
	for i := 0; i < 3; i++ {
		tx := m.Begin()
		if err := tx.Insert(types.Row{types.Int(int64(500 + i)), types.Int(0), types.Str("x")}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		empty := m.Begin()
		if err := empty.Commit(); err != nil { // interleaved empty commits
			t.Fatal(err)
		}
	}
	if m.LSN() != 3 || w.LSN() != 3 {
		t.Fatalf("clocks diverged: mgr=%d wal=%d, want 3", m.LSN(), w.LSN())
	}

	// Crash and recover on a fresh manager with a fresh writer: the restored
	// clock must equal the pre-crash one, and the next commit must get LSN 4.
	var logBuf2 bytes.Buffer
	w2 := wal.NewWriter(&logBuf2)
	m2 := newManager(t, 10, Options{Log: w2})
	records, err := wal.Replay(bytes.NewReader(logBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Recover(records); err != nil {
		t.Fatal(err)
	}
	if m2.LSN() != 3 || w2.LSN() != 3 {
		t.Fatalf("recovered clocks: mgr=%d wal=%d, want 3", m2.LSN(), w2.LSN())
	}
	tx := m2.Begin()
	if err := tx.Insert(types.Row{types.Int(600), types.Int(0), types.Str("y")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if m2.LSN() != 4 {
		t.Fatalf("post-recovery commit got LSN %d, want 4", m2.LSN())
	}
	newRecords, err := wal.Replay(bytes.NewReader(logBuf2.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(newRecords) != 1 || newRecords[0].LSN != 4 {
		t.Fatalf("post-recovery record = %+v, want one record at LSN 4", newRecords)
	}
}

func TestAbortDiscards(t *testing.T) {
	m := newManager(t, 10, Options{})
	tx := m.Begin()
	if err := tx.Insert(types.Row{types.Int(15), types.Int(0), types.Str("x")}); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	if err := tx.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("commit after abort: %v", err)
	}
	check := m.Begin()
	defer check.Abort()
	if len(txnKeys(t, check)) != 10 {
		t.Fatal("aborted insert visible")
	}
}

func TestSnapshotSharing(t *testing.T) {
	m := newManager(t, 10, Options{})
	a := m.Begin()
	b := m.Begin()
	if a.writeSnap != b.writeSnap {
		t.Fatal("transactions without intervening commits must share the Write-PDT copy")
	}
	if err := a.Insert(types.Row{types.Int(15), types.Int(0), types.Str("a")}); err != nil {
		t.Fatal(err)
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	c := m.Begin()
	if c.writeSnap == b.writeSnap {
		t.Fatal("post-commit transaction must get a fresh snapshot")
	}
	// An *empty* commit changes nothing, so the snapshot stays shared (and
	// the commit clock must not move — see TestLSNClockAgreement).
	d := m.Begin()
	if err := d.Commit(); err != nil {
		t.Fatal(err)
	}
	e := m.Begin()
	if e.writeSnap != c.writeSnap {
		t.Fatal("empty commit invalidated the shared snapshot")
	}
	b.Abort()
	c.Abort()
	e.Abort()
}

func TestWritePDTPropagationToRead(t *testing.T) {
	m := newManager(t, 50, Options{WriteBudget: 1}) // propagate after every commit
	for i := 0; i < 20; i++ {
		tx := m.Begin()
		if err := tx.Insert(types.Row{types.Int(int64(1000 + i)), types.Int(0), types.Str("w")}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.WaitMaintenance(); err != nil { // propagation is a background fold now
		t.Fatal(err)
	}
	if m.WritePDT().Count() != 0 {
		t.Fatalf("write-PDT holds %d entries; should have migrated", m.WritePDT().Count())
	}
	if m.ReadPDT().Count() == 0 {
		t.Fatal("read-PDT empty after propagation")
	}
	check := m.Begin()
	defer check.Abort()
	if len(txnKeys(t, check)) != 70 {
		t.Fatalf("row count = %d, want 70", len(txnKeys(t, check)))
	}
	if err := m.ReadPDT().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointUnderRunningTransactions is the online-maintenance contract:
// a checkpoint taken while a transaction is open must succeed, the old
// snapshot keeps reading its pinned pre-checkpoint view, the long-running
// transaction can still commit afterwards, and new transactions read the
// checkpointed image plus everything committed since.
func TestCheckpointUnderRunningTransactions(t *testing.T) {
	m := newManager(t, 10, Options{})

	long := m.Begin() // spans the checkpoint
	if err := long.Insert(types.Row{types.Int(999), types.Int(0), types.Str("mine")}); err != nil {
		t.Fatal(err)
	}
	tx := m.Begin()
	if err := tx.Insert(types.Row{types.Int(555), types.Int(0), types.Str("c")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	if err := m.Checkpoint(); err != nil {
		t.Fatalf("checkpoint with a running transaction: %v", err)
	}
	if got := m.Store().NRows(); got != 11 {
		t.Fatalf("stable rows after checkpoint = %d, want 11", got)
	}

	// The old snapshot still reads its pinned view: 10 stable rows plus its
	// own uncommitted insert, without 555 (committed after its Begin).
	keys := txnKeys(t, long)
	if len(keys) != 11 {
		t.Fatalf("pre-checkpoint snapshot sees %d rows, want 11", len(keys))
	}
	for _, k := range keys {
		if k == 555 {
			t.Fatal("pre-checkpoint snapshot sees a later commit")
		}
	}
	// ...and commits across the checkpoint boundary.
	if err := long.Commit(); err != nil {
		t.Fatalf("commit across checkpoint: %v", err)
	}

	check := m.Begin()
	defer check.Abort()
	got := txnKeys(t, check)
	if len(got) != 12 {
		t.Fatalf("post-checkpoint view has %d rows, want 12", len(got))
	}
	found := map[int64]bool{}
	for _, k := range got {
		found[k] = true
	}
	if !found[555] || !found[999] {
		t.Fatalf("post-checkpoint view lost data: %v", got)
	}
}

// TestCheckpointBuildFailureRollsBack exercises the checkpoint error path:
// the image build fails mid-checkpoint (fault-injected), with a transaction
// begun during the build still holding the frozen layer. The rollback must
// restore the two-layer invariant — that transaction and all later ones read
// and commit correctly — and a retried checkpoint must succeed.
func TestCheckpointBuildFailureRollsBack(t *testing.T) {
	m := newManager(t, 10, Options{})
	pre := m.Begin()
	if err := pre.Insert(types.Row{types.Int(555), types.Int(0), types.Str("pre")}); err != nil {
		t.Fatal(err)
	}
	if err := pre.Commit(); err != nil {
		t.Fatal(err) // the frozen layer will be non-empty
	}

	boom := errors.New("device full")
	var mid *Txn
	failing := func(uint64, *colstore.Store, ...*pdt.PDT) (*colstore.Store, error) {
		// Runs off-lock mid-checkpoint: start a transaction that captures
		// the frozen layer, then fail the build.
		mid = m.Begin()
		if mid.frozen == nil {
			t.Error("mid-checkpoint transaction did not capture the frozen layer")
		}
		if err := mid.Insert(types.Row{types.Int(777), types.Int(0), types.Str("mid")}); err != nil {
			t.Error(err)
		}
		return nil, boom
	}
	if err := m.CheckpointInto(failing); !errors.Is(err, boom) {
		t.Fatalf("checkpoint error = %v, want %v", err, boom)
	}

	// Rollback restored the two-layer state: the mid-build transaction reads
	// its pinned view and commits across the rollback.
	keys := txnKeys(t, mid)
	if len(keys) != 12 { // 10 stable + 555 + its own 777
		t.Fatalf("mid-build snapshot sees %d rows, want 12", len(keys))
	}
	if err := mid.Commit(); err != nil {
		t.Fatalf("commit after rollback: %v", err)
	}
	tx := m.Begin()
	if err := tx.Insert(types.Row{types.Int(888), types.Int(0), types.Str("post")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// A retried checkpoint succeeds and nothing was lost.
	if err := m.Checkpoint(); err != nil {
		t.Fatalf("retried checkpoint: %v", err)
	}
	if got := m.Store().NRows(); got != 13 {
		t.Fatalf("checkpointed image has %d rows, want 13", got)
	}
	check := m.Begin()
	defer check.Abort()
	found := map[int64]bool{}
	for _, k := range txnKeys(t, check) {
		found[k] = true
	}
	if !found[555] || !found[777] || !found[888] {
		t.Fatalf("data lost across failed checkpoint: %v", found)
	}
}

// TestCheckpointReleasesRetiredImage: once the last transaction pinned to a
// pre-checkpoint version finishes, the retired stable image's blocks leave
// the device's buffer pool instead of leaking one entry per block per
// checkpoint.
func TestCheckpointReleasesRetiredImage(t *testing.T) {
	dev := colstore.NewDevice()
	rows := make([]types.Row, 40)
	for i := range rows {
		rows[i] = types.Row{types.Int(int64((i + 1) * 10)), types.Int(int64(i)), types.Str("s")}
	}
	tbl, err := table.Load(testSchema(), rows, table.Options{Mode: table.ModePDT, BlockRows: 8, Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(tbl.Store(), nil, Options{})

	long := m.Begin()
	txnKeys(t, long) // pull the old image's blocks into the pool
	oldBlocks := dev.PoolBlocks()
	if oldBlocks == 0 {
		t.Fatal("scan populated no pool entries")
	}
	tx := m.Begin()
	if err := tx.Insert(types.Row{types.Int(5), types.Int(0), types.Str("n")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The pinned transaction holds the retired image alive (still scannable,
	// still pooled)...
	txnKeys(t, long)
	if dev.PoolBlocks() < oldBlocks {
		t.Fatal("retired image evicted while still pinned")
	}
	if err := long.Abort(); err != nil {
		t.Fatal(err)
	}
	// ...and its release evicts the old image's blocks.
	check := m.Begin()
	defer check.Abort()
	txnKeys(t, check)
	after := dev.PoolBlocks()
	if after > m.Store().NumBlocks()*testSchema().NumCols() {
		t.Fatalf("pool holds %d blocks after release; retired image leaked", after)
	}
}

// TestCloseClosesPinnedRetiredImage: a checkpoint retires an image a running
// transaction still pins, so the manager keeps it open; Close closes it along
// with the current one, and the transaction finishing afterwards is harmless.
func TestCloseClosesPinnedRetiredImage(t *testing.T) {
	m := newManager(t, 40, Options{})
	old := m.Store()
	long := m.Begin()
	tx := m.Begin()
	if err := tx.Insert(types.Row{types.Int(5), types.Int(0), types.Str("n")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	cur := m.Store()
	if cur == old || old.Closed() {
		t.Fatalf("checkpoint did not retire the pinned image (retired=%v closed=%v)", cur != old, old.Closed())
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if !old.Closed() || !cur.Closed() {
		t.Fatalf("after Close: retired closed=%v, current closed=%v", old.Closed(), cur.Closed())
	}
	if err := long.Abort(); err != nil {
		t.Fatal(err)
	}
}

func TestWALRecovery(t *testing.T) {
	var logBuf bytes.Buffer
	m := newManager(t, 10, Options{Log: wal.NewWriter(&logBuf)})
	// Run a few committing transactions.
	for i := 0; i < 5; i++ {
		tx := m.Begin()
		if err := tx.Insert(types.Row{types.Int(int64(500 + i)), types.Int(int64(i)), types.Str("w")}); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.UpdateByKey(types.Row{types.Int(10)}, 1, types.Int(int64(i))); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// One aborted transaction must leave no trace in the log.
	tx := m.Begin()
	if err := tx.Insert(types.Row{types.Int(9999), types.Int(0), types.Str("gone")}); err != nil {
		t.Fatal(err)
	}
	tx.Abort()

	wantKeys := txnKeys(t, m.Begin())
	wantWrite := m.WritePDT().Entries()

	// "Crash": rebuild a fresh manager over the same initial table and
	// replay the log.
	m2 := newManager(t, 10, Options{})
	records, err := wal.Replay(bytes.NewReader(logBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 5 {
		t.Fatalf("replayed %d records, want 5", len(records))
	}
	if err := m2.Recover(records); err != nil {
		t.Fatal(err)
	}
	gotKeys := txnKeys(t, m2.Begin())
	if len(gotKeys) != len(wantKeys) {
		t.Fatalf("recovered %d rows, want %d", len(gotKeys), len(wantKeys))
	}
	for i := range wantKeys {
		if gotKeys[i] != wantKeys[i] {
			t.Fatalf("row %d: %d != %d", i, gotKeys[i], wantKeys[i])
		}
	}
	gotWrite := m2.WritePDT().Entries()
	if len(gotWrite) != len(wantWrite) {
		t.Fatalf("recovered write-PDT has %d entries, want %d", len(gotWrite), len(wantWrite))
	}
	for i := range wantWrite {
		if gotWrite[i].SID != wantWrite[i].SID || gotWrite[i].Kind != wantWrite[i].Kind {
			t.Fatalf("write-PDT entry %d differs: %+v vs %+v", i, gotWrite[i], wantWrite[i])
		}
	}
}

func TestWALTornTail(t *testing.T) {
	var buf bytes.Buffer
	w := wal.NewWriter(&buf)
	if _, err := w.Append("t", []pdt.RebuildEntry{{SID: 1, Kind: pdt.KindDel, Del: types.Row{types.Int(1)}}}); err != nil {
		t.Fatal(err)
	}
	full := buf.Len()
	if _, err := w.Append("t", []pdt.RebuildEntry{{SID: 2, Kind: pdt.KindDel, Del: types.Row{types.Int(2)}}}); err != nil {
		t.Fatal(err)
	}
	// Truncate mid-second-record: the valid prefix comes back along with the
	// typed tear signal.
	torn := buf.Bytes()[:full+5]
	records, err := wal.Replay(bytes.NewReader(torn))
	if !errors.Is(err, wal.ErrTornTail) {
		t.Fatalf("torn replay: err = %v, want ErrTornTail", err)
	}
	if len(records) != 1 {
		t.Fatalf("torn replay returned %d records, want 1", len(records))
	}
	// Corrupt a byte in the surviving record's body.
	corrupt := append([]byte(nil), buf.Bytes()...)
	corrupt[12] ^= 0xFF
	records, err = wal.Replay(bytes.NewReader(corrupt))
	if !errors.Is(err, wal.ErrTornTail) {
		t.Fatalf("corrupt replay: err = %v, want ErrTornTail", err)
	}
	if len(records) != 0 {
		t.Fatalf("corrupt head accepted: %d records", len(records))
	}
}

func TestConcurrentCommitsStress(t *testing.T) {
	// Goroutines hammer disjoint key ranges: every commit must succeed and
	// the final state must contain every insert exactly once.
	m := newManager(t, 0, Options{WriteBudget: 1 << 20})
	const workers, perWorker = 4, 25
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				tx := m.Begin()
				key := int64(w*1000 + i)
				if err := tx.Insert(types.Row{types.Int(key), types.Int(int64(w)), types.Str("c")}); err != nil {
					errs <- err
					tx.Abort()
					continue
				}
				if rng.Intn(8) == 0 {
					tx.Abort()
					// aborted inserts are retried under a new key space slot
					tx2 := m.Begin()
					if err := tx2.Insert(types.Row{types.Int(key), types.Int(int64(w)), types.Str("r")}); err != nil {
						errs <- err
						tx2.Abort()
						continue
					}
					if err := tx2.Commit(); err != nil {
						errs <- err
					}
					continue
				}
				if err := tx.Commit(); err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("worker error: %v", err)
	}
	check := m.Begin()
	defer check.Abort()
	keys := txnKeys(t, check)
	if len(keys) != workers*perWorker {
		t.Fatalf("final count = %d, want %d", len(keys), workers*perWorker)
	}
	seen := map[int64]bool{}
	for _, k := range keys {
		if seen[k] {
			t.Fatalf("duplicate key %d", k)
		}
		seen[k] = true
	}
	if err := m.WritePDT().Validate(); err != nil {
		t.Fatal(err)
	}
}
