package pdtstore

// Kill-and-reopen crash tests for the durable lifecycle. "Killing" the store
// means db.crash(): descriptors (and the advisory LOCK) are released exactly
// as process death releases them, with no orderly shutdown — no maintenance
// wait, no log flush, no manifest work — then Open(dir) runs cold recovery on
// the same directory; the crash harness (crash_test.go) cuts the checkpoint
// sequence at named points through the file seam. After every cut, recovery
// must reconstruct exactly the committed state: nothing lost, nothing doubled.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"

	"pdtstore/internal/colstore"
	"pdtstore/internal/engine"
	"pdtstore/internal/pdt"
	"pdtstore/internal/storage"
	"pdtstore/internal/table"
	"pdtstore/internal/types"
	"pdtstore/internal/vector"
	"pdtstore/internal/wal"
)

var dbSchema = types.MustSchema([]types.Column{
	{Name: "k", Kind: types.Int64},
	{Name: "v", Kind: types.String},
	{Name: "n", Kind: types.Int64},
}, []int{0})

// model mirrors the committed state: key → (v, n).
type modelRow struct {
	V string
	N int64
}

type model map[int64]modelRow

func (m model) clone() model {
	out := make(model, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func openTestDB(t *testing.T, dir string) *DB {
	t.Helper()
	db, err := Open(dir, Options{Schema: dbSchema, BlockRows: 64, Compressed: true})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// commitInserts commits [lo, hi) as one transaction and updates the model.
func commitInserts(t *testing.T, db *DB, m model, lo, hi int64) {
	t.Helper()
	keys := make([]int64, 0, hi-lo)
	for k := lo; k < hi; k++ {
		keys = append(keys, k)
	}
	sCommitInserts(t, db, m, keys...)
}

// commitMixed commits updates to [lo, hi) (modify n, delete every 5th key)
// in one transaction and updates the model.
func commitMixed(t *testing.T, db *DB, m model, lo, hi int64) {
	t.Helper()
	var ops []table.Op
	for k := lo; k < hi; k++ {
		if _, ok := m[k]; !ok {
			continue
		}
		if k%5 == 0 {
			ops = append(ops, table.Op{Kind: table.OpDelete, Key: types.Row{types.Int(k)}})
			delete(m, k)
		} else {
			ops = append(ops, table.Op{Kind: table.OpUpdate, Key: types.Row{types.Int(k)}, Col: 2, Val: types.Int(-k)})
			m[k] = modelRow{V: m[k].V, N: -k}
		}
	}
	tx := db.Begin()
	if _, err := tx.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// readAll scans the full committed state through a fresh transaction (the
// direct table view excludes the master Write-PDT, where both live commits
// and recovered WAL records buffer until the next fold): the shards
// concatenated in key order.
func readAll(t *testing.T, db *DB) model {
	t.Helper()
	tx := db.Begin()
	defer tx.Abort()
	got := model{}
	var lastKey int64 = -1 << 62
	err := engine.Scan(tx, 0, 1, 2).Run(func(b *vector.Batch, sel []uint32) error {
		for _, i := range sel {
			r := b.Row(int(i))
			if _, dup := got[r[0].I]; dup {
				return fmt.Errorf("duplicate key %d surfaced by scan", r[0].I)
			}
			if r[0].I <= lastKey {
				return fmt.Errorf("key order broken across shards: %d after %d", r[0].I, lastKey)
			}
			lastKey = r[0].I
			got[r[0].I] = modelRow{V: r[1].S, N: r[2].I}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func checkState(t *testing.T, db *DB, want model) {
	t.Helper()
	got := readAll(t, db)
	if len(got) != len(want) {
		t.Fatalf("state has %d rows, want %d", len(got), len(want))
	}
	keys := make([]int64, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		if got[k] != want[k] {
			t.Fatalf("key %d: got %+v, want %+v", k, got[k], want[k])
		}
	}
}

func TestOpenCreateCommitReopen(t *testing.T) {
	dir := t.TempDir()
	m := model{}
	db := openTestDB(t, dir)
	commitInserts(t, db, m, 0, 200)
	commitMixed(t, db, m, 0, 100)
	lsn := db.Stats().Shard[0].LSN
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := openTestDB(t, dir)
	defer db2.Close()
	checkState(t, db2, m)
	if got := db2.Stats().Shard[0].LSN; got != lsn {
		t.Fatalf("clock after reopen = %d, want %d", got, lsn)
	}
	// Commits continue the LSN sequence.
	commitInserts(t, db2, m, 1000, 1010)
	if got := db2.Stats().Shard[0].LSN; got != lsn+1 {
		t.Fatalf("clock after post-reopen commit = %d, want %d", got, lsn+1)
	}
	checkState(t, db2, m)
}

// TestOpenFlatFormDirectory hand-writes what every directory created before
// stores always carried a shard list holds — a flat manifest (segment and
// freeze LSN at top level), a seg-<gen>.seg image and a non-empty wal/ tail —
// and requires it to open as the one-shard store, answer identically, move to
// the Shards form and the per-shard segment name at its next checkpoint, and
// from there adopt more shards like any one-shard store.
func TestOpenFlatFormDirectory(t *testing.T) {
	dir := t.TempDir()
	const gen, freeze = 7, 5
	oldName := fmt.Sprintf("seg-%016x.seg", gen)
	m := model{}
	b, err := colstore.NewFileBuilder(dbSchema, colstore.NewDevice(), 64, true, filepath.Join(dir, oldName))
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 300; k++ {
		m[k] = modelRow{V: fmt.Sprintf("v%d", k), N: k * 10}
		if err := b.Add(types.Row{types.Int(k), types.Str(m[k].V), types.Int(m[k].N)}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if err := storage.WriteManifest(dir, storage.Manifest{Generation: gen, Segment: oldName, LSN: freeze}); err != nil {
		t.Fatal(err)
	}
	// The tail: one record at the freeze LSN (already in the image — replay
	// must skip it) and two past it, as a positional delta over the image.
	flog, _, err := wal.OpenFileLog(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	record := func(lsn uint64, edit func(p *pdt.PDT) error) {
		t.Helper()
		p := pdt.New(dbSchema, 0)
		if err := edit(p); err != nil {
			t.Fatal(err)
		}
		if err := flog.AppendGroup([]wal.GroupRecord{{LSN: lsn, Table: "table", Entries: p.Dump()}}); err != nil {
			t.Fatal(err)
		}
	}
	record(freeze, func(p *pdt.PDT) error { return p.Modify(0, 2, types.Int(-999)) })
	record(freeze+1, func(p *pdt.PDT) error { return p.Modify(42, 2, types.Int(-42)) })
	m[42] = modelRow{V: "v42", N: -42}
	record(freeze+2, func(p *pdt.PDT) error {
		return p.Insert(300, types.Row{types.Int(1000), types.Str("tail"), types.Int(1)})
	})
	m[1000] = modelRow{V: "tail", N: 1}
	if err := flog.Close(); err != nil {
		t.Fatal(err)
	}

	db := openTestDB(t, dir)
	checkState(t, db, m)
	stats := db.Stats()
	if sh := stats.Shard[0]; stats.Shards != 1 || stats.Generation != gen || sh.FreezeLSN != freeze || sh.LSN != freeze+2 ||
		sh.WALRecords != 2 || len(sh.Segments) != 1 || sh.Segments[0].Name != oldName {
		t.Fatalf("stats over the flat directory = %+v", stats)
	}
	commitMixed(t, db, m, 0, 10) // deletes in block 0: a full rewrite, so the old file leaves the chain
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	newName := fmt.Sprintf("seg-%016x-s0.seg", gen+1)
	man, ok, err := storage.LoadManifest(dir)
	if err != nil || !ok {
		t.Fatalf("LoadManifest after checkpoint: ok=%v err=%v", ok, err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, storage.ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	if len(man.Shards) != 1 || man.Shards[0].Segment != newName || man.Shards[0].LSN != freeze+3 ||
		len(fields) != 2 || fields["generation"] == nil || fields["shards"] == nil {
		t.Fatalf("manifest after checkpoint = %s, want only generation and a one-entry shards list", raw)
	}
	if segs := segFiles(t, dir); len(segs) != 1 || segs[0] != newName {
		t.Fatalf("segment files after checkpoint = %v, want only %s", segs, newName)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = openTestDB(t, dir)
	checkState(t, db, m)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Adoption is "the manifest has one shard and Options.Shards asks for more".
	db, err = Open(dir, Options{Schema: dbSchema, BlockRows: 64, Compressed: true, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.Shards() != 3 || len(db.man.Shards) != 3 || len(db.man.Splits) != 2 {
		t.Fatalf("adopted layout: Shards() = %d, manifest = %+v", db.Shards(), db.man)
	}
	checkState(t, db, m)
	sCommitInserts(t, db, m, 350, 5000) // appends: the last shard takes both
	checkState(t, db, m)
}

// TestOpenIsExclusive: a second opener must be rejected while the store is
// held (two WAL appenders with independent clocks would corrupt it), and
// admitted again once the holder closes — or dies (crash releases the flock
// exactly as process death does).
func TestOpenIsExclusive(t *testing.T) {
	if !lockEnforced {
		t.Skip("advisory locking not enforced on this platform (lock_other.go fallback)")
	}
	dir := t.TempDir()
	db := openTestDB(t, dir)
	if _, err := Open(dir, Options{Schema: dbSchema}); err == nil {
		t.Fatal("second Open of a held store succeeded")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := openTestDB(t, dir)
	db2.crash()
	db3 := openTestDB(t, dir)
	db3.Close()
}

func TestOpenRejectsSchemaMismatch(t *testing.T) {
	dir := t.TempDir()
	db := openTestDB(t, dir)
	db.Close()
	other := types.MustSchema([]types.Column{{Name: "x", Kind: types.Int64}}, []int{0})
	if _, err := Open(dir, Options{Schema: other}); err == nil {
		t.Fatal("mismatched schema accepted")
	}
}

// TestCrashRecovery is the kill-and-reopen harness. Every scenario builds
// committed state, dies at a chosen point (without Close), reopens cold, and
// asserts recovery reproduced the committed state exactly — no lost commits,
// no double-applied WAL entries.
func TestCrashRecovery(t *testing.T) {
	t.Run("kill-before-any-checkpoint", func(t *testing.T) {
		dir := t.TempDir()
		m := model{}
		db := openTestDB(t, dir)
		commitInserts(t, db, m, 0, 150)
		commitMixed(t, db, m, 0, 150)
		// Die with everything only in the WAL.
		db.crash()
		db2 := openTestDB(t, dir)
		checkState(t, db2, m)
		db2.Close()
	})

	t.Run("kill-after-clean-checkpoint", func(t *testing.T) {
		dir := t.TempDir()
		m := model{}
		db := openTestDB(t, dir)
		commitInserts(t, db, m, 0, 150)
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		commitMixed(t, db, m, 0, 150) // tail past the checkpoint
		db.crash()
		db2 := openTestDB(t, dir)
		checkState(t, db2, m)
		if db2.Stats().Generation != 2 {
			t.Fatalf("generation = %d, want 2", db2.Stats().Generation)
		}
		db2.Close()
	})

	// Three named points of the checkpoint sequence, with commits landing
	// during the image build.
	for _, point := range []string{"mid-segment-write", "pre-manifest-swap", "post-swap-pre-truncate"} {
		t.Run("kill-at-"+point, func(t *testing.T) { crashCheckpoint(t, 1, point, "full", true) })
	}

	t.Run("kill-mid-wal-append", func(t *testing.T) {
		dir := t.TempDir()
		m := model{}
		db := openTestDB(t, dir)
		commitInserts(t, db, m, 0, 80)
		commitMixed(t, db, m, 0, 40)
		db.crash()
		// Shear bytes off the newest WAL file: a commit died mid-append. The
		// torn record was never acknowledged, so recovery owes only the
		// records before it.
		walDir := filepath.Join(dir, "wal")
		entries, err := os.ReadDir(walDir)
		if err != nil {
			t.Fatal(err)
		}
		var newest string
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".wal") && e.Name() > newest {
				newest = e.Name()
			}
		}
		path := filepath.Join(walDir, newest)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:len(data)-11], 0o644); err != nil {
			t.Fatal(err)
		}
		// The sheared record is the commitMixed one: roll the model back to
		// the insert-only state.
		m2 := model{}
		for k := int64(0); k < 80; k++ {
			m2[k] = modelRow{V: fmt.Sprintf("v%d", k), N: k * 10}
		}
		db2 := openTestDB(t, dir)
		checkState(t, db2, m2)
		// And the log accepts new commits after the repair.
		commitInserts(t, db2, m2, 3000, 3010)
		db2.Close()
		db3 := openTestDB(t, dir)
		checkState(t, db3, m2)
		db3.Close()
	})
}

// TestCheckpointRetryAfterFailedSwap: when the manifest write fails, the
// manager has already installed the new segment as its live store. The retry
// must take a fresh generation number — reusing the old one would O_TRUNC
// the file the live store is reading.
func TestCheckpointRetryAfterFailedSwap(t *testing.T) {
	f := installMemFS(t)
	dir := t.TempDir()
	m := model{}
	db := openTestDB(t, dir)
	defer db.Close()
	commitInserts(t, db, m, 0, 300)
	f.at = func(op fsOp) fault {
		if op.kind == "open" && strings.HasSuffix(op.path, ".tmp") {
			return failOp
		}
		return pass
	}
	if err := db.Checkpoint(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("checkpoint error = %v, want the injected failure", err)
	}
	f.at = nil
	commitInserts(t, db, m, 1000, 1020)
	// Force the retry's materialize to pread the live (failed-swap) segment.
	db.dev.DropCaches()
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("retry checkpoint: %v", err)
	}
	checkState(t, db, m)
	if gen := db.Stats().Generation; gen < 3 {
		t.Fatalf("manifest generation = %d, want a fresh (skipped) generation >= 3", gen)
	}
	// Cold recovery agrees with the live state.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := openTestDB(t, dir)
	defer db2.Close()
	checkState(t, db2, m)
}

// TestCheckpointTruncationOrdering pins the satellite contract directly: a
// crash between manifest swap and WAL truncation leaves every pre-freeze
// record in the log, and recovery must skip all of them (they are already in
// the new image) while still applying the post-freeze tail.
func TestCheckpointTruncationOrdering(t *testing.T) {
	f := installMemFS(t)
	dir := t.TempDir()
	m := model{}
	db := openTestDB(t, dir)
	commitInserts(t, db, m, 0, 100) // will be inside the image
	f.at = atPoint("post-swap-pre-truncate", func() {
		if err := tryCommit(db, m, insertOp(200), insertOp(230)); err != nil { // post-freeze tail, WAL-only
			t.Error(err)
		}
	})
	if err := db.Checkpoint(); !errors.Is(err, errCrashed) {
		t.Fatalf("checkpoint error = %v", err)
	}
	db.crash()
	f.reboot()
	// The WAL still holds the pre-freeze insert record; the manifest already
	// points at the image containing those rows. A replay that ignored the
	// manifest LSN would try to re-insert keys 0..99 and either fail or
	// double them.
	db2 := openTestDB(t, dir)
	defer db2.Close()
	checkState(t, db2, m)
	st := db2.Stats()
	if st.Generation != 2 || st.Shard[0].FreezeLSN == 0 {
		t.Fatalf("stats = %+v, want generation 2 with a freeze LSN", st)
	}
}

// TestCheckpointTruncatesWAL: the happy path actually reclaims log space.
func TestCheckpointTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	m := model{}
	db := openTestDB(t, dir)
	defer db.Close()
	commitInserts(t, db, m, 0, 400)
	before := db.Stats().Shard[0].WALBytes
	if before == 0 {
		t.Fatal("WAL empty after commits")
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after := db.Stats().Shard[0].WALBytes
	if after >= before {
		t.Fatalf("WAL size %d after checkpoint, was %d before", after, before)
	}
	checkState(t, db, m)
}

// TestColdScanDoesRealIO: reopening leaves the image on disk; the first scan
// pays real read bytes, a warm rescan pays none.
func TestColdScanDoesRealIO(t *testing.T) {
	dir := t.TempDir()
	m := model{}
	db := openTestDB(t, dir)
	commitInserts(t, db, m, 0, 5000)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2 := openTestDB(t, dir)
	defer db2.Close()
	db2.dev.ResetStats()
	checkState(t, db2, m)
	coldBytes, coldReads := db2.dev.Stats()
	if coldBytes == 0 || coldReads == 0 {
		t.Fatalf("cold scan after reopen charged no I/O (bytes=%d reads=%d)", coldBytes, coldReads)
	}
	db2.dev.ResetStats()
	checkState(t, db2, m)
	if warmBytes, _ := db2.dev.Stats(); warmBytes != 0 {
		t.Fatalf("warm rescan charged %d bytes", warmBytes)
	}
}

// TestColdFindByKeyDoesRealIO: a key lookup on a file-backed image goes
// through the device like a scan does — after DropCaches it preads (one block
// per column it touches, not the table), warm it reads nothing, and dropping
// the caches again makes it cold again: nothing above the buffer pool
// remembers a decoded block.
func TestColdFindByKeyDoesRealIO(t *testing.T) {
	dir := t.TempDir()
	m := model{}
	db := openTestDB(t, dir)
	defer db.Close()
	commitInserts(t, db, m, 0, 5000)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	commitMixed(t, db, m, 1000, 1100) // a live delta over the file-backed image
	lookup := func() (reads uint64) {
		t.Helper()
		db.dev.ResetStats()
		tx := db.Begin()
		defer tx.Abort()
		_, row, found, err := tx.FindByKey(types.Row{types.Int(3333)})
		if want := m[3333]; err != nil || !found || row[1].S != want.V || row[2].I != want.N {
			t.Fatalf("FindByKey(3333) = %v, %v, %v; want %v", row, found, err, want)
		}
		_, reads = db.dev.Stats()
		return reads
	}
	for round := 0; round < 2; round++ {
		db.dev.DropCaches()
		cold := lookup()
		if cold == 0 || cold > uint64(2*dbSchema.NumCols()) {
			t.Fatalf("round %d: cold lookup charged %d block reads, want 1..%d", round, cold, 2*dbSchema.NumCols())
		}
		if warm := lookup(); warm != 0 {
			t.Fatalf("round %d: warm lookup charged %d block reads", round, warm)
		}
	}
}

// TestGroupCommitFsyncFailureRecovery: a batch of concurrent commits dies at
// the durability barrier (injected one-shot fsync failure). Every
// transaction in and behind the batch must fail, the log stays poisoned for
// the rest of the process's life, and a kill-and-reopen must surface exactly
// the pre-failure committed state — no record of the failed batch may
// resurface from the page cache or a torn tail.
func TestGroupCommitFsyncFailureRecovery(t *testing.T) {
	f := installMemFS(t)
	dir := t.TempDir()
	m := model{}
	db := openTestDB(t, dir)
	commitInserts(t, db, m, 0, 60)
	commitMixed(t, db, m, 0, 30)
	lsn := db.Stats().Shard[0].LSN

	var failed sync.Once
	f.at = func(op fsOp) (ft fault) {
		if op.kind == "sync" {
			failed.Do(func() { ft = failOp })
		}
		return ft
	}
	const writers = 6
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		w := w
		go func() {
			tx := db.Begin()
			if err := tx.Insert(types.Row{types.Int(int64(9000 + w)), types.Str("doomed"), types.Int(0)}); err != nil {
				errs <- err
				return
			}
			errs <- tx.Commit()
		}()
	}
	for i := 0; i < writers; i++ {
		if err := <-errs; err == nil {
			t.Fatal("a commit in or behind the failed batch succeeded")
		}
	}
	if got := db.Stats().Shard[0].LSN; got != lsn {
		t.Fatalf("failed batch moved the clock: %d -> %d", lsn, got)
	}
	// The live view still serves exactly the pre-failure state.
	checkState(t, db, m)

	// Kill and reopen: recovery replays the log cold. None of the failed
	// batch's records may surface.
	db.crash()
	f.reboot()
	db2 := openTestDB(t, dir)
	defer db2.Close()
	checkState(t, db2, m)
	if got := db2.Stats().Shard[0].LSN; got != lsn {
		t.Fatalf("clock after reopen = %d, want %d", got, lsn)
	}
	// The reopened store commits normally and continues the LSN sequence.
	commitInserts(t, db2, m, 9100, 9110)
	checkState(t, db2, m)
	if got := db2.Stats().Shard[0].LSN; got != lsn+1 {
		t.Fatalf("post-recovery commit got LSN %d, want %d", got, lsn+1)
	}
}

// TestRetiredImageClosesOnLastRelease: a checkpoint supersedes the stable
// image; the old segment's descriptor must stay open while a transaction is
// still pinned to it — the pinned snapshot keeps reading the unlinked file —
// and must be closed the moment that last reader finishes, not at DB.Close.
func TestRetiredImageClosesOnLastRelease(t *testing.T) {
	dir := t.TempDir()
	m := model{}
	db := openTestDB(t, dir)
	defer db.Close()
	commitInserts(t, db, m, 0, 120)
	if err := db.Checkpoint(); err != nil { // gen 2: first image with real data
		t.Fatal(err)
	}
	snapshot := m.clone()
	long := db.Begin() // pins the gen-2 version
	seg := db.mgrs[0].Store().Segment()
	if seg == nil {
		t.Fatal("checkpointed store is not file-backed")
	}

	commitMixed(t, db, m, 0, 60)
	if err := db.Checkpoint(); err != nil { // gen 3 retires gen 2
		t.Fatal(err)
	}
	if seg.Closed() {
		t.Fatal("retired segment closed while a transaction is still pinned to it")
	}
	// The pinned transaction reads its full pre-checkpoint snapshot from the
	// retired (already unlinked) segment.
	got := model{}
	err := engine.Scan(long, 0, 1, 2).Run(func(b *vector.Batch, sel []uint32) error {
		for _, i := range sel {
			r := b.Row(int(i))
			got[r[0].I] = modelRow{V: r[1].S, N: r[2].I}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(snapshot) {
		t.Fatalf("pinned snapshot has %d rows, want %d", len(got), len(snapshot))
	}

	if err := long.Abort(); err != nil {
		t.Fatal(err)
	}
	if !seg.Closed() {
		t.Fatal("retired segment's descriptor still open after its last pinned reader released it")
	}
	// The live view is unaffected.
	checkState(t, db, m)
}
