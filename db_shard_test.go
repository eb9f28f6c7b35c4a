package pdtstore

// Kill-and-reopen tests across shard counts: per-shard WAL streams, one
// global commit clock, and the cross-shard cut points — between two shards'
// WAL appends of one cross-shard commit (only some streams got their record:
// reopen must drop the commit from all of them, for good), after them
// (reopen must surface the commit whole), and at the named points of the
// checkpoint sequence at 1 to 4 shards.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"

	"pdtstore/internal/pdt"
	"pdtstore/internal/table"
	"pdtstore/internal/types"
	"pdtstore/internal/wal"
)

// shardTestCuts split the int64 key space for up to 4 shards.
var shardTestCuts = []types.Row{
	{types.Int(250)}, {types.Int(500)}, {types.Int(750)},
}

func openShardDB(t *testing.T, dir string, shards int) *DB {
	t.Helper()
	db, err := Open(dir, Options{
		Schema: dbSchema, BlockRows: 64, Compressed: true,
		Shards: shards, ShardKeys: shardTestCuts[:shards-1],
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// sCommitInserts commits the given keys as one (possibly cross-shard)
// transaction and updates the model.
func sCommitInserts(t *testing.T, db *DB, m model, keys ...int64) {
	t.Helper()
	ops := make([]table.Op, 0, len(keys))
	for _, k := range keys {
		ops = append(ops, table.Op{Kind: table.OpInsert,
			Row: types.Row{types.Int(k), types.Str(fmt.Sprintf("v%d", k)), types.Int(k * 10)}})
	}
	tx := db.Begin()
	if _, err := tx.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		m[k] = modelRow{V: fmt.Sprintf("v%d", k), N: k * 10}
	}
}

// replayStream reads shard i's WAL stream from disk (the DB must be closed
// or crashed; the read-only peek opens and closes its own descriptors).
func replayStream(t *testing.T, dir string, shard int) []wal.Record {
	t.Helper()
	flog, records, err := wal.OpenFileLog(filepath.Join(dir, shardWalDir(shard)))
	if err != nil {
		t.Fatal(err)
	}
	flog.Close()
	return records
}

func TestShardedBootstrapCommitReopen(t *testing.T) {
	dir := t.TempDir()
	db := openShardDB(t, dir, 4)
	if db.Shards() != 4 {
		t.Fatalf("Shards() = %d", db.Shards())
	}
	man := db.man
	if len(man.Shards) != 4 || len(man.Splits) != 3 {
		t.Fatalf("sharded manifest = %+v", man)
	}
	m := model{}
	sCommitInserts(t, db, m, 10, 20, 30)          // shard 0 only
	sCommitInserts(t, db, m, 100, 300, 600, 900)  // all four shards
	sCommitInserts(t, db, m, 260, 270, 510, 1000) // shards 1, 2, 3
	checkState(t, db, m)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db = openShardDB(t, dir, 4)
	defer db.Close()
	checkState(t, db, m)
	// Reopening without Options.Shards follows the manifest's layout.
	db.Close()
	db2, err := Open(dir, Options{Schema: dbSchema})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Shards() != 4 {
		t.Fatalf("manifest layout ignored: Shards() = %d", db2.Shards())
	}
	checkState(t, db2, m)
}

func TestShardedReshardRejected(t *testing.T) {
	dir := t.TempDir()
	db := openShardDB(t, dir, 4)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{Schema: dbSchema, Shards: 2, ShardKeys: shardTestCuts[:1]}); err == nil ||
		!strings.Contains(err.Error(), "re-sharding") {
		t.Fatalf("re-shard 4→2 accepted: %v", err)
	}
}

func TestShardedCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	db := openShardDB(t, dir, 4)
	m := model{}
	sCommitInserts(t, db, m, 1, 2, 3, 251, 252, 501, 751)
	sCommitInserts(t, db, m, 800, 900) // shard 3 single-shard batches
	clock := db.sharded.Clock()
	db.crash()

	db = openShardDB(t, dir, 4)
	checkState(t, db, m)
	if got := db.sharded.Clock(); got < clock {
		t.Fatalf("commit clock rewound across crash: %d < %d", got, clock)
	}
	// The clock keeps ticking past recovery: another round, another crash.
	sCommitInserts(t, db, m, 4, 254, 504, 754)
	db.crash()
	db = openShardDB(t, dir, 4)
	defer db.Close()
	checkState(t, db, m)
}

func TestShardedAdoptUnsharded(t *testing.T) {
	dir := t.TempDir()
	db := openTestDB(t, dir)
	m := model{}
	commitInserts(t, db, m, 0, 400)
	commitMixed(t, db, m, 100, 200)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Adopt with nil ShardKeys: quantile cuts read off the image.
	db2, err := Open(dir, Options{Schema: dbSchema, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if db2.Shards() != 4 {
		t.Fatalf("Shards() = %d after adopt", db2.Shards())
	}
	man := db2.man
	if len(man.Shards) != 4 || len(man.Splits) != 3 {
		t.Fatalf("adopted manifest = %+v", man)
	}
	checkState(t, db2, m)
	// Adopted stores commit and recover like any sharded store.
	sCommitInserts(t, db2, m, 1001, 1002)
	db2.crash()
	db2 = openShardDB(t, dir, 4)
	defer db2.Close()
	checkState(t, db2, m)
}

func TestShardedAdoptRequiresEmptyTail(t *testing.T) {
	dir := t.TempDir()
	db := openTestDB(t, dir)
	m := model{}
	commitInserts(t, db, m, 0, 100) // no checkpoint: records past the freeze LSN
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{Schema: dbSchema, Shards: 4}); err == nil ||
		!strings.Contains(err.Error(), "checkpoint") {
		t.Fatalf("adopt with a non-empty WAL tail accepted: %v", err)
	}
	// The refused adopt must leave the unsharded store fully usable.
	db = openTestDB(t, dir)
	defer db.Close()
	checkState(t, db, m)
}

// TestShardedCrashBetweenAppends cuts a cross-shard commit between two
// shards' appends: shard 3's write of the group record fails, shard 0's
// lands and is synced, and the commit fails. Reopen must treat the commit as
// never having happened — on every shard.
func TestShardedCrashBetweenAppends(t *testing.T) {
	f := installMemFS(t)
	dir := t.TempDir()
	db := openShardDB(t, dir, 4)
	m := model{}
	sCommitInserts(t, db, m, 10, 260, 510, 760)
	f.at = func(op fsOp) fault {
		if op.kind == "write" && strings.Contains(op.path, "wal-s3") {
			return failOp
		}
		return pass
	}
	if err := tryCommit(db, m, insertOp(50), insertOp(950)); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Commit through the fault = %v", err)
	}
	db.crash()
	f.reboot()

	// The torn group really is torn: shard 0's stream carries the two-party
	// record, shard 3's stream does not.
	torn := func(recs []wal.Record) bool {
		for _, r := range recs {
			if len(r.Parts) == 2 {
				return true
			}
		}
		return false
	}
	if !torn(replayStream(t, dir, 0)) || torn(replayStream(t, dir, 3)) {
		t.Fatal("the group is not torn: shard 0's stream must hold its record and shard 3's must not")
	}
	db = openShardDB(t, dir, 4)
	defer db.Close()
	checkState(t, db, m) // neither key 50 nor key 950 survives
}

// TestShardedCrashBetweenInstalls crashes at the first file operation after
// a cross-shard commit returned: every stream holds its record and the
// installs are memory-only, so reopen must surface the commit whole.
func TestShardedCrashBetweenInstalls(t *testing.T) {
	f := installMemFS(t)
	dir := t.TempDir()
	db := openShardDB(t, dir, 4)
	m := model{}
	sCommitInserts(t, db, m, 10, 260, 510, 760)
	sCommitInserts(t, db, m, 60, 960)
	f.crashIn(0)
	db.crash()
	f.reboot()
	db = openShardDB(t, dir, 4)
	defer db.Close()
	checkState(t, db, m) // both keys present: all-or-nothing, durably "all"
}

// TestDroppedGroupStaysDropped: a cross-shard group torn by a failed append
// leaves its record on shard 0, which keeps committing after it. The reopen
// that drops the group must make the drop permanent: once shard 1, which
// lacks the record, checkpoints past its LSN, the next reopen must still not
// replay it on shard 0 alone.
func TestDroppedGroupStaysDropped(t *testing.T) {
	f := installMemFS(t)
	dir := t.TempDir()
	db := openShardDB(t, dir, 2)
	m := model{}
	sCommitInserts(t, db, m, 10, 260)
	f.at = func(op fsOp) fault {
		if op.kind == "sync" && strings.Contains(op.path, "wal-s1") {
			return failOp
		}
		return pass
	}
	if err := tryCommit(db, m, insertOp(50), insertOp(300)); err == nil {
		t.Fatal("a commit over a failed fsync succeeded")
	}
	f.at = nil
	sCommitInserts(t, db, m, 20) // shard 0 keeps committing past the orphan
	db.crash()
	f.reboot()
	db = openShardDB(t, dir, 2)
	checkState(t, db, m)
	sCommitInserts(t, db, m, 270) // moves shard 1 past the dropped LSN
	db.mu.Lock()
	err := db.checkpointLocked([]bool{false, true})
	db.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	db.crash()
	db = openShardDB(t, dir, 2)
	defer db.Close()
	checkState(t, db, m)
}

// TestShardedCheckpointCrashPoints kills the store at every named point of
// the checkpoint sequence, at 1 and 4 shards — including between two shards'
// image builds, a point only a multi-shard checkpoint passes.
func TestShardedCheckpointCrashPoints(t *testing.T) {
	for _, point := range []string{"between-shard-checkpoints", "mid-segment-write", "pre-manifest-swap", "post-swap-pre-truncate"} {
		t.Run(point, func(t *testing.T) {
			for _, shards := range []int{1, 4} {
				if shards == 1 && point == "between-shard-checkpoints" {
					continue
				}
				t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { crashCheckpoint(t, shards, point, "full", false) })
			}
		})
	}
}

// TestShardedCrossCommitDuringBuild commits a cross-shard transaction from
// inside shard 0's image build, which must not wait for the build, and then
// kills the store at each later named point: the commit sits in shard 0's
// tail past its freeze LSN while the other participant's image may or may
// not contain it.
func TestShardedCrossCommitDuringBuild(t *testing.T) {
	for _, point := range []string{"between-shard-checkpoints", "pre-manifest-swap", "post-swap-pre-truncate"} {
		for _, shards := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", point, shards), func(t *testing.T) { crashCheckpoint(t, shards, point, "full", true) })
		}
	}
}

// TestShardedCheckpointTruncatesPerStream checkpoints a sharded store and
// verifies each stream's own freeze bar did the truncating: records at or
// below a shard's manifest LSN are gone from its stream.
func TestShardedCheckpointTruncatesPerStream(t *testing.T) {
	dir := t.TempDir()
	db := openShardDB(t, dir, 4)
	m := model{}
	sCommitInserts(t, db, m, 10, 260, 510, 760)
	sCommitInserts(t, db, m, 20, 270)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	man := db.man
	if len(man.Shards) != 4 {
		t.Fatalf("manifest = %+v", man)
	}
	// Post-checkpoint commits stay in the streams; pre-checkpoint ones go.
	sCommitInserts(t, db, m, 30, 780)
	db.crash()
	for i := 0; i < 4; i++ {
		for _, rec := range replayStream(t, dir, i) {
			if rec.LSN <= man.Shards[i].LSN {
				t.Fatalf("shard %d stream kept LSN %d at or below its freeze bar %d", i, rec.LSN, man.Shards[i].LSN)
			}
		}
	}
	db = openShardDB(t, dir, 4)
	defer db.Close()
	checkState(t, db, m)
}

// openFDs counts the process's open file descriptors, or returns -1 where
// /proc does not list them.
func openFDs() int {
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(fds)
}

// TestShardedOpenReportsLowestFailingShard: shards 1 and 3 each end in a
// CRC-valid record that pdt.Rebuild rejects. The shards replay concurrently,
// and Open returns shard 1's error whichever finishes first, with every log
// closed and the directory lock released — so a second Open fails the same
// way, not with "already open".
func TestShardedOpenReportsLowestFailingShard(t *testing.T) {
	dir := t.TempDir()
	db := openShardDB(t, dir, 4)
	m := model{}
	sCommitInserts(t, db, m, 10, 260, 510, 760)
	sCommitInserts(t, db, m, 20, 270)
	db.crash()
	for _, shard := range []int{1, 3} {
		flog, _, err := wal.OpenFileLog(filepath.Join(dir, shardWalDir(shard)))
		if err != nil {
			t.Fatal(err)
		}
		// Column 1 holds strings: a modify to an int does not fit the schema.
		bad := wal.GroupRecord{LSN: flog.LSN() + 1, Table: "table", Shard: uint32(shard), Entries: []pdt.RebuildEntry{
			{SID: 0, Kind: 1, Mod: types.Int(7)}}}
		if err := flog.AppendGroup([]wal.GroupRecord{bad}); err != nil {
			t.Fatal(err)
		}
		flog.Close()
	}
	fds := openFDs()
	for attempt := 0; attempt < 2; attempt++ {
		db, err := Open(dir, Options{Schema: dbSchema})
		if err == nil {
			db.Close()
			t.Fatal("Open replayed a record that does not fit the schema")
		}
		if !strings.Contains(err.Error(), "shard 1:") || strings.Contains(err.Error(), "already open") {
			t.Fatalf("Open attempt %d = %v; want shard 1's replay error", attempt, err)
		}
		if now := openFDs(); now > fds {
			t.Fatalf("failed Open left %d descriptors open", now-fds)
		}
	}
}

// rewriteWAL rewrites the newest file of the log in walDir as fn of its
// frames, each a header and its body.
func rewriteWAL(t *testing.T, walDir string, fn func(frames [][]byte) [][]byte) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(walDir, "*.wal"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no log file in %s: %v", walDir, err)
	}
	path := files[len(files)-1]
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var frames [][]byte
	for len(data) > 0 {
		n := 8 + int(binary.LittleEndian.Uint32(data))
		frames, data = append(frames, data[:n:n]), data[n:]
	}
	if err := os.WriteFile(path, slices.Concat(fn(frames)...), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestOpenRejectsLSNsThatDoNotAscend: a CRC-valid record repeated at the end
// of the log, or the last two records swapped, would replay an update twice
// or rewind the commit clock. Open refuses the tail, and keeps refusing it.
func TestOpenRejectsLSNsThatDoNotAscend(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func(frames [][]byte) [][]byte
	}{
		{"duplicate", func(f [][]byte) [][]byte { return append(f, f[len(f)-1]) }},
		{"lower", func(f [][]byte) [][]byte {
			f[len(f)-2], f[len(f)-1] = f[len(f)-1], f[len(f)-2]
			return f
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			db := openTestDB(t, dir)
			m := model{}
			commitInserts(t, db, m, 1, 4)
			commitInserts(t, db, m, 4, 6)
			commitInserts(t, db, m, 6, 9)
			db.crash()
			rewriteWAL(t, filepath.Join(dir, shardWalDir(0)), tc.fn)
			for attempt := 0; attempt < 2; attempt++ {
				db, err := Open(dir, Options{Schema: dbSchema})
				if err == nil {
					db.Close()
					t.Fatal("Open replayed a tail whose LSNs do not ascend")
				}
				if !strings.Contains(err.Error(), "ascend") {
					t.Fatalf("Open attempt %d = %v; want an LSN-order error", attempt, err)
				}
			}
		})
	}
}

// TestDegradedShardShowsInStats: after an injected fsync failure on shard 1,
// that shard's commits fail fast with the sticky error, touching no file,
// while Begin, Scan and FindByKey keep answering on every shard, shard 0
// keeps committing, and Stats names the failure on shard 1 alone.
func TestDegradedShardShowsInStats(t *testing.T) {
	f := installMemFS(t)
	db := openShardDB(t, t.TempDir(), 2)
	defer db.Close()
	m := model{}
	sCommitInserts(t, db, m, 10, 260)
	var once sync.Once
	var touched atomic.Int64
	f.at = func(op fsOp) (ft fault) {
		if strings.Contains(op.path, "wal-s1") {
			touched.Add(1)
			if op.kind == "sync" {
				once.Do(func() { ft = failOp })
			}
		}
		return ft
	}
	if err := tryCommit(db, m, insertOp(270)); !errors.Is(err, syscall.EIO) {
		t.Fatalf("commit over the failed fsync = %v", err)
	}
	before := touched.Load()
	if err := tryCommit(db, m, insertOp(280)); !errors.Is(err, syscall.EIO) {
		t.Fatalf("commit on the degraded shard = %v, want its sticky failure", err)
	}
	if touched.Load() != before {
		t.Fatal("a commit on the degraded shard touched its stream")
	}
	sCommitInserts(t, db, m, 20)
	checkState(t, db, m)
	tx := db.Begin()
	defer tx.Abort()
	for _, k := range []int64{10, 260} {
		if _, _, found, err := tx.FindByKey(types.Row{types.Int(k)}); err != nil || !found {
			t.Fatalf("FindByKey(%d) = %v, %v", k, found, err)
		}
	}
	st := db.Stats()
	if st.Shard[0].Err != nil || !errors.Is(st.Shard[1].Err, syscall.EIO) {
		t.Fatalf("Stats errors = %v, %v; want nil and the injected failure", st.Shard[0].Err, st.Shard[1].Err)
	}
}
