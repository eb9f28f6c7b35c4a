package pdtstore

// Tests for incremental checkpoints: segment chains, block sharing across
// generations, the crash cuts of a chained checkpoint, and the checkpoint
// scheduler.

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"pdtstore/internal/colstore"
	"pdtstore/internal/engine"
	"pdtstore/internal/table"
	"pdtstore/internal/types"
	"pdtstore/internal/vector"
)

// commitUpdates commits pure in-place updates (col 2, no sort-key churn) so
// the delta is modify-only and the next checkpoint can go incremental.
func commitUpdates(t *testing.T, db *DB, m model, keys ...int64) {
	t.Helper()
	ops := make([]table.Op, 0, len(keys))
	for _, k := range keys {
		ops = append(ops, table.Op{Kind: table.OpUpdate, Key: types.Row{types.Int(k)}, Col: 2, Val: types.Int(-k)})
	}
	tx := db.Begin()
	if _, err := tx.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		m[k] = modelRow{V: m[k].V, N: -k}
	}
}

func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "seg-") && strings.HasSuffix(e.Name(), ".seg") {
			segs = append(segs, e.Name())
		}
	}
	return segs
}

// TestIncrementalCheckpointChain: a modify-only delta checkpoints into a
// delta segment chained onto the previous generation, the live/dead block
// stats expose the sharing, and cold recovery resolves blocks through the
// chain.
func TestIncrementalCheckpointChain(t *testing.T) {
	dir := t.TempDir()
	m := model{}
	db := openTestDB(t, dir)
	commitInserts(t, db, m, 0, 640) // 10 blocks of 64
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	commitUpdates(t, db, m, 3, 70) // dirties blocks 0 and 1 of col 2 only
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	sh := st.Shard[0]
	if sh.Generations != 2 {
		t.Fatalf("chain length = %d, want 2 (segments %+v)", sh.Generations, sh.Segments)
	}
	if sh.LastDecision.Mode != "incremental" {
		t.Fatalf("decision mode = %q, want incremental (%+v)", sh.LastDecision.Mode, sh.LastDecision)
	}
	if sh.LastDecision.DirtyBlocks >= sh.LastDecision.TotalBlocks {
		t.Fatalf("incremental checkpoint wrote %d of %d cells", sh.LastDecision.DirtyBlocks, sh.LastDecision.TotalBlocks)
	}
	// The old member serves everything except the two rewritten blocks; the
	// new member holds exactly those two plus no tail.
	base, delta := sh.Segments[0], sh.Segments[1]
	if base.LiveBlocks >= base.TotalBlocks || base.LiveBlocks == 0 {
		t.Fatalf("base member live/total = %d/%d, want partial sharing", base.LiveBlocks, base.TotalBlocks)
	}
	if delta.TotalBlocks != 2 || delta.LiveBlocks != 2 {
		t.Fatalf("delta member live/total = %d/%d, want 2/2", delta.LiveBlocks, delta.TotalBlocks)
	}
	checkState(t, db, m)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Cold recovery opens the whole chain.
	db2 := openTestDB(t, dir)
	defer db2.Close()
	checkState(t, db2, m)
	if got := db2.Stats().Shard[0].Generations; got != 2 {
		t.Fatalf("chain length after reopen = %d, want 2", got)
	}
	// A shifting delta (delete) forces a full rewrite that collapses the
	// chain and unlinks both superseded members.
	commitMixed(t, db2, m, 0, 10)
	if err := db2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := db2.Stats().Shard[0]; got.Generations != 1 || got.LastDecision.Mode != "full" {
		t.Fatalf("post-delete checkpoint: %d generations, mode %q", got.Generations, got.LastDecision.Mode)
	}
	if segs := segFiles(t, dir); len(segs) != 1 {
		t.Fatalf("superseded chain members not unlinked: %v", segs)
	}
	checkState(t, db2, m)
}

// TestEmptyDeltaCheckpointShares: a checkpoint with nothing to absorb writes
// no segment at all — the new generation re-references the old chain.
func TestEmptyDeltaCheckpointShares(t *testing.T) {
	dir := t.TempDir()
	m := model{}
	db := openTestDB(t, dir)
	defer db.Close()
	commitInserts(t, db, m, 0, 200)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	before := segFiles(t, dir)
	gen := db.Stats().Generation
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.Shard[0].LastDecision.Mode != "shared" {
		t.Fatalf("empty-delta decision = %+v, want shared", st.Shard[0].LastDecision)
	}
	if st.Generation != gen+1 {
		t.Fatalf("generation = %d, want %d", st.Generation, gen+1)
	}
	after := segFiles(t, dir)
	if len(after) != len(before) {
		t.Fatalf("empty-delta checkpoint changed segment files: %v -> %v", before, after)
	}
	checkState(t, db, m)
}

// TestIncrementalCrashPoints kills the store at the three cuts the chained
// checkpoint added — mid block-map write, pre-swap with mixed-generation
// references, and GC after the swap — and requires recovery to reconstruct
// exactly the committed state off the old manifest (or the new one, past the
// swap). Each cut runs on both shapes the one build takes: a delta that
// inherits blocks, and a whole rewrite (which passes no mixed-generation
// swap: its chains are one segment long).
func TestIncrementalCrashPoints(t *testing.T) { testIncrementalCrashPoints(t, 1) }

// TestShardedIncrementalCheckpointCrashPoints drives the same cuts on a
// 4-shard store, where the manifest swap commits four chains at once.
func TestShardedIncrementalCheckpointCrashPoints(t *testing.T) { testIncrementalCrashPoints(t, 4) }

func testIncrementalCrashPoints(t *testing.T, shards int) {
	cuts := []struct {
		point string
		modes []string
	}{
		{"mid-block-map-write", []string{"incremental", "full"}},
		{"pre-swap-mixed-generations", []string{"incremental"}},
		{"gc-after-swap", []string{"incremental", "full"}},
	}
	for _, cut := range cuts {
		t.Run(cut.point, func(t *testing.T) {
			for _, mode := range cut.modes {
				t.Run(mode, func(t *testing.T) { crashCheckpoint(t, shards, cut.point, mode, false) })
			}
		})
	}
}

// TestStatsSnapshot sanity-checks the Stats surface: the only window into the
// store's clock, WAL and segment chains.
func TestStatsSnapshot(t *testing.T) {
	dir := t.TempDir()
	db := openTestDB(t, dir)
	defer db.Close()
	m := model{}
	commitInserts(t, db, m, 0, 640)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	commitUpdates(t, db, m, 5, 100)
	st := db.Stats()
	if st.Shards != 1 || len(st.Shard) != 1 || st.Generation < 2 {
		t.Fatalf("stats header = %+v", st)
	}
	sh := st.Shard[0]
	if sh.LSN == 0 || sh.FreezeLSN == 0 || sh.WALRecords != sh.LSN-sh.FreezeLSN || sh.WALRecords == 0 {
		t.Fatalf("clock stats = %+v", sh)
	}
	if sh.WALBytes <= 0 || sh.WALFiles < 1 {
		t.Fatalf("WAL stats = %+v", sh)
	}
	if sh.Generations != len(sh.Segments) || sh.Generations == 0 {
		t.Fatalf("segment stats = %+v", sh)
	}
	for _, seg := range sh.Segments {
		if seg.Name == "" || seg.LiveBlocks <= 0 || seg.LiveBlocks > seg.TotalBlocks {
			t.Fatalf("segment entry = %+v", seg)
		}
	}
}

// TestSchedulerAutoCheckpoint: with Auto on, the cost model absorbs a growing
// tail without any manual Checkpoint call, and the post-crash reopen replays
// only the sliver past the last auto-checkpoint.
func TestSchedulerAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{
		Schema: dbSchema, BlockRows: 64, Compressed: true,
		Checkpoint: CheckpointOptions{Auto: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := model{}
	commitInserts(t, db, m, 0, 640)
	for i := 0; i < 12; i++ {
		commitUpdates(t, db, m, int64(i*7), int64(i*7+320))
	}
	// The scheduler runs on its own 25 ms clock; wait until it checkpointed
	// at least once. Over the empty bootstrap image the cost model writes
	// one cell and fires at a tail of 7 records, so the 13 commits force
	// it. Whatever tail remains after the last absorb is legitimately below
	// the cost threshold.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := db.Stats()
		if st.Generation >= 2 && st.Shard[0].FreezeLSN > 0 && st.Shard[0].WALRecords < 13 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("scheduler never absorbed the tail: %+v", st.Shard[0])
		}
		time.Sleep(5 * time.Millisecond)
	}
	checkState(t, db, m)
	db.crash()
	db2 := openTestDB(t, dir)
	defer db2.Close()
	checkState(t, db2, m)
}

// TestStatsReportsSchedulerFailure: a failed auto-checkpoint shows in Stats
// while the store stays open and serving, and Close still returns it.
func TestStatsReportsSchedulerFailure(t *testing.T) {
	f := installMemFS(t)
	dir := t.TempDir()
	db, err := Open(dir, Options{
		Schema: dbSchema, BlockRows: 64, Compressed: true,
		Checkpoint: CheckpointOptions{Auto: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	f.at = func(op fsOp) fault {
		if op.kind == "open" && strings.HasSuffix(op.path, ".tmp") {
			return failOp // every manifest swap fails
		}
		return pass
	}
	if err := db.Stats().AutoCheckpointErr; err != nil {
		t.Fatalf("failure reported before any checkpoint ran: %v", err)
	}
	m := model{}
	// Eight one-record commits: over the empty bootstrap image the cost
	// model fires at a tail of 7.
	for k := int64(0); k < 64; k += 8 {
		commitInserts(t, db, m, k, k+8)
	}
	deadline := time.Now().Add(5 * time.Second)
	for db.Stats().AutoCheckpointErr == nil {
		if time.Now().After(deadline) {
			t.Fatal("Stats never reported the failed auto-checkpoint")
		}
		time.Sleep(time.Millisecond)
	}
	if err := db.Stats().AutoCheckpointErr; !errors.Is(err, syscall.EIO) {
		t.Fatalf("Stats reports %v, want the injected failure", err)
	}
	checkState(t, db, m)
	if err := db.Close(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Close = %v, want the injected failure", err)
	}
}

// TestSharedSegmentRefcount: a chain member shared between the retired and
// live images must survive the retired store's close and die only when the
// last referencing store lets go.
func TestSharedSegmentRefcount(t *testing.T) {
	dir := t.TempDir()
	m := model{}
	db := openTestDB(t, dir)
	defer db.Close()
	commitInserts(t, db, m, 0, 640)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	base := db.mgrs[0].Store().Segment() // gen-2 flat segment
	long := db.Begin()                   // pins the gen-2 store

	commitUpdates(t, db, m, 3)
	if err := db.Checkpoint(); err != nil { // incremental: chains onto base
		t.Fatal(err)
	}
	if got := db.Stats().Shard[0].Generations; got != 2 {
		t.Fatalf("chain length = %d, want 2", got)
	}
	// Releasing the pinned reader closes the retired gen-2 *store*, but the
	// segment is still the live chain's base member and must stay open.
	if err := long.Abort(); err != nil {
		t.Fatal(err)
	}
	if base.Closed() {
		t.Fatal("shared chain member closed while the live image still references it")
	}
	checkState(t, db, m)

	// A full rewrite drops the member from the chain; with no pinned readers
	// left, the last reference goes and the descriptor closes.
	commitMixed(t, db, m, 0, 20)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if !base.Closed() {
		t.Fatal("superseded chain member still open after the chain collapsed")
	}
	checkState(t, db, m)
}

// fullCheckpointHashes are the SHA-256 of the segment files
// TestFullCheckpointSegmentHash's script writes, per shard count: every
// shard's segment after the first whole rewrite, then after the second.
// Commit 1dd5c71 (the last one with a separate full-rewrite arm) recorded
// them first; they were re-recorded when ForInt and the packed dictionary
// replaced delta-varint and varint-code dictionary blocks, a format change
// that leaves the one builder's block order and footer as they were, and
// again when column v's blocks began to store their offsets as FramedString
// (the parent wrote 92fa83f0…f9ba and 5e2ed5bd…5dc7 for one shard).
var fullCheckpointHashes = map[int][]string{
	1: {
		"956bee2e7c790f28fae94f788e095643c75a658286997b6d3af019a5fa00c86d",
		"b50eafb57a79012f0d47f3fa1dcc64da2981ea37610d5aff742d5cbcf279daa5",
	},
	4: {
		"ef90dd24d3b2dc4fdc6884c94340d00831547e3bc63f9987aba372918cc79aba",
		"f37a9457d20928fb6694199fe8488374164feb7ab2240c96c1ceaa585bc695c4",
		"926ac42d5e5df5fc175ceea8e576c960b669b4f144351fe6cb2f8e6492d424fe",
		"41da7cca92f77d2f2eec78a31b180cbf63e6cbc190711c5511423a0961c6cb98",
		"3dda78c9fcb4113897da8477fcad14d9dce1fe177e1ea4464af86e006b586b26",
		"a289a9a5e1fcd6f5b048b7ecffcd1657974cf2dcdc17e8dd638ce8a4ef77de78",
		"413e05e5ee58fb60708c2a263d3971ae3da384d85962660f4c83c87b7e006c67",
		"3741ddc6d04cbc3ac4740a6fd00a69eece746e651ab1be871525740d32767314",
	},
}

// TestFullCheckpointSegmentHash: a whole rewrite through the one image
// builder is, byte for byte, the flat segment the dedicated full-rewrite arm
// used to write — no block map, same block order, same footer.
func TestFullCheckpointSegmentHash(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			db, err := Open(dir, Options{Schema: dbSchema, BlockRows: 64, Compressed: true,
				Shards: shards, ShardKeys: shardTestCuts[:shards-1]})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			db.maxGenerations = 1 // every checkpoint a whole rewrite
			var got []string
			checkpoint := func() {
				t.Helper()
				if err := db.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				for i, sh := range db.Stats().Shard {
					if sh.Generations != 1 || sh.LastDecision.Mode != "full" {
						t.Fatalf("shard %d: %d generations, mode %q, want one flat segment", i, sh.Generations, sh.LastDecision.Mode)
					}
					raw, err := os.ReadFile(filepath.Join(dir, sh.Segments[0].Name))
					if err != nil {
						t.Fatal(err)
					}
					sum := sha256.Sum256(raw)
					got = append(got, hex.EncodeToString(sum[:]))
				}
			}
			m := model{}
			commitInserts(t, db, m, 0, 1000)
			checkpoint()
			// Modifies in every shard's first blocks, deletes and inserts
			// behind them: at the parent the dirty set has a non-zero shift
			// block, and the chain bound alone forces the rewrite.
			commitUpdates(t, db, m, 3, 70, 255, 410, 640, 901)
			commitMixed(t, db, m, 180, 240)
			commitMixed(t, db, m, 700, 745)
			commitInserts(t, db, m, 1000, 1090)
			checkpoint()
			checkState(t, db, m)
			want := fullCheckpointHashes[shards]
			if len(got) != len(want) {
				t.Fatalf("hashed %d segments, recorded %d: %q", len(got), len(want), got)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("segment %d: SHA-256 %s, recorded %s", i, got[i], want[i])
				}
			}
		})
	}
}

// TestReopenWithDifferentBlockRows: Options.BlockRows is the geometry of the
// next whole rewrite, not of the directory. A checkpoint that inherits blocks
// keeps the base's geometry whatever the option says; one that inherits
// nothing re-blocks.
func TestReopenWithDifferentBlockRows(t *testing.T) {
	dir := t.TempDir()
	m := model{}
	db := openTestDB(t, dir) // 64 rows per block
	commitInserts(t, db, m, 0, 640)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	open := func() *DB {
		t.Helper()
		db, err := Open(dir, Options{Schema: dbSchema, BlockRows: 128, Compressed: true})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	geometry := func(db *DB, mode string, blockRows, blocks int) {
		t.Helper()
		st := db.mgrs[0].Store()
		if got := db.Stats().Shard[0].LastDecision.Mode; got != mode {
			t.Fatalf("checkpoint ran %q, want %q", got, mode)
		}
		if st.BlockRows() != blockRows || st.NumBlocks() != blocks {
			t.Fatalf("%s checkpoint under BlockRows 128: %d rows per block in %d blocks, want %d in %d",
				mode, st.BlockRows(), st.NumBlocks(), blockRows, blocks)
		}
		checkState(t, db, m)
	}

	db = open()
	commitUpdates(t, db, m, 3, 70)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	geometry(db, "incremental", 64, 10)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db = open()
	geometry(db, "", 64, 10) // the chain reopens in the geometry it was written in
	commitMixed(t, db, m, 0, 20)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	geometry(db, "full", 128, 5) // 636 rows
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = open()
	defer db.Close()
	geometry(db, "", 128, 5)
}

// TestRetiredImagesDoNotAccumulate: every image a checkpoint supersedes is
// closed as soon as no reader pins it — with no reader, right at the swap —
// so a long-running store holds the pinned images, not one per checkpoint;
// a pinned image stays readable across any number of checkpoints and is
// closed by Close.
func TestRetiredImagesDoNotAccumulate(t *testing.T) {
	const shards = 4
	dir := t.TempDir()
	m := model{}
	db := openShardDB(t, dir, shards)
	commitInserts(t, db, m, 0, 1000)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var seen []*colstore.Store // every image the shards published
	current := func() []*colstore.Store {
		cur := make([]*colstore.Store, shards)
		for i := range cur {
			cur[i] = db.mgrs[i].Store()
		}
		return cur
	}
	retiredOpen := func() int {
		cur := current()
		n := 0
		for _, st := range seen {
			if !st.Closed() && !slices.Contains(cur, st) {
				n++
			}
		}
		return n
	}
	churn := func() {
		t.Helper()
		for i := int64(0); i < 40; i++ {
			switch i % 3 { // incremental, shared and full checkpoints alike
			case 0:
				commitUpdates(t, db, m, 3+i, 260+i, 510+i, 760+i)
			case 1:
				commitMixed(t, db, m, 20*i, 20*i+7)
			}
			seen = append(seen, current()...)
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	churn()
	if got := retiredOpen(); got != 0 {
		t.Fatalf("%d retired images open after 40 checkpoints with no reader pinned", got)
	}

	snapshot := m.clone()
	long := db.Begin() // pins the current image of every shard
	pinned := current()
	churn()
	if got := retiredOpen(); got != shards {
		t.Fatalf("%d retired images open with one reader pinning %d", got, shards)
	}
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
		t.Fatalf("pinned snapshot reads %d rows, want %d", len(got), len(snapshot))
	}
	for k, want := range snapshot {
		if got[k] != want {
			t.Fatalf("pinned snapshot: key %d = %+v, want %+v", k, got[k], want)
		}
	}
	checkState(t, db, m)
	if err := db.Close(); err != nil { // with the reader still pinned
		t.Fatal(err)
	}
	for i, st := range pinned {
		if !st.Closed() {
			t.Fatalf("shard %d: pinned image still open after Close", i)
		}
	}
}
