package pdtstore

// The crash harness. Every file operation goes through the vfs seam, so a
// crash is one number: memFS fails operation k and every later one, and
// reboot keeps only what each file's last Sync covered. TestCrashLoop crashes
// at every operation of a commit and of each checkpoint mode; the named
// points below pick single operations out of that loop for the scenarios the
// older tests pinned.

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"pdtstore/internal/storage"
	"pdtstore/internal/table"
	"pdtstore/internal/types"
)

// tryCommit commits ops as one transaction and applies them to m only when
// Commit is acknowledged; any failure is returned.
func tryCommit(db *DB, m model, ops ...table.Op) error {
	tx := db.Begin()
	if _, err := tx.ApplyBatch(ops); err != nil {
		tx.Abort()
		return err
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	for _, op := range ops {
		k := op.Key
		if op.Kind == table.OpInsert {
			k = op.Row
		}
		switch key := k[0].I; op.Kind {
		case table.OpInsert:
			m[key] = modelRow{V: op.Row[1].S, N: op.Row[2].I}
		case table.OpDelete:
			delete(m, key)
		default:
			m[key] = modelRow{V: m[key].V, N: op.Val.I}
		}
	}
	return nil
}

func insertOp(k int64) table.Op {
	return table.Op{Kind: table.OpInsert, Row: types.Row{types.Int(k), types.Str(fmt.Sprintf("v%d", k)), types.Int(k * 10)}}
}

// atPoint is the fault rule for a named point of the checkpoint sequence: it
// crashes at the first operation past that point, and, when during is set,
// first runs it once at the first segment write, from inside the build.
func atPoint(point string, during func()) func(fsOp) fault {
	var mu sync.Mutex
	swapped, ran := false, during == nil
	return func(op fsOp) fault {
		mu.Lock()
		run := !ran && op.kind == "write" && strings.HasSuffix(op.path, ".seg")
		ran = ran || run
		hit := false
		seg := strings.HasSuffix(op.path, ".seg")
		switch point {
		case "mid-segment-write", "mid-block-map-write":
			hit = op.kind == "sync" && seg
		case "between-shard-checkpoints":
			hit = op.kind == "open" && strings.HasSuffix(op.path, "-s1.seg")
		case "pre-manifest-swap", "pre-swap-mixed-generations":
			hit = op.kind == "open" && strings.HasSuffix(op.path, ".tmp")
		case "gc-after-swap":
			hit = swapped
		case "post-swap-pre-truncate":
			hit = swapped && strings.Contains(op.path, string(filepath.Separator)+"wal")
		}
		swapped = swapped || op.kind == "rename"
		mu.Unlock()
		if run {
			during()
		}
		if hit {
			return crashOp
		}
		return pass
	}
}

// crashCheckpoint builds a store of the given shape, takes a checkpoint of
// the given mode ("incremental" or "full") that dies at the named point, and
// requires the reopened store to hold exactly the acknowledged state, to run
// its next checkpoint in the same mode, and to hold the state once more after
// another reopen. With during set, a cross-shard commit lands from inside the
// image build and must not wait for it.
func crashCheckpoint(t *testing.T, shards int, point, mode string, during bool) {
	f := installMemFS(t)
	dir := t.TempDir()
	db := openShardDB(t, dir, shards)
	m := model{}
	commitInserts(t, db, m, 0, 1000) // at least four blocks of 64 per shard
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	commitUpdates(t, db, m, 10, 300, 550, 800) // modify-only: blocks are inherited
	if mode == "full" {
		commitMixed(t, db, m, 0, 2) // a delete in block 0 shifts every block
	}
	var hook func()
	if during {
		hook = func() {
			done := make(chan error, 1)
			go func() { done <- tryCommit(db, m, insertOp(-130), insertOp(1130)) }()
			select {
			case err := <-done:
				if err != nil {
					t.Errorf("cross-shard commit during the build: %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Error("cross-shard commit blocked behind the image build")
			}
		}
	}
	f.at = atPoint(point, hook)
	if err := db.Checkpoint(); !errors.Is(err, errCrashed) {
		t.Fatalf("Checkpoint through %s = %v, want the crash", point, err)
	}
	db.crash()
	f.reboot()

	db = openShardDB(t, dir, shards)
	checkState(t, db, m)
	commitUpdates(t, db, m, 15, 305)
	if mode == "full" {
		commitMixed(t, db, m, 2, 12)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := db.Stats().Shard[0].LastDecision.Mode; got != mode {
		t.Fatalf("follow-up checkpoint of shard 0 ran %q, want %q", got, mode)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = openShardDB(t, dir, shards)
	defer db.Close()
	checkState(t, db, m)
}

// TestCrashLoop crashes at every file operation of a single-shard commit, a
// cross-shard commit (each participant's append included), and a full, an
// incremental and a shared checkpoint, and a checkpoint with a cross-shard
// commit landing inside its build, at 1 and 2 shards. After each crash the
// reopened store must hold exactly the acknowledged state, and must then
// commit, checkpoint and reopen to it again. -short crashes at every third
// operation.
func TestCrashLoop(t *testing.T) {
	stride := 1
	if testing.Short() {
		stride = 3
	}
	type scenario struct {
		name   string
		shards int
		prep   func(db *DB, m model)
		step   func(f *memFS, db *DB, m model) error
	}
	commit := func(keys ...int64) func(*memFS, *DB, model) error {
		return func(_ *memFS, db *DB, m model) error {
			ops := make([]table.Op, len(keys))
			for i, k := range keys {
				ops[i] = insertOp(k)
			}
			return tryCommit(db, m, ops...)
		}
	}
	checkpoint := func(f *memFS, db *DB, _ model) error { return db.Checkpoint() }
	var scenarios []scenario
	for _, shards := range []int{1, 2} {
		scenarios = append(scenarios,
			scenario{"commit", shards, nil, commit(-100)},
			scenario{"cross-commit", shards, nil, commit(-110, 610)},
			scenario{"full-checkpoint", shards, func(db *DB, m model) { commitMixed(t, db, m, 0, 20) }, checkpoint},
			scenario{"incremental-checkpoint", shards, func(db *DB, m model) { commitUpdates(t, db, m, 5, 260) }, checkpoint},
			scenario{"shared-checkpoint", shards, nil, checkpoint},
			scenario{"checkpoint-with-commit", shards, func(db *DB, m model) { commitUpdates(t, db, m, 5, 260) },
				func(f *memFS, db *DB, m model) error {
					f.at = atPoint("", func() { tryCommit(db, m, insertOp(-120), insertOp(620)) })
					return db.Checkpoint()
				}},
		)
	}
	for _, sc := range scenarios {
		t.Run(fmt.Sprintf("%s/shards=%d", sc.name, sc.shards), func(t *testing.T) {
			for k := 0; ; k += stride {
				f := installMemFS(t)
				dir := t.TempDir()
				db := openShardDB(t, dir, sc.shards)
				m := model{}
				commitInserts(t, db, m, 0, 300)
				if err := db.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				if sc.prep != nil {
					sc.prep(db, m)
				}
				f.crashIn(k)
				err := sc.step(f, db, m)
				f.mu.Lock()
				crashed := f.crashed
				f.mu.Unlock()
				if !crashed && err != nil {
					t.Fatalf("op %d: %v without a crash", k, err)
				}
				db.crash()
				f.reboot()
				db = openShardDB(t, dir, sc.shards)
				checkState(t, db, m)
				sCommitInserts(t, db, m, 2000, 2600)
				if err := db.Checkpoint(); err != nil {
					t.Fatalf("op %d: checkpoint after reopen: %v", k, err)
				}
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
				db = openShardDB(t, dir, sc.shards)
				checkState(t, db, m)
				db.Close()
				if !crashed {
					if k == 0 {
						t.Fatal("the step did no file operation")
					}
					t.Logf("%d crash points over the step's file operations", k/stride)
					return
				}
			}
		})
	}
}

// TestOneFaultAtATime: a short write into a checkpoint's segment fails that
// checkpoint and nothing else — the store serves, and the retry and a reopen
// hold the state — and a bit flipped in a cold block read is a checksum
// error, not a wrong row.
func TestOneFaultAtATime(t *testing.T) {
	f := installMemFS(t)
	dir := t.TempDir()
	db := openTestDB(t, dir)
	m := model{}
	commitInserts(t, db, m, 0, 300)
	var once sync.Once
	f.at = func(op fsOp) (ft fault) {
		if op.kind == "write" && strings.HasSuffix(op.path, ".seg") {
			once.Do(func() { ft = shortWrite })
		}
		return ft
	}
	if err := db.Checkpoint(); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("checkpoint over a short write = %v", err)
	}
	checkState(t, db, m)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = openTestDB(t, dir)
	defer db.Close()
	checkState(t, db, m)

	db.dev.DropCaches()
	f.at = func(op fsOp) fault {
		if op.kind == "read" && strings.HasSuffix(op.path, ".seg") {
			return flipBit
		}
		return pass
	}
	tx := db.Begin()
	defer tx.Abort()
	if _, _, _, err := tx.FindByKey(types.Row{types.Int(7)}); !errors.Is(err, storage.ErrChecksum) {
		t.Fatalf("FindByKey over a flipped bit = %v, want ErrChecksum", err)
	}
}
