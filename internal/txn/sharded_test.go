package txn

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"pdtstore/internal/engine"
	"pdtstore/internal/pdt"
	"pdtstore/internal/table"
	"pdtstore/internal/types"
	"pdtstore/internal/vector"
	"pdtstore/internal/wal"
)

// newSharded splits a freshly loaded n-row table (keys 10, 20, ...) into
// `shards` range shards, each under its own manager. When logs is non-nil it
// receives one in-memory WAL writer per shard (buffer i backs shard i).
func newSharded(t *testing.T, n, shards int, opts Options, logs *[]*bytes.Buffer) *Sharded {
	t.Helper()
	var logFor func(int) wal.Log
	if logs != nil {
		logFor = func(int) wal.Log {
			buf := &bytes.Buffer{}
			*logs = append(*logs, buf)
			return wal.NewWriter(buf)
		}
	}
	return newShardedLogs(t, n, shards, opts, logFor)
}

// newShardedLogs is newSharded with shard i logging to logFor(i) (nil: no
// logs).
func newShardedLogs(tb testing.TB, n, shards int, opts Options, logFor func(i int) wal.Log) *Sharded {
	tb.Helper()
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.Int(int64((i + 1) * 10)), types.Int(int64(i)), types.Str(fmt.Sprintf("s%d", i))}
	}
	tbl, err := table.Load(testSchema(), rows, table.Options{Mode: table.ModePDT, BlockRows: 32})
	if err != nil {
		tb.Fatal(err)
	}
	stores, keys, err := table.ShardSplit(tbl.Store(), shards, tbl.Store().Device(), 32, false)
	if err != nil {
		tb.Fatal(err)
	}
	mgrs := make([]*Manager, shards)
	for i, st := range stores {
		sopts := opts
		if logFor != nil {
			sopts.Log = logFor(i)
		}
		mgrs[i] = NewManager(st, nil, sopts)
	}
	s, err := NewSharded(mgrs, keys)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// fileLogs opens shard i's log as a real, fsynced wal.FileLog in
// dir/wal-<i>, closed when the test ends.
func fileLogs(tb testing.TB, dir string) func(int) wal.Log {
	return func(i int) wal.Log {
		l, recs, err := wal.OpenFileLog(filepath.Join(dir, fmt.Sprintf("wal-%d", i)))
		if err != nil {
			tb.Fatal(err)
		}
		if len(recs) != 0 {
			tb.Fatalf("fresh log %d replayed %d records", i, len(recs))
		}
		tb.Cleanup(func() { l.Close() })
		return l
	}
}

func stxnKeys(t *testing.T, tx *STxn) []int64 {
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

func TestNewShardedValidation(t *testing.T) {
	m := newManager(t, 4, Options{})
	if _, err := NewSharded(nil, nil); err == nil {
		t.Fatal("zero shards accepted")
	}
	if _, err := NewSharded([]*Manager{m}, []types.Row{{types.Int(5)}}); err == nil {
		t.Fatal("key count mismatch accepted")
	}
	m2 := newManager(t, 4, Options{})
	if _, err := NewSharded([]*Manager{m, m2}, []types.Row{{types.Int(5), types.Int(6)}}); err == nil {
		t.Fatal("overlong split key accepted")
	}
	m3 := newManager(t, 4, Options{})
	if _, err := NewSharded([]*Manager{m, m2, m3}, []types.Row{{types.Int(9)}, {types.Int(5)}}); err == nil {
		t.Fatal("descending split keys accepted")
	}
}

func TestShardOf(t *testing.T) {
	s := newSharded(t, 40, 4, Options{}, nil)
	if len(s.Keys()) != 3 {
		t.Fatalf("keys: %v", s.Keys())
	}
	// Quantile cuts of keys 10..400 land at 110, 210, 310.
	for _, c := range []struct {
		key   int64
		shard int
	}{{10, 0}, {105, 0}, {110, 1}, {209, 1}, {210, 2}, {310, 3}, {400, 3}, {9999, 3}} {
		if got := s.ShardOf(types.Row{types.Int(c.key)}); got != c.shard {
			t.Errorf("ShardOf(%d) = %d, want %d (cuts %v)", c.key, got, c.shard, s.Keys())
		}
	}
}

func TestShardedScanMatchesUnsharded(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 4} {
		s := newSharded(t, 40, shards, Options{}, nil)
		tx := s.Begin()
		keys := stxnKeys(t, tx)
		if len(keys) != 40 {
			t.Fatalf("shards=%d: %d rows", shards, len(keys))
		}
		for i, k := range keys {
			if k != int64((i+1)*10) {
				t.Fatalf("shards=%d: row %d has key %d", shards, i, k)
			}
		}
		tx.Abort()
	}
}

func TestShardedCommitVisibilityAndRIDs(t *testing.T) {
	s := newSharded(t, 40, 4, Options{}, nil)

	// A cross-shard transaction: insert into shard 0, delete from shard 3,
	// update in shard 1.
	tx := s.Begin()
	if err := tx.Insert(types.Row{types.Int(15), types.Int(0), types.Str("new")}); err != nil {
		t.Fatal(err)
	}
	if ok, err := tx.DeleteByKey(types.Row{types.Int(400)}); err != nil || !ok {
		t.Fatalf("delete: %v %v", ok, err)
	}
	if ok, err := tx.UpdateByKey(types.Row{types.Int(120)}, 1, types.Int(999)); err != nil || !ok {
		t.Fatalf("update: %v %v", ok, err)
	}

	// Uncommitted: invisible to a concurrent snapshot; visible to its own.
	other := s.Begin()
	if got := stxnKeys(t, other); len(got) != 40 {
		t.Fatalf("uncommitted writes visible: %d rows", len(got))
	}
	if got := stxnKeys(t, tx); len(got) != 40 || got[1] != 15 {
		t.Fatalf("own writes invisible: %v", got[:3])
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if tx.CommitLSN() == 0 {
		t.Fatal("cross-shard commit got no LSN")
	}
	// Old snapshot still clean; new snapshot sees all three effects at once.
	if got := stxnKeys(t, other); len(got) != 40 {
		t.Fatalf("commit leaked into older snapshot: %d rows", len(got))
	}
	other.Abort()

	after := s.Begin()
	defer after.Abort()
	keys := stxnKeys(t, after)
	if len(keys) != 40 || keys[1] != 15 || keys[len(keys)-1] != 390 {
		t.Fatalf("committed state wrong: n=%d first=%v last=%v", len(keys), keys[:3], keys[len(keys)-1])
	}
	// RIDs are globally consecutive across the shard concatenation.
	src, err := after.Scan([]int{0}, nil, nil)
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
	for i, rid := range out.Rids {
		if rid != uint64(i) {
			t.Fatalf("RID %d at position %d", rid, i)
		}
	}
	// A row moved across shards by a sort-key update stays one row.
	moved := s.Begin()
	defer moved.Abort()
	if ok, err := moved.UpdateByKey(types.Row{types.Int(20)}, 0, types.Int(395)); err != nil || !ok {
		t.Fatalf("cross-shard key move: %v %v", ok, err)
	}
	got := stxnKeys(t, moved)
	if len(got) != 40 {
		t.Fatalf("key move changed row count: %d", len(got))
	}
	if got[len(got)-2] != 390 || got[len(got)-1] != 395 {
		t.Fatalf("moved key not at destination: %v", got[len(got)-3:])
	}
}

// A commit on one shard must not invalidate the other shards' cached
// Write-PDT snapshots: Begin's per-shard snapshot is LSN-keyed per shard.
func TestShardedSnapshotInvalidatesPerShard(t *testing.T) {
	s := newSharded(t, 40, 2, Options{}, nil)
	before := s.Begin()
	defer before.Abort()

	// Commit on shard 0 only (key 15 routes there).
	tx := s.Begin()
	if err := tx.Insert(types.Row{types.Int(15), types.Int(0), types.Str("x")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	after := s.Begin()
	defer after.Abort()
	if before.ShardTxn(0).writeSnap == after.ShardTxn(0).writeSnap {
		t.Fatal("shard 0 snapshot not refreshed after its commit")
	}
	if before.ShardTxn(1).writeSnap != after.ShardTxn(1).writeSnap {
		t.Fatal("commit on shard 0 forced a fresh snapshot of shard 1")
	}
}

// An empty commit on a wedged store reports the wedge, on a sharded table as
// on a bare manager: Commit returns the first shard's maintenance failure
// (here the last shard's, the only one wedged), takes no clock slot and
// finishes every shard's transaction.
func TestEmptyCommitReportsWedgedShard(t *testing.T) {
	errWedged := errors.New("injected: background propagate failed")
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s := newSharded(t, 40, shards, Options{}, nil)
			wedged := s.Shard(shards - 1)
			wedged.mu.Lock()
			wedged.maintErr = errWedged // what a failed fold or rollback leaves
			wedged.mu.Unlock()

			if err := wedged.Begin().Commit(); !errors.Is(err, errWedged) {
				t.Fatalf("empty Txn.Commit on the wedged shard = %v", err)
			}
			tx := s.Begin()
			if err := tx.Commit(); !errors.Is(err, errWedged) {
				t.Fatalf("empty STxn.Commit = %v, want the wedged shard's failure", err)
			}
			if tx.CommitLSN() != 0 || s.Clock() != 0 {
				t.Fatalf("empty commit took LSN %d, clock at %d", tx.CommitLSN(), s.Clock())
			}
			if err := tx.Commit(); !errors.Is(err, ErrTxnDone) {
				t.Fatalf("second Commit = %v", err)
			}
			for i := 0; i < shards; i++ {
				m := s.Shard(i)
				m.mu.Lock()
				running := len(m.running)
				m.mu.Unlock()
				if running != 0 {
					t.Fatalf("shard %d still runs %d transactions", i, running)
				}
			}
		})
	}
}

func TestShardedCrossShardConflict(t *testing.T) {
	s := newSharded(t, 40, 4, Options{}, nil)
	a, b := s.Begin(), s.Begin()
	for _, tx := range []*STxn{a, b} {
		if ok, err := tx.UpdateByKey(types.Row{types.Int(50)}, 1, types.Int(1)); err != nil || !ok {
			t.Fatalf("update: %v %v", ok, err)
		}
		if ok, err := tx.UpdateByKey(types.Row{types.Int(350)}, 1, types.Int(2)); err != nil || !ok {
			t.Fatalf("update: %v %v", ok, err)
		}
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("conflicting cross-shard commit: %v", err)
	}
	// The loser's effects appear nowhere; the winner's everywhere.
	check := s.Begin()
	defer check.Abort()
	for _, key := range []int64{50, 350} {
		_, row, found, err := check.txns[s.ShardOf(types.Row{types.Int(key)})].FindByKey(types.Row{types.Int(key)})
		if err != nil || !found {
			t.Fatalf("key %d: %v %v", key, found, err)
		}
		want := int64(1)
		if key == 350 {
			want = 2
		}
		if row[1].I != want {
			t.Fatalf("key %d: col a = %d, want %d", key, row[1].I, want)
		}
	}
}

// Cross-shard commits stamp the same LSN on every participant's WAL stream,
// with the participant set recorded, and the global clock orders all streams.
func TestShardedCrossCommitWALStamp(t *testing.T) {
	var logs []*bytes.Buffer
	s := newSharded(t, 40, 2, Options{}, &logs)

	// One single-shard commit on shard 0, then one cross-shard commit.
	tx := s.Begin()
	if err := tx.Insert(types.Row{types.Int(15), types.Int(0), types.Str("x")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	cross := s.Begin()
	if err := cross.Insert(types.Row{types.Int(16), types.Int(0), types.Str("y")}); err != nil {
		t.Fatal(err)
	}
	if err := cross.Insert(types.Row{types.Int(396), types.Int(0), types.Str("z")}); err != nil {
		t.Fatal(err)
	}
	if err := cross.Commit(); err != nil {
		t.Fatal(err)
	}
	if cross.CommitLSN() != tx.CommitLSN()+1 {
		t.Fatalf("clock: single=%d cross=%d", tx.CommitLSN(), cross.CommitLSN())
	}

	recs0, err := wal.Replay(bytes.NewReader(logs[0].Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	recs1, err := wal.Replay(bytes.NewReader(logs[1].Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs0) != 2 || len(recs1) != 1 {
		t.Fatalf("stream records: %d, %d", len(recs0), len(recs1))
	}
	if recs0[0].LSN != tx.CommitLSN() || recs0[0].Shard != 0 || len(recs0[0].Parts) != 0 {
		t.Fatalf("single-shard record: %+v", recs0[0])
	}
	for i, rec := range []wal.Record{recs0[1], recs1[0]} {
		if rec.LSN != cross.CommitLSN() || rec.Shard != uint32(i) {
			t.Fatalf("cross record on stream %d: LSN=%d shard=%d", i, rec.LSN, rec.Shard)
		}
		if len(rec.Parts) != 2 || rec.Parts[0] != 0 || rec.Parts[1] != 1 {
			t.Fatalf("cross record participants: %v", rec.Parts)
		}
	}
}

// Parallel plans over a sharded transaction must reproduce the serial scan
// exactly: morsels route shard-by-shard (never crossing a boundary), empty
// clamped shards still surface their delta inserts, and RIDs stay global.
func TestShardedParallelScanMatchesSerial(t *testing.T) {
	s := newSharded(t, 400, 4, Options{}, nil)

	// Dirty every shard: inserts (including at shard boundaries), deletes,
	// and updates, committed so they sit in the Write-PDTs.
	tx := s.Begin()
	for i := 0; i < 40; i++ {
		if err := tx.Insert(types.Row{types.Int(int64(i*100 + 5)), types.Int(-1), types.Str("ins")}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		if ok, err := tx.DeleteByKey(types.Row{types.Int(int64((i*17 + 1) * 10))}); err != nil || !ok {
			t.Fatalf("delete %d: %v %v", i, ok, err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	check := s.Begin()
	defer check.Abort()
	serial, err := engine.Scan(check, 0, 1).WithRids().Parallel(1).Collect()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 7} {
		par, err := engine.Scan(check, 0, 1).WithRids().Parallel(workers).Collect()
		if err != nil {
			t.Fatal(err)
		}
		if par.Len() != serial.Len() {
			t.Fatalf("workers=%d: %d rows, serial %d", workers, par.Len(), serial.Len())
		}
		for i := 0; i < serial.Len(); i++ {
			if par.Rids[i] != serial.Rids[i] || par.Vecs[0].I[i] != serial.Vecs[0].I[i] {
				t.Fatalf("workers=%d row %d: (%d,%d) != serial (%d,%d)", workers, i,
					par.Rids[i], par.Vecs[0].I[i], serial.Rids[i], serial.Vecs[0].I[i])
			}
		}
	}

	// Range-clamped parallel scan that leaves middle shards empty.
	serialR, err := engine.Scan(check, 0).WithRids().Parallel(1).
		Range(types.Row{types.Int(90)}, types.Row{types.Int(130)}).Collect()
	if err != nil {
		t.Fatal(err)
	}
	parR, err := engine.Scan(check, 0).WithRids().Parallel(4).
		Range(types.Row{types.Int(90)}, types.Row{types.Int(130)}).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if parR.Len() != serialR.Len() {
		t.Fatalf("range: %d rows, serial %d", parR.Len(), serialR.Len())
	}
	for i := 0; i < serialR.Len(); i++ {
		if parR.Rids[i] != serialR.Rids[i] || parR.Vecs[0].I[i] != serialR.Vecs[0].I[i] {
			t.Fatalf("range row %d differs", i)
		}
	}
}

// Hammer the single-shard fast path from many writers on disjoint shards,
// with cross-shard commits mixed in, under race detection.
func TestShardedConcurrentWriters(t *testing.T) {
	s := newSharded(t, 400, 4, Options{WriteBudget: 16 << 10}, nil)
	const perWriter = 25
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Writer w inserts fresh keys into shard w's range: keys ending
			// in 5 never collide with the loaded multiples of 10, and
			// w*1000+505.. sits inside shard w (cuts at 1010, 2010, 3010
			// for keys 10..4000).
			for i := 0; i < perWriter; i++ {
				tx := s.Begin()
				key := int64(w*1000 + 505 + i*10)
				if err := tx.Insert(types.Row{types.Int(key), types.Int(int64(w)), types.Str("w")}); err != nil {
					errs <- err
					return
				}
				if err := tx.Commit(); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			tx := s.Begin()
			// Keys ending in 1, one in shard 0 and one in shard 3.
			if err := tx.Insert(types.Row{types.Int(int64(601 + i*10)), types.Int(0), types.Str("x")}); err != nil {
				errs <- err
				return
			}
			if err := tx.Insert(types.Row{types.Int(int64(3601 + i*10)), types.Int(0), types.Str("y")}); err != nil {
				errs <- err
				return
			}
			if err := tx.Commit(); err != nil && !errors.Is(err, ErrConflict) {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := s.WaitMaintenance(); err != nil {
		t.Fatal(err)
	}
	tx := s.Begin()
	defer tx.Abort()
	keys := stxnKeys(t, tx)
	if len(keys) != 400+4*perWriter+20 {
		t.Fatalf("final row count %d, want %d", len(keys), 400+4*perWriter+20)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("keys out of order at %d: %d >= %d", i, keys[i-1], keys[i])
		}
	}
}

// Checkpoints interleaved with sharded commits preserve the view.
func TestShardedCheckpoint(t *testing.T) {
	s := newSharded(t, 40, 2, Options{}, nil)
	tx := s.Begin()
	if err := tx.Insert(types.Row{types.Int(15), types.Int(0), types.Str("x")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert(types.Row{types.Int(395), types.Int(0), types.Str("y")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.WaitMaintenance(); err != nil {
		t.Fatal(err)
	}
	tx2 := s.Begin()
	defer tx2.Abort()
	keys := stxnKeys(t, tx2)
	if len(keys) != 42 || keys[1] != 15 || keys[len(keys)-2] != 395 || keys[len(keys)-1] != 400 {
		t.Fatalf("post-checkpoint state: n=%d head=%v tail=%v", len(keys), keys[:3], keys[len(keys)-3:])
	}
	// Write-PDTs folded away.
	for i := 0; i < s.Shards(); i++ {
		if c := s.Shard(i).WritePDT().Count(); c != 0 {
			t.Fatalf("shard %d Write-PDT still holds %d entries", i, c)
		}
	}
}

// TestShardedMorselWithEmptyShardSelects opens the morsel that also owns an
// empty shard's zero-width slot, so Concat joins two shards' pipelines: the
// result still selects in its scanners, and keeps what Next followed by the
// chain keeps.
func TestShardedMorselWithEmptyShardSelects(t *testing.T) {
	s := newSharded(t, 400, 4, Options{}, nil)
	tx := s.Begin()
	// Keys 10..4000, cut at 1010, 2010 and 3010.
	for _, k := range []int64{5, 1505, 1995, 2405, 2445, 3905} {
		if err := tx.Insert(types.Row{types.Int(k), types.Int(k % 7), types.Str("ins")}); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []int64{1510, 2020, 2450, 3500} {
		if ok, err := tx.DeleteByKey(types.Row{types.Int(k)}); err != nil || !ok {
			t.Fatalf("delete %d: %v %v", k, ok, err)
		}
	}
	if ok, err := tx.UpdateByKey(types.Row{types.Int(2100)}, 1, types.Int(2)); err != nil || !ok {
		t.Fatalf("update: %v %v", ok, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	check := s.Begin()
	defer check.Abort()
	// Shard 3's keys all lie above the range: its slot is empty and sits at
	// the domain's end, owned by the last morsel, which reads shard 2.
	ps, err := check.PartitionScan(types.Row{types.Int(1500)}, types.Row{types.Int(2500)})
	if err != nil {
		t.Fatal(err)
	}
	cols, kinds := []int{0, 1}, []types.Kind{types.Int64, types.Int64}
	chain := &vector.Chain{Outputs: 2, Filters: []vector.Filter{{Slot: 1, Pred: vector.Pred{Op: vector.PredInt64Range, ILo: 0, IHi: 3}}}}
	open := func() pdt.BatchSource {
		src, err := ps.Open(cols, ps.Cuts[len(ps.Cuts)-1], ps.Hi, true, false)
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	render := func(b *vector.Batch, sel []uint32) (rows []string) {
		for _, i := range sel {
			rows = append(rows, fmt.Sprintf("@%d:%d|%d", b.Rids[i], b.Vecs[0].I[i], b.Vecs[1].I[i]))
		}
		return rows
	}
	all, err := pdt.ScanAll(open(), kinds)
	if err != nil {
		t.Fatal(err)
	}
	ref := vector.NewSelection(all.Len())
	ref.All(all.Len())
	chain.Apply(all, ref)
	want := render(all, ref.Indexes())

	morsel := open()
	if name := fmt.Sprintf("%T", morsel); !strings.Contains(name, "concat") {
		t.Fatalf("the last morsel is a %s, not the two shards' pipelines joined", name)
	}
	src, ok := morsel.(pdt.Selector)
	if !ok {
		t.Fatal("a morsel joining two shards' pipelines does not select")
	}
	out, sel := vector.NewBatch(kinds, 64), vector.NewSelection(64)
	var got []string
	for {
		out.Reset()
		n, err := src.Select(out, 64, chain, sel)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		got = append(got, render(out, sel.Indexes())...)
	}
	if len(want) == 0 || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Select kept\n%v\nNext then the chain kept\n%v", got, want)
	}
}
