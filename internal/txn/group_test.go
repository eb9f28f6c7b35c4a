package txn

// Group-commit tests: the commit sequencer's contract under concurrency.
// Writers parked behind one leader flush must each get their own LSN, one
// fsync must cover the whole batch, Begin must never wait behind an
// in-flight fsync, a failed batch fsync must abort every transaction in the
// batch with nothing visible, and checkpoints must interleave with parked
// commits without breaking the layer invariants — and with cross-shard
// commits, which ride a shard's batch, hold its swap off while in flight,
// and never wait for its build.

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pdtstore/internal/colstore"
	"pdtstore/internal/pdt"
	"pdtstore/internal/table"
	"pdtstore/internal/types"
	"pdtstore/internal/wal"
)

// gateSync is a durability barrier a test holds shut: every sync parks on
// the gate until the test hands it a verdict (nil, or an injected failure).
type gateSync struct {
	entered chan struct{}
	verdict chan error
}

func newGateSync() *gateSync {
	return &gateSync{entered: make(chan struct{}, 16), verdict: make(chan error)}
}

func (g *gateSync) sync() error {
	g.entered <- struct{}{}
	return <-g.verdict
}

// waitFor polls cond under the manager lock until it holds (or the test
// deadline would make the failure obvious anyway).
func waitFor(t *testing.T, m *Manager, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		m.mu.Lock()
		ok := cond()
		m.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGroupCommitBatchesFsyncs: concurrent writers commit over a log whose
// durability barrier is slow; every commit must succeed with a distinct,
// contiguous LSN, and the batch leader must have amortized the barrier —
// far fewer fsyncs than commits.
func TestGroupCommitBatchesFsyncs(t *testing.T) {
	var syncs atomic.Int64
	var buf bytes.Buffer
	log := wal.NewSyncedWriter(&buf, func() error {
		time.Sleep(200 * time.Microsecond) // a "disk" slow enough to park writers behind
		syncs.Add(1)
		return nil
	})
	m := newManager(t, 0, Options{WriteBudget: 1 << 20, Log: log})
	const workers, perWorker = 8, 25
	lsns := make([][]uint64, workers)
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tx := m.Begin()
				key := int64(1000 + w*1000 + i)
				if err := tx.Insert(types.Row{types.Int(key), types.Int(int64(w)), types.Str("g")}); err != nil {
					errs <- err
					tx.Abort()
					continue
				}
				if err := tx.Commit(); err != nil {
					errs <- err
					continue
				}
				lsns[w] = append(lsns[w], tx.CommitLSN())
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("worker error: %v", err)
	}
	const commits = workers * perWorker
	// Every waiter woke with its own LSN, and together they are exactly
	// 1..commits: the batch install walked the group's LSNs in order.
	var all []uint64
	for _, l := range lsns {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	if len(all) != commits {
		t.Fatalf("collected %d LSNs, want %d", len(all), commits)
	}
	for i, lsn := range all {
		if lsn != uint64(i+1) {
			t.Fatalf("LSN sequence broken at %d: got %d", i, lsn)
		}
	}
	if got := m.LSN(); got != commits {
		t.Fatalf("commit clock = %d, want %d", got, commits)
	}
	if n := syncs.Load(); n >= commits {
		t.Fatalf("%d fsyncs for %d commits: no batching happened", n, commits)
	}
	// The log replays every commit in LSN order.
	recs, err := wal.Replay(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != commits {
		t.Fatalf("log holds %d records, want %d", len(recs), commits)
	}
	check := m.Begin()
	defer check.Abort()
	if keys := txnKeys(t, check); len(keys) != commits {
		t.Fatalf("final state has %d rows, want %d", len(keys), commits)
	}
}

// TestBeginRunsDuringFsync: the acceptance criterion that motivated the
// sequencer — the durability wait happens off the manager mutex, so Begin
// (and scans, and commit validation) proceed while a batch is inside fsync.
func TestBeginRunsDuringFsync(t *testing.T) {
	g := newGateSync()
	var buf bytes.Buffer
	m := newManager(t, 10, Options{Log: wal.NewSyncedWriter(&buf, g.sync)})

	leaderDone := make(chan error, 1)
	go func() {
		tx := m.Begin()
		if err := tx.Insert(types.Row{types.Int(1001), types.Int(0), types.Str("x")}); err != nil {
			leaderDone <- err
			return
		}
		leaderDone <- tx.Commit()
	}()
	<-g.entered // the batch is inside its fsync, manager mutex free

	beginOK := make(chan int, 1)
	go func() {
		tx := m.Begin()
		defer tx.Abort()
		beginOK <- len(txnKeys(t, tx))
	}()
	select {
	case n := <-beginOK:
		if n != 10 {
			t.Fatalf("snapshot during fsync saw %d rows, want 10 (commit not yet durable)", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Begin/Scan blocked behind an in-flight fsync")
	}
	select {
	case err := <-leaderDone:
		t.Fatalf("commit returned (%v) before its fsync completed", err)
	default:
	}
	g.verdict <- nil
	if err := <-leaderDone; err != nil {
		t.Fatal(err)
	}
	check := m.Begin()
	defer check.Abort()
	if n := len(txnKeys(t, check)); n != 11 {
		t.Fatalf("post-commit state has %d rows, want 11", n)
	}
}

// TestGroupCommitBatchFailureFailsAll: the fsync under a batch fails. Every
// transaction in the batch — the leader's and everything parked behind it —
// must get the error, the log must be poisoned, the clock must not move,
// and none of the batch may become visible.
func TestGroupCommitBatchFailureFailsAll(t *testing.T) {
	g := newGateSync()
	var buf bytes.Buffer
	m := newManager(t, 10, Options{Log: wal.NewSyncedWriter(&buf, g.sync)})

	const followers = 3
	results := make(chan error, followers+1)
	commit := func(key int64) {
		tx := m.Begin()
		if err := tx.Insert(types.Row{types.Int(key), types.Int(0), types.Str("f")}); err != nil {
			results <- err
			return
		}
		results <- tx.Commit()
	}
	go commit(2001)
	<-g.entered // leader parked at the barrier with its one-commit batch
	for i := 0; i < followers; i++ {
		go commit(int64(2002 + i))
	}
	// The in-flight leader batch stays at the head of pending until install,
	// so the queue holds it plus every parked follower.
	waitFor(t, m, "followers to park on the sequencer", func() bool { return len(m.pending) == followers+1 })

	g.verdict <- errors.New("injected: device died at the barrier")
	for i := 0; i < followers+1; i++ {
		err := <-results
		if err == nil {
			t.Fatal("a transaction in the failed batch committed")
		}
		if !strings.Contains(err.Error(), "WAL append failed") {
			t.Fatalf("unexpected batch failure error: %v", err)
		}
	}
	if got := m.LSN(); got != 0 {
		t.Fatalf("failed batch advanced the clock to %d", got)
	}
	check := m.Begin()
	defer check.Abort()
	if n := len(txnKeys(t, check)); n != 10 {
		t.Fatalf("state has %d rows after failed batch, want the original 10", n)
	}
	// The log is poisoned: later commits fail without reaching a barrier.
	tx := m.Begin()
	if err := tx.Insert(types.Row{types.Int(3001), types.Int(0), types.Str("p")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("commit on a poisoned log succeeded")
	}
}

// TestParkedCommitConflicts: a commit parked on the sequencer is ahead in
// the commit order, so a concurrent transaction touching the same tuple
// must abort with ErrConflict during validation — before parking — even
// though the earlier commit is not yet durable.
func TestParkedCommitConflicts(t *testing.T) {
	g := newGateSync()
	var buf bytes.Buffer
	m := newManager(t, 10, Options{Log: wal.NewSyncedWriter(&buf, g.sync)})

	t1 := m.Begin()
	t2 := m.Begin()
	if _, err := t1.UpdateByKey(types.Row{types.Int(10)}, 1, types.Int(111)); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.UpdateByKey(types.Row{types.Int(10)}, 1, types.Int(222)); err != nil {
		t.Fatal(err)
	}
	done1 := make(chan error, 1)
	go func() { done1 <- t1.Commit() }()
	<-g.entered // t1 parked at the barrier, not yet durable

	if err := t2.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("conflicting commit against a parked transaction: err = %v, want ErrConflict", err)
	}
	g.verdict <- nil
	if err := <-done1; err != nil {
		t.Fatal(err)
	}
	check := m.Begin()
	defer check.Abort()
	if _, row, found, err := check.FindByKey(types.Row{types.Int(10)}); err != nil || !found {
		t.Fatalf("key 10 missing after commit: %v", err)
	} else if row[1].I != 111 {
		t.Fatalf("key 10 col 1 = %d, want the parked winner's 111", row[1].I)
	}
}

// TestCheckpointInterleavesWithParkedCommits: a checkpoint arriving while a
// batch is inside its fsync (with more commits parked behind it) must wait
// out the round, freeze — rebasing the parked folds onto the fresh write
// layer — and complete while the rebased commits flush afterwards. Nothing
// is lost on either side.
func TestCheckpointInterleavesWithParkedCommits(t *testing.T) {
	g := newGateSync()
	var buf bytes.Buffer
	m := newManager(t, 10, Options{Log: wal.NewSyncedWriter(&buf, g.sync)})

	results := make(chan error, 3)
	commit := func(key int64) {
		tx := m.Begin()
		if err := tx.Insert(types.Row{types.Int(key), types.Int(0), types.Str("c")}); err != nil {
			results <- err
			return
		}
		results <- tx.Commit()
	}
	go commit(5001)
	<-g.entered // round 1 (just 5001) inside fsync
	go commit(5002)
	go commit(5003)
	waitFor(t, m, "followers to park", func() bool { return len(m.pending) == 3 })

	ckptDone := make(chan error, 1)
	go func() { ckptDone <- m.Checkpoint() }()
	waitFor(t, m, "checkpoint to queue behind the round", func() bool { return m.ckptWaiters == 1 })

	g.verdict <- nil // round 1 installs; the leader yields to the checkpointer,
	// which freezes and rebases the two parked commits, then round 2 flushes.
	<-g.entered
	g.verdict <- nil
	for i := 0; i < 3; i++ {
		if err := <-results; err != nil {
			t.Fatal(err)
		}
	}
	if err := <-ckptDone; err != nil {
		t.Fatal(err)
	}
	if err := m.WaitMaintenance(); err != nil {
		t.Fatal(err)
	}
	check := m.Begin()
	defer check.Abort()
	keys := txnKeys(t, check)
	if len(keys) != 13 {
		t.Fatalf("final state has %d rows, want 13", len(keys))
	}
	for _, want := range []int64{5001, 5002, 5003} {
		found := false
		for _, k := range keys {
			if k == want {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("key %d lost across the checkpoint/group-commit interleave", want)
		}
	}
	if err := m.WritePDT().Validate(); err != nil {
		t.Fatal(err)
	}
}

// await returns what ch delivers, failing the test if that takes more than
// five seconds: a cycle in the wait graph fails the test instead of hanging.
func await[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out after 5s waiting for %s", what)
	}
	panic("unreachable")
}

// heldCheckpoint starts a checkpoint of m whose image build blocks until
// release is closed, and returns once the build has started (the write
// layer is frozen). done delivers the checkpoint's result.
func heldCheckpoint(t *testing.T, m *Manager) (release chan struct{}, done <-chan error) {
	t.Helper()
	started, release := make(chan struct{}), make(chan struct{})
	res := make(chan error, 1)
	go func() {
		res <- m.CheckpointInto(func(_ uint64, store *colstore.Store, deltas ...*pdt.PDT) (*colstore.Store, error) {
			close(started)
			<-release
			return table.Materialize(store, deltas...)
		})
	}()
	await(t, started, "the checkpoint build to start")
	return release, res
}

// commitAsync commits one transaction inserting keys, in the background.
func commitAsync(s *Sharded, keys ...int64) <-chan error {
	done := make(chan error, 1)
	go func() {
		tx := s.Begin()
		for _, k := range keys {
			if err := tx.Insert(types.Row{types.Int(k), types.Int(0), types.Str("x")}); err != nil {
				tx.Abort()
				done <- err
				return
			}
		}
		done <- tx.Commit()
	}()
	return done
}

// checkShardedKeys compares the table's visible keys with the model (the
// loaded keys 10..10n plus extra) and validates every shard's PDT layers.
func checkShardedKeys(t *testing.T, s *Sharded, n int, extra ...int64) {
	t.Helper()
	want := append([]int64(nil), extra...)
	for i := 1; i <= n; i++ {
		want = append(want, int64(i*10))
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	tx := s.Begin()
	defer tx.Abort()
	if got := stxnKeys(t, tx); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("visible keys\n%v\nwant\n%v", got, want)
	}
	for i := 0; i < s.Shards(); i++ {
		if err := s.Shard(i).ReadPDT().Validate(); err != nil {
			t.Fatalf("shard %d Read-PDT: %v", i, err)
		}
		if err := s.Shard(i).WritePDT().Validate(); err != nil {
			t.Fatalf("shard %d Write-PDT: %v", i, err)
		}
	}
}

// TestCrossShardCommitDuringCheckpointBuild: a cross-shard commit over a
// shard whose checkpoint is mid-build completes before the build does. Its
// fold lands on the side layer, which the swap installs as the new Read-PDT.
func TestCrossShardCommitDuringCheckpointBuild(t *testing.T) {
	s := newSharded(t, 40, 2, Options{}, nil)
	m := s.Shard(0)
	release, ckpt := heldCheckpoint(t, m)

	if err := await(t, commitAsync(s, 15, 395), "a cross-shard commit over a shard mid-build"); err != nil {
		t.Fatal(err)
	}
	checkShardedKeys(t, s, 40, 15, 395)
	close(release)
	if err := await(t, ckpt, "the checkpoint"); err != nil {
		t.Fatal(err)
	}
	checkShardedKeys(t, s, 40, 15, 395)
	if c := m.WritePDT().Count(); c != 0 {
		t.Fatalf("the commit is not in the swapped-in side layer: Write-PDT holds %d entries", c)
	}
	if got := m.Store().NRows(); got != 20 {
		t.Fatalf("new image holds %d rows, want the 20 frozen ones", got)
	}
}

// TestCrossMemberSharesBatchFsync: a cross-shard member rides its
// participant's ordinary batch. Three single-shard commits park on shard 0
// behind a round inside its fsync, the member parks behind them, and the next
// round flushes all four behind one fsync — the batch ending at the member.
func TestCrossMemberSharesBatchFsync(t *testing.T) {
	g := newGateSync()
	log0 := &syncCounter{Log: wal.NewSyncedWriter(new(bytes.Buffer), g.sync)}
	var buf1 bytes.Buffer
	s := newShardedLogs(t, 40, 2, Options{}, func(i int) wal.Log {
		if i == 0 {
			return log0
		}
		return wal.NewWriter(&buf1)
	})
	m := s.Shard(0)

	first := commitAsync(s, 15)
	await(t, g.entered, "the first round's fsync")
	parked := []<-chan error{commitAsync(s, 25), commitAsync(s, 35), commitAsync(s, 45)}
	waitFor(t, m, "three commits to park", func() bool { return len(m.pending) == 4 })
	cross := commitAsync(s, 55, 395)
	waitFor(t, m, "the member to park behind them", func() bool { return len(m.pending) == 5 })

	g.verdict <- nil // round 1 installs; round 2 is the three commits and the member
	await(t, g.entered, "the second round's fsync")
	g.verdict <- nil
	for i, ch := range append(parked, first, cross) {
		if err := await(t, ch, fmt.Sprintf("commit %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := log0.syncs.Load(); got != 2 {
		t.Fatalf("shard 0 took %d fsyncs, want 2: the parked commits and the member share one", got)
	}
	if log0.LSN() != 5 || m.LSN() != 5 {
		t.Fatalf("shard 0's stream ends at LSN %d and its clock at %d, want the member's 5", log0.LSN(), m.LSN())
	}
	recs, err := wal.Replay(&buf1)
	if err != nil || len(recs) != 1 || recs[0].LSN != 5 || len(recs[0].Parts) != 2 {
		t.Fatalf("shard 1's stream: %+v, %v; want the member's record at LSN 5", recs, err)
	}
	checkShardedKeys(t, s, 40, 15, 25, 35, 45, 55, 395)
}

// gatedLog holds every append at the gate before passing it on.
type gatedLog struct {
	wal.Log
	g *gateSync
}

func (l gatedLog) AppendGroup(recs []wal.GroupRecord) error {
	if err := l.g.sync(); err != nil {
		return err
	}
	return l.Log.AppendGroup(recs)
}

// TestCrossMemberFailureAbortsEverywhere: a cross-shard member X over shards
// 0 and 1 is durable on shard 1 when its fsync on shard 0 fails. X aborts on
// both shards, and so does everything validated against it: a single-shard
// commit parked behind it on shard 1, and a member Y over shards 1 and 2
// parked behind it there, which never reaches shard 2's stream — it waits
// for X there — so no orphan of Y outlives the failure on a healthy log. X's
// own orphan on shard 1 is dropped on replay, and the healthy shards keep
// committing.
func TestCrossMemberFailureAbortsEverywhere(t *testing.T) {
	g := newGateSync()
	dir := filepath.Join(t.TempDir(), "wal-0")
	log0, _, err := wal.OpenFileLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer log0.Close()
	log0.FailNextSync(errors.New("injected: device died at the barrier"))
	var buf1, buf2 bytes.Buffer
	logs := []wal.Log{gatedLog{log0, g}, wal.NewWriter(&buf1), wal.NewWriter(&buf2)}
	s := newShardedLogs(t, 60, 3, Options{}, func(i int) wal.Log { return logs[i] })
	for i, k := range []int64{15, 215, 415} {
		if s.ShardOf(types.Row{types.Int(k)}) != i {
			t.Fatalf("key %d is not on shard %d (split keys %v)", k, i, s.Keys())
		}
	}
	m1, m2 := s.Shard(1), s.Shard(2)

	x := commitAsync(s, 15, 215)
	await(t, g.entered, "shard 0's append of X")
	waitFor(t, m1, "X to be durable on shard 1", func() bool {
		grp := m1.pending[0].group
		grp.mu.Lock()
		defer grp.mu.Unlock()
		return grp.left == 1
	})
	single := commitAsync(s, 225)
	waitFor(t, m1, "a commit to park behind X", func() bool { return len(m1.pending) == 2 })
	y := commitAsync(s, 235, 425)
	waitFor(t, m1, "Y to park behind them", func() bool { return len(m1.pending) == 3 })
	waitFor(t, m2, "Y to wait on shard 2", func() bool { return len(m2.pending) == 1 })

	g.verdict <- nil // shard 0 appends X, and its fsync fails
	for what, ch := range map[string]<-chan error{"X": x, "the parked commit": single, "Y": y} {
		if err := await(t, ch, what); err == nil {
			t.Fatalf("%s committed over a failed participant", what)
		}
	}
	checkShardedKeys(t, s, 60)
	if buf2.Len() != 0 {
		t.Fatal("Y reached shard 2's stream although X, queued ahead of it, failed")
	}
	if err := await(t, commitAsync(s, 245, 435), "a commit over the healthy shards"); err != nil {
		t.Fatal(err)
	}
	checkShardedKeys(t, s, 60, 245, 435)

	log0.Close()
	_, rec0, err := wal.OpenFileLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec1, err1 := wal.Replay(&buf1)
	rec2, err2 := wal.Replay(&buf2)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if len(rec0) != 0 || len(rec1) != 2 || len(rec2) != 1 {
		t.Fatalf("streams hold %d, %d, %d records; want none, X's orphan and the last commit, the last commit",
			len(rec0), len(rec1), len(rec2))
	}
	kept := wal.CompleteGroups([][]wal.Record{rec0, rec1, rec2}, make([]uint64, 3))
	if len(kept[1]) != 1 || kept[1][0].LSN != rec2[0].LSN {
		t.Fatalf("replay keeps %+v on shard 1, want only the last commit", kept[1])
	}
}

// TestCheckpointSwapWaitsForDurableMember: a cross-shard member is durable
// on shard 0 while shard 1's fsync is still out, so shard 0's leader keeps
// it in flight; shard 0's checkpoint reaches its swap meanwhile, and a
// single-shard commit parks behind the member. The swap waits for the member
// (a rebase must not touch a commit already durable), then all three finish
// with nothing lost, the member in the side layer the swap installed.
func TestCheckpointSwapWaitsForDurableMember(t *testing.T) {
	g := newGateSync()
	var buf0, buf1 bytes.Buffer
	s := newShardedLogs(t, 40, 2, Options{}, func(i int) wal.Log {
		if i == 0 {
			return wal.NewWriter(&buf0)
		}
		return wal.NewSyncedWriter(&buf1, g.sync)
	})
	m := s.Shard(0)
	release, ckpt := heldCheckpoint(t, m)

	cross := commitAsync(s, 15, 395)
	await(t, g.entered, "shard 1's fsync")
	waitFor(t, m, "the member to be durable on shard 0", func() bool {
		grp := m.pending[0].group
		grp.mu.Lock()
		defer grp.mu.Unlock()
		return grp.left == 1
	})
	single := commitAsync(s, 25)
	waitFor(t, m, "a commit to park behind the member", func() bool { return len(m.pending) == 2 })
	close(release)
	waitFor(t, m, "the swap to wait on the member", func() bool { return m.ckptInstalling && m.inflight == 1 })
	select {
	case err := <-ckpt:
		t.Fatalf("checkpoint swapped under a durable member (%v)", err)
	default:
	}

	g.verdict <- nil
	for what, ch := range map[string]<-chan error{
		"the cross-shard commit": cross, "the parked commit": single, "the checkpoint": ckpt,
	} {
		if err := await(t, ch, what); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	checkShardedKeys(t, s, 40, 15, 25, 395)
	if c := m.ReadPDT().Count(); c != 1 {
		t.Fatalf("the member is not in the swapped-in side layer: Read-PDT holds %d entries", c)
	}
	for i, buf := range []*bytes.Buffer{&buf0, &buf1} {
		recs, err := wal.Replay(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 || len(recs[0].Parts) != 2 {
			t.Fatalf("shard %d stream: %+v, want the cross-shard record first", i, recs)
		}
	}
}

// TestGroupCommitStress is the commit-stress lane's main load: many writers
// over a real fsynced file log, racing an explicit checkpoint loop and
// background Write→Read folds (tiny budget). Every commit must succeed and
// be durable exactly once in a cold replay of the log directory. (Barrier
// failure under a batch is covered by TestGroupCommitBatchFailureFailsAll
// here and TestGroupCommitFsyncFailureRecovery at the DB level.)
func TestGroupCommitStress(t *testing.T) {
	dir := t.TempDir()
	log, recs, err := wal.OpenFileLog(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh log replayed %d records", len(recs))
	}
	defer log.Close()
	m := newManager(t, 0, Options{WriteBudget: 1 << 12, Log: log})

	const workers, perWorker = 8, 12
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker+8)
	stopCkpt := make(chan struct{})
	var ckptWG sync.WaitGroup
	ckptWG.Add(1)
	go func() {
		defer ckptWG.Done()
		for {
			select {
			case <-stopCkpt:
				return
			default:
			}
			if err := m.Checkpoint(); err != nil {
				errs <- err
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tx := m.Begin()
				key := int64(10_000 + w*1000 + i)
				if err := tx.Insert(types.Row{types.Int(key), types.Int(int64(w)), types.Str("s")}); err != nil {
					errs <- err
					tx.Abort()
					continue
				}
				if err := tx.Commit(); err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(stopCkpt)
	ckptWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("stress error: %v", err)
	}
	if err := m.WaitMaintenance(); err != nil {
		t.Fatal(err)
	}
	const commits = workers * perWorker
	if got := m.LSN(); got != commits {
		t.Fatalf("commit clock = %d, want %d", got, commits)
	}
	check := m.Begin()
	defer check.Abort()
	keys := txnKeys(t, check)
	if len(keys) != commits {
		t.Fatalf("final state has %d rows, want %d", len(keys), commits)
	}
	seen := map[int64]bool{}
	for _, k := range keys {
		if seen[k] {
			t.Fatalf("duplicate key %d", k)
		}
		seen[k] = true
	}
	// Durability: a cold replay of the log directory holds every commit
	// exactly once, in LSN order.
	log2, recs, err := wal.OpenFileLog(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	if len(recs) != commits {
		t.Fatalf("cold replay found %d records, want %d", len(recs), commits)
	}
	for i, rec := range recs {
		if rec.LSN != uint64(i+1) {
			t.Fatalf("record %d has LSN %d", i, rec.LSN)
		}
	}
}
