package txn

// Commit-path micro-benchmarks and their regression guards. The guards turn
// the tentpole properties into failing tests: Begin must stay O(1) in the
// Write-PDT size (copy-on-write snapshot, not a deep copy), and the batched
// TZ serialization must not regress to per-layer intermediate builds.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
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

// growWritePDT commits n single-insert transactions so the master Write-PDT
// holds n entries. Keys descend from a value far above the stable key range,
// so every position probe stops at the first previously-inserted tuple.
func growWritePDT(tb testing.TB, m *Manager, n int) {
	tb.Helper()
	for i := 0; i < n; i++ {
		tx := m.Begin()
		key := int64(1<<40) - int64(i)
		if err := tx.Insert(types.Row{types.Int(key), types.Int(0), types.Str("x")}); err != nil {
			tb.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			tb.Fatal(err)
		}
	}
}

// beginFresh invalidates the shared snapshot cache before Begin, so each call
// pays the full snapshot cost a post-commit Begin pays.
func beginFresh(m *Manager) *Txn {
	m.mu.Lock()
	m.snapCache = nil
	m.mu.Unlock()
	return m.Begin()
}

func mustManager(tb testing.TB, nStable int, opts Options) *Manager {
	tb.Helper()
	rows := make([]types.Row, nStable)
	for i := range rows {
		rows[i] = types.Row{types.Int(int64((i + 1) * 10)), types.Int(int64(i)), types.Str(fmt.Sprintf("s%d", i))}
	}
	tbl, err := table.Load(testSchema(), rows, table.Options{Mode: table.ModePDT, BlockRows: 32})
	if err != nil {
		tb.Fatal(err)
	}
	m := NewManager(tbl.Store(), nil, opts)
	return m
}

// BenchmarkBeginSnapshot measures starting (and immediately aborting) a
// transaction against Write-PDTs of growing size. With the copy-on-write
// snapshot the cost is flat; the old deep copy scaled linearly.
func BenchmarkBeginSnapshot(b *testing.B) {
	for _, size := range []int{0, 1 << 10, 1 << 14} {
		b.Run(fmt.Sprintf("writepdt=%d", size), func(b *testing.B) {
			m := mustManager(b, 64, Options{})
			growWritePDT(b, m, size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx := beginFresh(m)
				if err := tx.Abort(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGroupCommit measures durable commits as concurrent writers pile
// up on the sequencer. Each writer commits one-insert transactions on fresh
// keys (no conflicts) over a log that fsyncs a real file; fsyncs/op is the
// batching ratio: about 1 with one writer, falling as writers share a
// leader's barrier (at most maxCommitBatch commits per fsync).
func BenchmarkGroupCommit(b *testing.B) {
	for _, writers := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			f, err := os.Create(filepath.Join(b.TempDir(), "wal"))
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			var syncs atomic.Int64
			log := wal.NewSyncedWriter(f, func() error {
				syncs.Add(1)
				return f.Sync()
			})
			// A tight write budget keeps the Write-PDT small under the insert
			// stream (background folds absorb it), so Begin's snapshot stays
			// cheap and the sequencer is what is measured.
			m := mustManager(b, 64, Options{WriteBudget: 16 << 10, Log: log})
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for range writers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := next.Add(1); i <= int64(b.N); i = next.Add(1) {
						tx := m.Begin()
						// Stable keys stop at 640: every key from 1<<20 up is fresh.
						if err := tx.Insert(types.Row{types.Int(1<<20 + i), types.Int(i), types.Str("g")}); err != nil {
							b.Error(err)
							tx.Abort()
							return
						}
						if err := tx.Commit(); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(syncs.Load())/float64(b.N), "fsyncs/op")
			if err := m.WaitMaintenance(); err != nil {
				b.Fatal(err)
			}
			if err := f.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkCrossShardCommitDuringCheckpoint measures a cross-shard commit's
// latency over real fsynced logs while one participant's checkpoint build
// runs for 20 ms. The commit waits for the shard's image swap, never its
// build: expect about one fsync, not the build's 20 ms. Only the commit is
// timed, so use a fixed -benchtime (10x): each iteration also waits out a
// build.
func BenchmarkCrossShardCommitDuringCheckpoint(b *testing.B) {
	s := newShardedLogs(b, 400, 2, Options{}, fileLogs(b, b.TempDir()))
	m := s.Shard(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		started := make(chan struct{})
		done := make(chan error, 1)
		go func() {
			done <- m.CheckpointInto(func(_ uint64, store *colstore.Store, deltas ...*pdt.PDT) (*colstore.Store, error) {
				close(started)
				time.Sleep(20 * time.Millisecond)
				return table.Materialize(store, deltas...)
			})
		}()
		<-started
		tx := s.Begin()
		for _, k := range []int64{10, 4000} { // one key per shard
			if _, err := tx.UpdateByKey(types.Row{types.Int(k)}, 1, types.Int(int64(i))); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := <-done; err != nil {
			b.Fatal(err)
		}
	}
}

// TestBeginAllocsConstant is the alloc guard for the snapshot path: the
// number of allocations Begin performs must not grow with the Write-PDT.
func TestBeginAllocsConstant(t *testing.T) {
	measure := func(size int) float64 {
		m := mustManager(t, 64, Options{})
		growWritePDT(t, m, size)
		return testing.AllocsPerRun(200, func() {
			tx := beginFresh(m)
			if err := tx.Abort(); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := measure(1 << 8)
	large := measure(1 << 13)
	if large > small+4 {
		t.Errorf("Begin allocations grew with Write-PDT size: %0.1f at 256 entries, %0.1f at 8192", small, large)
	}
}

// tailRecords builds a WAL tail by hand: one record of base modifies (column
// 1 of rows 0..base-1) that becomes the Write-PDT, then n one-op records,
// each a modify of the same column on a row of its own — so every record
// appends to the payload table the layer has already filled.
func tailRecords(base, n int) (wal.Record, []wal.Record) {
	first := wal.Record{LSN: 1}
	for i := 0; i < base; i++ {
		first.Entries = append(first.Entries, pdt.RebuildEntry{SID: uint64(i), Kind: 1, Mod: types.Int(int64(i))})
	}
	tail := make([]wal.Record, n)
	for i := range tail {
		tail[i] = wal.Record{LSN: uint64(2 + i), Entries: []pdt.RebuildEntry{
			{SID: uint64(base + i), Kind: 1, Mod: types.Int(7)}}}
	}
	return first, tail
}

// BenchmarkRecoverTail replays 1k one-op records onto an 8k-entry Write-PDT.
func BenchmarkRecoverTail(b *testing.B) {
	first, tail := tailRecords(8<<10, 1<<10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := mustManager(b, 64, Options{})
		if err := m.Recover([]wal.Record{first}); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := m.Recover(tail); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecoverBatchTail replays the merge workload's tail shape onto an
// empty Write-PDT over 40k stable rows: 8 records of 940 mixed ops, which
// the size rule bulk-folds, then 960 one-op records, which it propagates.
func BenchmarkRecoverBatchTail(b *testing.B) {
	const stable = 40 << 10
	sizes := make([]int, 0, 8+960)
	for len(sizes) < 8 {
		sizes = append(sizes, 940)
	}
	for len(sizes) < 8+960 {
		sizes = append(sizes, 1)
	}
	records, _, _, _ := scriptedLog(b, stable, sizes, 1)
	store := mustManager(b, stable, Options{}).Store()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewManager(store, nil, Options{})
		if err := m.Recover(records); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRecoverCostFollowsTail is the guard for per-entry replay: the bytes
// allocated replaying a fixed tail must not follow the size of the layer it
// lands on. A whole-tree rebuild per record grows them 16x here, and so does
// a fresh fork per record, whose first append copies the payload table.
func TestRecoverCostFollowsTail(t *testing.T) {
	measure := func(base int) uint64 {
		m := mustManager(t, 64, Options{})
		first, tail := tailRecords(base, 512)
		if err := m.Recover([]wal.Record{first}); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := m.Recover(tail); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got := m.WritePDT().Count(); got != base+512 {
			t.Fatalf("replayed Write-PDT holds %d entries, want %d", got, base+512)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := measure(1<<10), measure(16<<10)
	if large >= 4*small {
		t.Errorf("replaying 512 one-op records allocated %d bytes onto 1k entries, %d onto 16k: cost follows the layer, not the tail", small, large)
	}
}
