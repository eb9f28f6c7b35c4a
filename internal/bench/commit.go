package bench

// Group-commit benchmark: the figure behind the commit sequencer. N writer
// goroutines drive single-transaction inserts against a durable log (a
// wal.NewSyncedWriter over a real file — the same synced writer FileLog
// drives — fsyncing every flushed batch); the "group" series runs the
// sequencer's batching, the "per-commit" series caps the batch at one commit
// so every transaction pays its own durability barrier — the pre-sequencer
// write path, whose throughput is pinned near 1/barrier-latency no matter
// how many writers pile up.
//
// The barrier axis is what makes the figure honest across hardware: a cloud
// VM's virtio fsync can be ~100µs (CPU-bound regime, batching buys little),
// a real disk's barrier is 1–10ms (barrier-bound regime, batching is the
// whole ballgame). Each barrier cell fsyncs the file and then, for non-zero
// values, models the rest of a slower device's latency with a sleep, so one
// run shows both regimes. Reported per cell: sustained commits/s,
// commit-latency percentiles, and how many barriers the log actually paid
// (the batching ratio).

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pdtstore/internal/table"
	"pdtstore/internal/txn"
	"pdtstore/internal/wal"
)

// CommitBenchRow is one measured (writers, mode, shards, barrier) cell.
type CommitBenchRow struct {
	Name          string  `json:"name"`
	Mode          string  `json:"mode"` // "group" or "per-commit"
	Writers       int     `json:"writers"`
	Shards        int     `json:"shards,omitempty"` // 0/1 = unsharded
	BarrierUs     float64 `json:"barrier_us"`       // modeled extra barrier latency (0 = raw fsync)
	Commits       int     `json:"commits"`
	Fsyncs        uint64  `json:"fsyncs"`
	CommitsPerSec float64 `json:"commits_per_sec"`
	P50Us         float64 `json:"p50_us"`
	P95Us         float64 `json:"p95_us"`
	P99Us         float64 `json:"p99_us"`
	MaxUs         float64 `json:"max_us"`
}

// CommitBenchConfig sizes the profile; zero fields select the recorded
// defaults.
type CommitBenchConfig struct {
	TableRows        int             `json:"table_rows"`         // base table rows (default 2k)
	Writers          []int           `json:"writers"`            // goroutine counts (default 1..64)
	CommitsPerWriter int             `json:"commits_per_writer"` // default 50
	OpsPerTxn        int             `json:"ops_per_txn"`        // inserts per transaction (default 1)
	BlockRows        int             `json:"block_rows"`         // stable-image block size (default 256)
	Barriers         []time.Duration `json:"-"`                  // barrier latencies (default 0 and 2ms)
	Shards           []int           `json:"shards,omitempty"`   // shard counts per cell (default 1 = unsharded only)
}

func (c *CommitBenchConfig) fill() {
	if c.TableRows == 0 {
		c.TableRows = 2_000
	}
	if len(c.Writers) == 0 {
		c.Writers = []int{1, 2, 4, 8, 16, 32, 64}
	}
	if c.CommitsPerWriter == 0 {
		c.CommitsPerWriter = 50
	}
	if c.OpsPerTxn == 0 {
		c.OpsPerTxn = 1
	}
	if c.BlockRows == 0 {
		// Small blocks keep the per-insert position probe (one block decode)
		// cheap, so the measured commit path is the sequencer, not the scan.
		c.BlockRows = 256
	}
	if len(c.Barriers) == 0 {
		c.Barriers = []time.Duration{0, 2 * time.Millisecond}
	}
	if len(c.Shards) == 0 {
		c.Shards = []int{1}
	}
}

// CommitModes lists the two series of the commit figure.
var CommitModes = []string{"group", "per-commit"}

func pctlUs(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return float64(sorted[i].Nanoseconds()) / 1e3
}

// commitCell runs one (mode, writers, barrier) cell over a fresh table and a
// fresh durable log in dir. Every transaction inserts opsPerTxn distinct
// keys into the gap below the table's smallest stable key, so commits never
// conflict and the measured path is exactly validate → park → flush.
func commitCell(mode string, writers int, barrier time.Duration, cfg CommitBenchConfig, dir string) (CommitBenchRow, error) {
	tbl, err := LoadUpdateTable(cfg.TableRows, cfg.BlockRows, table.ModePDT)
	if err != nil {
		return CommitBenchRow{}, err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-%d-%d.wal", mode, writers, barrier.Microseconds())))
	if err != nil {
		return CommitBenchRow{}, err
	}
	defer f.Close()
	var syncs atomic.Uint64
	log := wal.NewSyncedWriter(f, func() error {
		if err := f.Sync(); err != nil {
			return err
		}
		if barrier > 0 {
			time.Sleep(barrier) // model the rest of a slower device's barrier
		}
		syncs.Add(1)
		return nil
	})
	// A tight write budget keeps the Write-PDT small under the sustained
	// insert stream (background folds absorb it), so Begin's snapshot copy
	// stays cheap and the measured path is the sequencer, not O(Write-PDT).
	opts := txn.Options{WriteBudget: 16 << 10, Log: log}
	if mode == "per-commit" {
		opts.MaxCommitBatch = 1 // every commit pays its own barrier
	}
	mgr := txn.NewManager(tbl.Store(), tbl.PDT(), opts)

	commits := writers * cfg.CommitsPerWriter
	lats := make([][]time.Duration, writers)
	errs := make(chan error, writers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			base := int64(w*cfg.CommitsPerWriter*cfg.OpsPerTxn) + 1
			for i := 0; i < cfg.CommitsPerWriter; i++ {
				tx := mgr.Begin()
				for j := 0; j < cfg.OpsPerTxn; j++ {
					key := base + int64(i*cfg.OpsPerTxn+j)
					if err := tx.Insert(updRow(key, 9)); err != nil {
						errs <- err
						return
					}
				}
				c0 := time.Now()
				if err := tx.Commit(); err != nil {
					errs <- err
					return
				}
				lats[w] = append(lats[w], time.Since(c0))
			}
			errs <- nil
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		if err != nil {
			return CommitBenchRow{}, err
		}
	}
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	name := fmt.Sprintf("commit/writers=%d", writers)
	if barrier > 0 {
		name = fmt.Sprintf("%s/barrier=%s", name, barrier)
	}
	return CommitBenchRow{
		Name:          name,
		Mode:          mode,
		Writers:       writers,
		BarrierUs:     float64(barrier.Microseconds()),
		Commits:       commits,
		Fsyncs:        syncs.Load(),
		CommitsPerSec: float64(commits) / elapsed.Seconds(),
		P50Us:         pctlUs(all, 0.50),
		P95Us:         pctlUs(all, 0.95),
		P99Us:         pctlUs(all, 0.99),
		MaxUs:         pctlUs(all, 1.0),
	}, nil
}

// commitShardedCell runs one (mode, writers, shards, barrier) cell with the
// stable image physically split shards ways, each shard under its own
// manager, sequencer and fsynced WAL stream on one global commit clock. Every
// writer pins to a home shard (writer w → shard w % shards) and commits
// single-shard inserts into its key range, so the cell measures the
// shard-per-core claim directly: independent sequencers paying their
// durability barriers in parallel instead of queueing on one.
func commitShardedCell(mode string, writers, shards int, barrier time.Duration, cfg CommitBenchConfig, dir string) (CommitBenchRow, error) {
	tbl, err := LoadUpdateTable(cfg.TableRows, cfg.BlockRows, table.ModePDT)
	if err != nil {
		return CommitBenchRow{}, err
	}
	stores, keys, err := table.ShardSplit(tbl.Store(), shards, nil, cfg.BlockRows, false)
	if err != nil {
		return CommitBenchRow{}, err
	}
	var syncs atomic.Uint64
	mgrs := make([]*txn.Manager, shards)
	for i := range stores {
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-%d-%d-s%d.wal", mode, writers, barrier.Microseconds(), i)))
		if err != nil {
			return CommitBenchRow{}, err
		}
		defer f.Close()
		log := wal.NewSyncedWriter(f, func() error {
			if err := f.Sync(); err != nil {
				return err
			}
			if barrier > 0 {
				time.Sleep(barrier)
			}
			syncs.Add(1)
			return nil
		})
		opts := txn.Options{WriteBudget: 16 << 10, Log: log}
		if mode == "per-commit" {
			opts.MaxCommitBatch = 1
		}
		mgrs[i] = txn.NewManager(stores[i], nil, opts)
	}
	sh, err := txn.NewSharded(mgrs, keys)
	if err != nil {
		return CommitBenchRow{}, err
	}

	commits := writers * cfg.CommitsPerWriter
	lats := make([][]time.Duration, writers)
	errs := make(chan error, writers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			home := w % shards
			// Fresh keys inside the home shard's range: the gap just above
			// the shard's first stable key (a multiple of updStride), offset
			// by the writer's rank among the shard's writers so keys never
			// collide (the gap holds updStride-1 ≫ rank·commits·ops slots).
			rowBase := int64(home) * int64(cfg.TableRows) / int64(shards)
			base := (rowBase+1)*updStride + 1 +
				int64(w/shards)*int64(cfg.CommitsPerWriter*cfg.OpsPerTxn)
			for i := 0; i < cfg.CommitsPerWriter; i++ {
				tx := sh.Shard(home).Begin()
				for j := 0; j < cfg.OpsPerTxn; j++ {
					key := base + int64(i*cfg.OpsPerTxn+j)
					if err := tx.Insert(updRow(key, 9)); err != nil {
						errs <- err
						return
					}
				}
				c0 := time.Now()
				if err := tx.Commit(); err != nil {
					errs <- err
					return
				}
				lats[w] = append(lats[w], time.Since(c0))
			}
			errs <- nil
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		if err != nil {
			return CommitBenchRow{}, err
		}
	}
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	name := fmt.Sprintf("commit/writers=%d/shards=%d", writers, shards)
	if barrier > 0 {
		name = fmt.Sprintf("%s/barrier=%s", name, barrier)
	}
	return CommitBenchRow{
		Name:          name,
		Mode:          mode,
		Writers:       writers,
		Shards:        shards,
		BarrierUs:     float64(barrier.Microseconds()),
		Commits:       commits,
		Fsyncs:        syncs.Load(),
		CommitsPerSec: float64(commits) / elapsed.Seconds(),
		P50Us:         pctlUs(all, 0.50),
		P95Us:         pctlUs(all, 0.95),
		P99Us:         pctlUs(all, 0.99),
		MaxUs:         pctlUs(all, 1.0),
	}, nil
}

// CommitProfile measures commit throughput and latency vs writer count,
// barrier latency and shard count, group commit against the per-commit-fsync
// baseline, on real fsynced log files in a temporary directory.
func CommitProfile(cfg CommitBenchConfig) ([]CommitBenchRow, error) {
	cfg.fill()
	dir, err := os.MkdirTemp("", "pdtstore-commit-bench")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var out []CommitBenchRow
	for _, barrier := range cfg.Barriers {
		for _, writers := range cfg.Writers {
			for _, shards := range cfg.Shards {
				for _, mode := range CommitModes {
					var row CommitBenchRow
					var err error
					if shards > 1 {
						row, err = commitShardedCell(mode, writers, shards, barrier, cfg, dir)
					} else {
						row, err = commitCell(mode, writers, barrier, cfg, dir)
					}
					if err != nil {
						return nil, err
					}
					out = append(out, row)
				}
			}
		}
	}
	return out, nil
}
