package main

// The kill-equivalent snapshot: byte-copy the live store, then open, verify,
// checkpoint and close copies of it.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pdtstore"
	"pdtstore/internal/colstore"
	"pdtstore/internal/engine"
	"pdtstore/internal/tpch"
	"pdtstore/internal/vector"
)

func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, p)
		to := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(to, data, 0o644)
	})
}

// fileSizes maps every file below dir (by relative path) to its size.
func fileSizes(dir string) map[string]int64 {
	sizes := map[string]int64{}
	filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			rel, _ := filepath.Rel(dir, p)
			sizes[rel] = info.Size()
		}
		return nil
	})
	return sizes
}

// verifyStore scans every column of every row and checks the store holds
// exactly the oracle's rows, in key order.
func (b *bench) verifyStore(db *pdtstore.DB) error {
	tx := db.Begin()
	defer tx.Abort()
	var (
		hashes []uint64
		rows   int
		prev   = key{-1, -1}
	)
	err := engine.Scan(tx, allCols...).Parallel(1).Run(func(bt *vector.Batch, sel []uint32) error {
		hashes = hashBatch(bt, sel, hashes)
		for j, i := range sel {
			k := key{bt.Vecs[tpch.LOrderkey].I[i], bt.Vecs[tpch.LLinenumber].I[i]}
			if k.ok < prev.ok || (k.ok == prev.ok && k.ln <= prev.ln) {
				return fmt.Errorf("row %d: key %v after %v", rows, k, prev)
			}
			prev = k
			rc, ok := b.or.rows[k]
			if !ok {
				return fmt.Errorf("row %d: key %v is not in the oracle", rows, k)
			}
			if rc.hash() != hashes[j] {
				return fmt.Errorf("row %d: key %v differs from the oracle", rows, k)
			}
			rows++
		}
		return nil
	})
	if err != nil {
		return err
	}
	if rows != len(b.or.rows) {
		return fmt.Errorf("store holds %d rows, oracle %d", rows, len(b.or.rows))
	}
	if brute := b.or.recompute(); !b.or.agg.equal(&brute) {
		return fmt.Errorf("oracle aggregates drifted from its rows: kept %+v, recomputed %+v", b.or.agg, brute)
	}
	return nil
}

func maxLSN(st pdtstore.Stats) uint64 {
	var m uint64
	for _, sh := range st.Shard {
		if sh.LSN > m {
			m = sh.LSN
		}
	}
	return m
}

// snapshotStats is what the open/checkpoint repetitions measured.
type snapshotStats struct {
	dir string // the snapshot itself, kept for the layer probes
	// reps holds open_ms and checkpoint_ms, one entry per repetition.
	reps             *samples
	closeMs          []float64
	openNoTailMs     []float64 // reopen of the checkpointed copy: nothing to replay
	tailRecords      uint64
	walBytes         int64
	diskBytes        int64
	ckptModes        map[string]int
	ckptBytesWritten int64
	generationsMax   int
	deadBlockFrac    float64
}

// repsBudget caps how long the open/checkpoint repetitions beyond cfg.reps
// may go on: cheap ones (tens of ms) get up to three times as many.
const repsBudget = 2500 * time.Millisecond

// snapshotReps byte-copies the live store directory while the DB is still
// open — what a kill would leave behind, since every acknowledged commit was
// fsynced — and, per repetition, opens a fresh copy (WAL replay included),
// checkpoints it and closes it. Repetition 0 is the check: its reopened copy
// must hold every acknowledged commit, and it records what the checkpoint
// left on disk; being the process's first open and first checkpoint of this
// state it is also the slowest by a third, so its times are not counted.
func (b *bench) snapshotReps() (*snapshotStats, error) {
	st := &snapshotStats{ckptModes: map[string]int{}, dir: filepath.Join(b.dir, "snapshot"), reps: newSamples()}
	for _, sh := range b.db.Stats().Shard {
		st.tailRecords += sh.WALRecords
		st.walBytes += sh.WALBytes
	}
	if err := copyDir(b.db.Dir(), st.dir); err != nil {
		return nil, err
	}
	c := b.main
	o := b.options(false)
	// timed runs one call of a repetition between two laps of the reference
	// clock, inside a span, and files its time under name when keep is set.
	timed := func(span, name string, parent int, keep bool, fn func() error) error {
		b.clk.lap()
		sp := c.tr.begin(span, parent)
		t0 := time.Now()
		err := fn()
		wall := since(t0)
		c.tr.end(sp)
		if slow := b.clk.lap(); keep {
			st.reps.add(name, wall, slow, false)
			st.reps.all[name] = append(st.reps.all[name], wall)
		}
		c.attempted++
		return err
	}
	start := time.Now()
	for i := 0; i <= b.cfg.reps || (i <= 3*b.cfg.reps && time.Since(start) < repsBudget); i++ {
		runtime.GC()
		dir := filepath.Join(b.dir, fmt.Sprintf("reopen-%d", i))
		if err := copyDir(st.dir, dir); err != nil {
			return nil, err
		}
		o.Device = colstore.NewDevice()
		rep := c.tr.begin("reopen", -1)
		var db *pdtstore.DB
		err := timed("Open", "open_ms", rep, i > 0, func() (err error) {
			db, err = pdtstore.Open(dir, o)
			return err
		})
		if err != nil {
			c.fail("open snapshot copy: %v", err)
			return st, nil
		}
		if i == 0 {
			c.attempted += 2
			if got := maxLSN(db.Stats()); got != b.lastLSN {
				c.fail("reopened store is at LSN %d, last acknowledged commit was %d", got, b.lastLSN)
			}
			if err := b.verifyStore(db); err != nil {
				c.fail("reopened store: %v", err)
			}
		}
		before := fileSizes(dir)
		if err := timed("Checkpoint", "checkpoint_ms", rep, i > 0, db.Checkpoint); err != nil {
			c.fail("checkpoint snapshot copy: %v", err)
		}
		if i == 0 {
			st.footprint(db, dir, before)
		}
		sp := c.tr.begin("Close", rep)
		t0 := time.Now()
		err = db.Close()
		st.closeMs = append(st.closeMs, since(t0))
		c.tr.end(sp)
		c.tr.end(rep)
		if err != nil {
			c.fail("close snapshot copy: %v", err)
		}
		if b.cfg.trace {
			// The copy is checkpointed now: opening it again replays nothing.
			t0 := time.Now()
			db, err := pdtstore.Open(dir, o)
			st.openNoTailMs = append(st.openNoTailMs, since(t0))
			if err != nil {
				c.fail("reopen checkpointed copy: %v", err)
			} else if err := db.Close(); err != nil {
				c.fail("close checkpointed copy: %v", err)
			}
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// footprint records what the checkpoint left on disk: bytes in the store
// directory, bytes in files the checkpoint created, the mode each shard chose
// and the shape of the segment chains.
func (st *snapshotStats) footprint(db *pdtstore.DB, dir string, before map[string]int64) {
	for name, size := range fileSizes(dir) {
		st.diskBytes += size
		if _, old := before[name]; !old || name == "MANIFEST" {
			st.ckptBytesWritten += size
		}
	}
	var live, total int
	for _, sh := range db.Stats().Shard {
		st.ckptModes[sh.LastDecision.Mode]++
		if sh.Generations > st.generationsMax {
			st.generationsMax = sh.Generations
		}
		for _, seg := range sh.Segments {
			live += seg.LiveBlocks
			total += seg.TotalBlocks
		}
	}
	if total > 0 {
		st.deadBlockFrac = 1 - float64(live)/float64(total)
	}
}
