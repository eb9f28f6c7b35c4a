package pdtstore

// Incremental, cost-based checkpoints. A checkpoint no longer has to rewrite
// the whole stable image: the PDT's positional entries name the exact dirty
// blocks (table.ComputeDirty), so generation N+1 can be a small delta segment
// that stores only the changed blocks and a block map referencing the rest
// from earlier generations. The manifest then pins a per-shard segment
// *chain*; fully superseded members drop out of the chain at the next
// checkpoint and are unlinked after the manifest swap.
//
// The checkpoint itself picks the cheapest safe mode per shard:
//
//	shared       empty delta — re-reference the current chain, bump the
//	             freeze LSN, write no segment at all
//	incremental  dirty cells < half the image and the chain stays within
//	             Checkpoint.MaxGenerations
//	full         everything else — rewrites one flat segment, collapsing
//	             the chain (bounds scan fan-out and read amplification)
//
// CheckpointOptions.Auto adds a background scheduler that weighs the modeled
// cold-open replay cost of each shard's WAL tail against the modeled cost of
// checkpointing it now, and checkpoints the shard when replay gets more
// expensive — continuous checkpointing keeps reopen latency bounded no matter
// how long the store runs between restarts.

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"pdtstore/internal/colstore"
	"pdtstore/internal/index"
	"pdtstore/internal/pdt"
	"pdtstore/internal/storage"
	"pdtstore/internal/table"
)

// Default checkpoint policy values, substituted for zero fields by Open.
const (
	// DefaultMaxGenerations bounds a segment chain's length; reaching it
	// forces a full rewrite that collapses the chain.
	DefaultMaxGenerations = 8
	// DefaultCheckpointInterval is the scheduler's decision cadence.
	DefaultCheckpointInterval = 25 * time.Millisecond
	// DefaultMaxWALRecords force-checkpoints a shard whose tail grew this
	// long regardless of the cost model.
	DefaultMaxWALRecords = 1024
)

// Cost-model weights, in microseconds: replaying one WAL record at open,
// writing one (column, block) cell, and one manifest swap + fsync. Constants,
// not options: nothing ever set them, and the scheduler is meant to fit them
// online from measured µs/record and µs/block rather than be told.
const (
	replayCostUs     = 300.0
	blockWriteCostUs = 40.0
	swapCostUs       = 2000.0
)

// CheckpointOptions tunes the incremental checkpoint machinery and its
// background scheduler. The zero value means: incremental checkpoints
// enabled, chains up to DefaultMaxGenerations, no background scheduler.
type CheckpointOptions struct {
	// FullOnly disables incremental checkpoints: every checkpoint rewrites
	// the full image into a single flat segment (the pre-chain behavior).
	FullOnly bool
	// MaxGenerations caps the segment chain length per shard; a checkpoint
	// that would exceed it rewrites in full instead (0 = default). Must be
	// at least 1.
	MaxGenerations int
	// Auto runs a background scheduler that checkpoints a shard when the
	// cost model says its WAL tail's replay cost exceeds the checkpoint's
	// write cost, or the tail exceeds MaxWALRecords.
	Auto bool
	// Interval is the scheduler's decision cadence (0 = default).
	Interval time.Duration
	// MaxWALRecords force-checkpoints a shard whose tail reached this many
	// commit-clock entries (0 = default).
	MaxWALRecords int
}

// normalize substitutes defaults for zero fields and rejects nonsense.
func (o CheckpointOptions) normalize() (CheckpointOptions, error) {
	if o.MaxGenerations == 0 {
		o.MaxGenerations = DefaultMaxGenerations
	}
	if o.Interval == 0 {
		o.Interval = DefaultCheckpointInterval
	}
	if o.MaxWALRecords == 0 {
		o.MaxWALRecords = DefaultMaxWALRecords
	}
	if o.MaxGenerations < 1 {
		return o, fmt.Errorf("pdtstore: Checkpoint.MaxGenerations < 1 (%d)", o.MaxGenerations)
	}
	if o.Interval < 0 {
		return o, fmt.Errorf("pdtstore: negative Checkpoint.Interval (%v)", o.Interval)
	}
	if o.MaxWALRecords < 1 {
		return o, fmt.Errorf("pdtstore: Checkpoint.MaxWALRecords < 1 (%d)", o.MaxWALRecords)
	}
	return o, nil
}

// CheckpointDecision records the cost-model inputs and outcome of one
// checkpoint decision for a shard, surfaced through Stats.
type CheckpointDecision struct {
	// TailRecords is the shard's commit-clock distance past its freeze bar.
	TailRecords uint64
	// DirtyBlocks is the (column, block) cell count the decision would write
	// — measured exactly inside a checkpoint, estimated from the PDT layer
	// counts in the scheduler.
	DirtyBlocks int
	// TotalBlocks is what a full rewrite writes.
	TotalBlocks int
	// ReplayUs and WriteUs are the modeled cold-open replay cost of the tail
	// and the modeled checkpoint cost.
	ReplayUs float64
	WriteUs  float64
	// Mode is what happened: "skip", "shared", "incremental" or "full"
	// ("" before any decision ran).
	Mode string
}

// Checkpoint makes the online checkpoint durable: each shard's committed
// state lands in generation N+1 — a full flat segment, a delta segment
// holding only the dirty blocks plus a block map referencing the rest from
// the prior chain, or (for an empty delta) no segment at all — the MANIFEST
// swaps to the new chains (the commit point), and each WAL stream drops every
// record its shard's image now contains. Commits keep flowing throughout —
// they land in a side delta layer and stay in the log until the next
// checkpoint. The shards' images stream one at a time (each shard's
// checkpoint is online independently) and commit together with the single
// manifest swap, before each stream is truncated below its own bar.
func (db *DB) Checkpoint() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.checkpointLocked(nil)
}

// checkpointLocked runs the checkpoint sequence for the selected shards (nil
// = all) under db.mu; unselected shards keep their manifest entry unchanged.
func (db *DB) checkpointLocked(only []bool) error {
	if db.closed {
		return fmt.Errorf("pdtstore: checkpoint on closed DB")
	}
	db.nextGen++
	gen := db.nextGen
	n := len(db.mgrs)
	freeze := make([]uint64, n)
	chains := make([][]string, n)
	first := true
	for i := range db.mgrs {
		if only != nil && !only[i] {
			// Untouched shard: carry the previous chain and freeze bar.
			freeze[i] = db.man.Shards[i].LSN
			chains[i] = db.man.Shards[i].Chain()
			continue
		}
		if !first {
			if err := db.injectFault(faultBetweenShardCheckpoints); err != nil {
				return err
			}
		}
		first = false
		i := i
		prevFreeze := db.man.Shards[i].LSN
		var retired *colstore.Store
		err := db.mgrs[i].CheckpointInto(func(lsn uint64, store *colstore.Store, deltas ...*pdt.PDT) (*colstore.Store, error) {
			freeze[i] = lsn
			retired = store
			ns, err := db.buildShardImage(i, shardSegmentName(gen, i), lsn-prevFreeze, store, deltas)
			if err != nil {
				return nil, err
			}
			chains[i] = storeChainNames(ns)
			return ns, nil
		})
		if err != nil {
			return err
		}
		// The manager has installed the new image: the base store is
		// superseded in memory from here on, whatever happens to the
		// manifest below. Chain members it shares with the new image stay
		// open — segment descriptors are refcounted.
		if retired != nil {
			db.retired = append(db.retired, retired)
		}
	}
	if err := db.injectFault(faultPreManifestSwap); err != nil {
		return err
	}
	mixed := false
	for _, c := range chains {
		if len(c) > 1 {
			mixed = true
		}
	}
	if mixed {
		if err := db.injectFault(faultPreSwapMixedGen); err != nil {
			return err
		}
	}
	prev := db.man
	man := storage.Manifest{Generation: gen, Shards: make([]storage.ShardEntry, n), Splits: prev.Splits}
	for i := range man.Shards {
		man.Shards[i] = storage.ShardEntry{Segment: chains[i][len(chains[i])-1], Segments: chains[i], LSN: freeze[i]}
	}
	if err := storage.WriteManifest(db.dir, man); err != nil {
		return err
	}
	db.man = man
	if err := db.injectFault(faultPostSwapPreGC); err != nil {
		return err
	}
	// Unlink the superseded segments' directory entries. Pinned readers keep
	// their open descriptor (POSIX keeps the data alive until Close releases
	// it); recovery never needs a non-manifest segment.
	keep := manifestSegments(man)
	for old := range manifestSegments(prev) {
		if !keep[old] {
			os.Remove(filepath.Join(db.dir, old))
		}
	}
	if err := db.injectFault(faultPostSwapPreTruncate); err != nil {
		return err
	}
	// Past the swap the checkpoint is already durable; truncation is space
	// reclamation (recovery filters by the manifest LSNs either way).
	for i, l := range db.logs {
		if err := l.TruncateBelow(freeze[i]); err != nil {
			return err
		}
	}
	return nil
}

// buildShardImage materializes shard i's next stable image under the mode the
// cost rules pick, records the decision in lastCost, and returns the new
// store (whose segment chain the manifest entry will name).
func (db *DB) buildShardImage(i int, name string, tail uint64, store *colstore.Store, deltas []*pdt.PDT) (*colstore.Store, error) {
	path := filepath.Join(db.dir, name)
	full := db.ckpt.FullOnly || store.Segments() == nil
	var ds *table.DirtySet
	if !full {
		var err error
		ds, err = db.tbls[i].ComputeDirty(store, deltas...)
		if err != nil {
			return nil, err
		}
		switch {
		case ds.Empty:
			// Nothing changed since the last checkpoint: re-reference the
			// current chain under the new freeze LSN; no segment is written.
			db.lastCost[i] = CheckpointDecision{
				TailRecords: tail, TotalBlocks: ds.TotalCells(), Mode: "shared",
			}
			return store.CloneShared(), nil
		case len(store.Segments())+1 > db.ckpt.MaxGenerations,
			2*ds.WriteCells() >= ds.TotalCells():
			full = true
		}
	}
	if full {
		b, err := colstore.NewFileBuilder(db.schema, db.dev, db.opts.BlockRows, db.opts.Compressed, path)
		if err != nil {
			return nil, err
		}
		if err := db.tbls[i].MaterializeStream(b, store, deltas...); err != nil {
			b.Abort()
			return nil, err
		}
		if err := db.injectFault(faultMidSegmentWrite); err != nil {
			return nil, err // crash sim: partial file stays, no footer
		}
		ns, err := b.Finish() // footer + fsync: image durable past here
		if err != nil {
			return nil, err
		}
		if err := db.reindex(ns, nil, nil); err != nil {
			return nil, err
		}
		d := CheckpointDecision{TailRecords: tail, Mode: "full"}
		if ds != nil {
			d.DirtyBlocks = ds.WriteCells()
			d.TotalBlocks = ds.TotalCells()
		} else {
			d.TotalBlocks = ns.NumBlocks() * db.schema.NumCols()
			d.DirtyBlocks = d.TotalBlocks
		}
		d.ReplayUs = float64(tail) * replayCostUs
		d.WriteUs = float64(d.TotalBlocks)*blockWriteCostUs + swapCostUs
		db.lastCost[i] = d
		return ns, nil
	}
	b, err := colstore.NewDeltaBuilder(store, path, ds.NewRows, ds.ShiftBlk)
	if err != nil {
		return nil, err
	}
	if err := db.tbls[i].MaterializeDelta(b, store, ds, deltas...); err != nil {
		b.Abort()
		return nil, err
	}
	if err := db.injectFault(faultMidSegmentWrite); err != nil {
		return nil, err // crash sim: partial delta file stays, no block map
	}
	if err := db.injectFault(faultMidBlockMapWrite); err != nil {
		return nil, err // crash sim: dirty blocks on disk, footer/map missing
	}
	ns, err := b.Finish()
	if err != nil {
		return nil, err
	}
	if err := db.reindex(ns, store, ds); err != nil {
		return nil, err
	}
	db.lastCost[i] = CheckpointDecision{
		TailRecords: tail,
		DirtyBlocks: ds.WriteCells(),
		TotalBlocks: ds.TotalCells(),
		ReplayUs:    float64(tail) * replayCostUs,
		WriteUs:     float64(ds.WriteCells())*blockWriteCostUs + swapCostUs,
		Mode:        "incremental",
	}
	return ns, nil
}

// reindex attaches the next image's secondary-index set, if Options asked for
// one: a fresh Build after a full rewrite (prev == nil), or an incremental
// Rebuild that reuses every summary of the previous image's set whose block
// the checkpoint's dirty map left untouched. Blocks at or past the dirty
// set's first position shift are always rebuilt — the delta image rewrote
// them. The "shared" (no-write) mode needs no call: CloneShared carries the
// aux sidecar, and with it the index, verbatim.
func (db *DB) reindex(ns *colstore.Store, prev *colstore.Store, ds *table.DirtySet) error {
	if len(db.opts.IndexColumns) == 0 {
		return nil
	}
	if prev != nil && ds != nil {
		if old, ok := prev.Aux().(*index.Set); ok {
			idx, err := old.Rebuild(ns, ns.NumBlocks(), func(col, blk int) bool {
				return blk >= ds.ShiftBlk ||
					(col < len(ds.Dirty) && blk < len(ds.Dirty[col]) && ds.Dirty[col][blk])
			})
			if err != nil {
				return err
			}
			ns.SetAux(idx)
			return nil
		}
	}
	idx, err := index.Build(ns, db.opts.IndexColumns)
	if err != nil {
		return err
	}
	ns.SetAux(idx)
	return nil
}

// storeChainNames maps a store's segment chain to manifest file names.
func storeChainNames(s *colstore.Store) []string {
	segs := s.Segments()
	names := make([]string, len(segs))
	for i, seg := range segs {
		names[i] = filepath.Base(seg.Path())
	}
	return names
}

// decideShard runs the scheduler's cost model for shard i under db.mu: is
// replaying the shard's WAL tail at the next open modeled to cost more than
// checkpointing it now? The dirty estimate comes from the live PDT layer
// counts — each in-place modify dirties about one cell, and any insert or
// delete shifts the image's tail, costed as half the image.
func (db *DB) decideShard(i int) CheckpointDecision {
	tail := db.mgrs[i].LSN() - db.man.Shards[i].LSN
	total := db.tbls[i].Store().NumBlocks() * db.schema.NumCols()
	d := CheckpointDecision{TailRecords: tail, TotalBlocks: total, Mode: "skip"}
	if tail == 0 {
		return d
	}
	ins, del, mod := db.mgrs[i].DeltaCounts()
	est := mod
	if ins+del > 0 {
		est += total / 2
	}
	if est > total {
		est = total
	}
	if est < 1 {
		est = 1
	}
	d.DirtyBlocks = est
	d.ReplayUs = float64(tail) * replayCostUs
	d.WriteUs = float64(est)*blockWriteCostUs + swapCostUs
	if int(tail) >= db.ckpt.MaxWALRecords || d.ReplayUs > d.WriteUs {
		d.Mode = "checkpoint"
	}
	return d
}

// schedulerLoop is the background checkpoint scheduler (Checkpoint.Auto).
func (db *DB) schedulerLoop() {
	defer close(db.schedDone)
	t := time.NewTicker(db.ckpt.Interval)
	defer t.Stop()
	for {
		select {
		case <-db.schedStop:
			return
		case <-t.C:
			db.autoCheckpoint()
		}
	}
}

// autoCheckpoint evaluates every shard and checkpoints the ones whose tail
// replay cost exceeds their checkpoint cost. The first failure is sticky and
// surfaces from Close (and Stats); the loop keeps running so later ticks can
// retry — a failed attempt leaves the previous manifest fully intact.
func (db *DB) autoCheckpoint() {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return
	}
	want := make([]bool, len(db.mgrs))
	any := false
	for i := range db.mgrs {
		d := db.decideShard(i)
		if d.Mode != "checkpoint" {
			db.lastCost[i] = d
			continue
		}
		want[i] = true
		any = true
	}
	if !any {
		return
	}
	if err := db.checkpointLocked(want); err != nil && db.schedErr == nil {
		db.schedErr = err
	}
}

// stopScheduler shuts the background scheduler down, at most once, without
// holding db.mu (the scheduler's ticks take db.mu themselves).
func (db *DB) stopScheduler() {
	db.schedOnce.Do(func() {
		if db.schedStop != nil {
			close(db.schedStop)
			<-db.schedDone
		}
	})
}
