package pdtstore

// Incremental, cost-based checkpoints. A checkpoint does not have to rewrite
// the whole stable image: the PDT's positional entries name the exact dirty
// blocks (table.ComputeDirty), so generation N+1 can be a small delta segment
// that stores only the changed blocks and a block map referencing the rest
// from earlier generations. The manifest then pins a per-shard segment
// *chain*; fully superseded members drop out of the chain at the next
// checkpoint and are unlinked after the manifest swap.
//
// There is one build (buildShardImage): compute the dirty set, start a
// builder that inherits every block below the set's shift block, re-encode
// the dirty cells among those, stream the rest. The three modes Stats reports
// are that build over three dirty sets:
//
//	shared       the empty set — re-reference the current chain, bump the
//	             freeze LSN, write no segment at all
//	incremental  dirty cells < half the image and the chain stays within
//	             maxGenerations segments: the set as computed
//	full         everything else — the set widened to shift block 0, so
//	             nothing is inherited and the result is one flat segment,
//	             collapsing the chain (bounds scan fan-out and read
//	             amplification)
//
// CheckpointOptions.Auto adds a background scheduler that weighs the modeled
// cold-open replay cost of each shard's WAL tail against the modeled cost of
// checkpointing it now, and checkpoints the shard when replay gets more
// expensive — continuous checkpointing keeps reopen latency bounded no matter
// how long the store runs between restarts.

import (
	"fmt"
	"path/filepath"
	"time"

	"pdtstore/internal/colstore"
	"pdtstore/internal/index"
	"pdtstore/internal/pdt"
	"pdtstore/internal/storage"
	"pdtstore/internal/table"
	"pdtstore/internal/vfs"
)

// Checkpoint policy and cost model. Constants, not options: nothing ever set
// them, and the scheduler is meant to fit the weights online from measured
// µs/record and µs/block rather than be told.
const (
	// maxGenerations bounds a segment chain's length; reaching it forces a
	// whole rewrite that collapses the chain.
	maxGenerations = 8
	// checkpointInterval is the scheduler's decision cadence.
	checkpointInterval = 25 * time.Millisecond
	// maxWALRecords force-checkpoints a shard whose tail grew this long
	// regardless of the cost model.
	maxWALRecords = 1024
	// Cost-model weights, in microseconds: replaying one WAL record at open,
	// writing one (column, block) cell, and one manifest swap + fsync.
	replayCostUs     = 300.0
	blockWriteCostUs = 40.0
	swapCostUs       = 2000.0
)

// CheckpointOptions selects the background checkpoint scheduler. The zero
// value means no scheduler: checkpoints run only when DB.Checkpoint is called.
type CheckpointOptions struct {
	// Auto runs a background scheduler that checkpoints a shard when the
	// cost model says its WAL tail's replay cost exceeds the checkpoint's
	// write cost, or the tail reaches 1024 commit-clock entries.
	Auto bool
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

// decision is the one place the cost model is evaluated: replaying tail
// records at the next open against writing write of total (column, block)
// cells plus the manifest swap.
func decision(tail uint64, write, total int, mode string) CheckpointDecision {
	return CheckpointDecision{
		TailRecords: tail,
		DirtyBlocks: write,
		TotalBlocks: total,
		ReplayUs:    float64(tail) * replayCostUs,
		WriteUs:     float64(write)*blockWriteCostUs + swapCostUs,
		Mode:        mode,
	}
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
	for i := range db.mgrs {
		if only != nil && !only[i] {
			// Untouched shard: carry the previous chain and freeze bar.
			freeze[i] = db.man.Shards[i].LSN
			chains[i] = db.man.Shards[i].Chain()
			continue
		}
		prevFreeze := db.man.Shards[i].LSN
		err := db.mgrs[i].CheckpointInto(func(lsn uint64, store *colstore.Store, deltas ...*pdt.PDT) (*colstore.Store, error) {
			freeze[i] = lsn
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
		// manifest below, and the manager closes it once no reader pins it.
		// Chain members it shares with the new image stay open — segment
		// descriptors are refcounted.
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
	// Unlink the superseded segments' directory entries. Pinned readers keep
	// their open descriptor (POSIX keeps the data alive until Close releases
	// it); recovery never needs a non-manifest segment.
	keep := manifestSegments(man)
	for old := range manifestSegments(prev) {
		if !keep[old] {
			vfs.FS.Remove(filepath.Join(db.dir, old))
		}
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

// buildShardImage materializes shard i's next stable image from the dirty set
// the frozen deltas leave on store, records the decision in lastCost, and
// returns the new store (whose segment chain the manifest entry will name).
func (db *DB) buildShardImage(i int, name string, tail uint64, store *colstore.Store, deltas []*pdt.PDT) (*colstore.Store, error) {
	ds, err := table.ComputeDirty(store, deltas...)
	if err != nil {
		return nil, err
	}
	if ds.Empty {
		// Nothing changed since the last checkpoint: re-reference the
		// current chain under the new freeze LSN; no segment is written.
		db.lastCost[i] = decision(tail, 0, ds.TotalCells(), "shared")
		return store.CloneShared(), nil
	}
	mode := "incremental"
	if len(store.Segments())+1 > db.maxGenerations || 2*ds.WriteCells() >= ds.TotalCells() {
		// Inheriting would overrun the chain bound, or spare less than half
		// the image: inherit nothing and collapse the chain instead.
		ds.Widen()
		mode = "full"
	}
	b, err := colstore.NewCheckpointBuilder(store, ds.ShiftBlk, db.opts.BlockRows, db.opts.Compressed, filepath.Join(db.dir, name))
	if err != nil {
		return nil, err
	}
	if err := table.MaterializeDelta(b, store, ds, deltas...); err != nil {
		b.Abort()
		return nil, err
	}
	ns, err := b.Finish() // footer (+ block map) + fsync: image durable past here
	if err != nil {
		return nil, err
	}
	if err := db.reindex(ns, store, ds); err != nil {
		return nil, err
	}
	db.lastCost[i] = decision(tail, ds.WriteCells(), ds.TotalCells(), mode)
	return ns, nil
}

// reindex attaches the next image's secondary-index set, if Options asked for
// one: a Rebuild that reuses every summary of the previous image's set whose
// block the checkpoint's dirty set left untouched. Blocks at or past the
// set's shift block are always rebuilt — the checkpoint rewrote them — so
// after a whole rewrite that is every block. The "shared" (no-write) mode
// needs no call: CloneShared carries the aux sidecar, and with it the index,
// verbatim.
func (db *DB) reindex(ns, prev *colstore.Store, ds *table.DirtySet) error {
	old, ok := prev.Aux().(*index.Set)
	if !ok {
		return nil // no Options.IndexColumns: Open attached no set to hand on
	}
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
	total := db.mgrs[i].Store().NumBlocks() * db.schema.NumCols()
	if tail == 0 {
		return CheckpointDecision{TotalBlocks: total, Mode: "skip"}
	}
	ins, del, mod := db.mgrs[i].DeltaCounts()
	est := mod
	if ins+del > 0 {
		est += total / 2
	}
	d := decision(tail, max(min(est, total), 1), total, "skip")
	if int(tail) >= maxWALRecords || d.ReplayUs > d.WriteUs {
		d.Mode = "checkpoint"
	}
	return d
}

// schedulerLoop is the background checkpoint scheduler (Checkpoint.Auto).
func (db *DB) schedulerLoop() {
	defer close(db.schedDone)
	t := time.NewTicker(checkpointInterval)
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
