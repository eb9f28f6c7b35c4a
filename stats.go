package pdtstore

import (
	"path/filepath"
)

// Stats is a point-in-time snapshot of the store's durability state,
// replacing direct access to the internal txn/wal/storage layers.
type Stats struct {
	// Shards is the shard count (1 for an unsharded store).
	Shards int
	// Generation is the manifest generation of the last checkpoint commit.
	Generation uint64
	// Shard holds one entry per shard, in shard order.
	Shard []ShardStats
	// AutoCheckpointErr is the first failure of a background checkpoint
	// (Checkpoint.Auto), sticky until Close, which returns it too; nil while
	// every scheduled checkpoint succeeded.
	AutoCheckpointErr error
	// ZoneSkippedBlocks and IndexSkippedBlocks count stable blocks that scans
	// proved empty of matches — via zone maps and secondary indexes
	// respectively — and therefore never read. They accumulate across the
	// device's lifetime (shards share one device, so the counts are DB-wide)
	// and are the observable access-path signal: a selective Plan that probes
	// an index shows up here, a full scan does not.
	ZoneSkippedBlocks  uint64
	IndexSkippedBlocks uint64
}

// ShardStats describes one shard's commit clock, WAL stream and segment
// chain.
type ShardStats struct {
	// LSN is the shard's last committed position on the global commit clock;
	// FreezeLSN is its manifest freeze bar (records at or below it are in
	// the stable image). WALRecords is the distance between them — the
	// commit-clock length of the tail recovery would replay.
	LSN        uint64
	FreezeLSN  uint64
	WALRecords uint64
	// WALBytes and WALFiles size the shard's on-disk log stream.
	WALBytes int64
	WALFiles int
	// Generations is the shard's segment chain length; Segments lists the
	// chain oldest generation first (the last member carries the block map).
	Generations int
	Segments    []SegmentStats
	// LastDecision is the most recent checkpoint or scheduler decision for
	// this shard, with the cost-model inputs that drove it.
	LastDecision CheckpointDecision
}

// SegmentStats describes one member of a shard's segment chain.
type SegmentStats struct {
	// Name is the member's file name inside the store directory.
	Name string
	// LiveBlocks counts the (column, block) cells the chain's block map
	// still reads from this member; TotalBlocks is what the member holds.
	// Dead weight is the difference — it disappears when a later checkpoint
	// drops the member from the chain.
	LiveBlocks  int
	TotalBlocks int
}

// Stats reports the store's current durability state: per shard, the commit
// clock position, WAL tail, segment chain with live/dead block counts, and
// the last checkpoint decision's cost-model inputs; and the background
// scheduler's first failure, if any.
func (db *DB) Stats() Stats {
	db.mu.Lock()
	defer db.mu.Unlock()
	st := Stats{
		Shards:            len(db.mgrs),
		Generation:        db.man.Generation,
		Shard:             make([]ShardStats, len(db.mgrs)),
		AutoCheckpointErr: db.schedErr,
	}
	st.ZoneSkippedBlocks, st.IndexSkippedBlocks = db.dev.SkipStats()
	for i := range db.mgrs {
		store := db.mgrs[i].Store()
		ss := ShardStats{
			LSN:          db.mgrs[i].LSN(),
			FreezeLSN:    db.man.Shards[i].LSN,
			WALBytes:     db.logs[i].SizeBytes(),
			WALFiles:     db.logs[i].Files(),
			LastDecision: db.lastCost[i],
		}
		ss.WALRecords = ss.LSN - ss.FreezeLSN
		segs := store.Segments()
		refs := store.BlockRefCounts()
		ss.Generations = len(segs)
		ss.Segments = make([]SegmentStats, len(segs))
		for j, seg := range segs {
			ss.Segments[j] = SegmentStats{
				Name:        filepath.Base(seg.Path()),
				LiveBlocks:  refs[j],
				TotalBlocks: seg.TotalBlocks(),
			}
		}
		st.Shard[i] = ss
	}
	return st
}
