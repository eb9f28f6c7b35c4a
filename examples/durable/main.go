// Durable: the full public API in one sitting — Open a store, commit through
// the unified Tx interface, watch the cost-based checkpoint scheduler keep
// recovery cheap, and inspect generations through Stats.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"pdtstore"
	"pdtstore/internal/types"
)

func main() {
	dir, err := os.MkdirTemp("", "pdt-durable-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	schema := types.MustSchema([]types.Column{
		{Name: "sku", Kind: types.Int64},
		{Name: "name", Kind: types.String},
		{Name: "qty", Kind: types.Int64},
	}, []int{0})

	// Auto-checkpointing: every 25 ms a background scheduler weighs WAL
	// replay cost against block rewrite cost and checkpoints when replay
	// would be the more expensive side. Small deltas become incremental
	// generations.
	db, err := pdtstore.Open(dir, pdtstore.Options{
		Schema:     schema,
		BlockRows:  64,
		Checkpoint: pdtstore.CheckpointOptions{Auto: true},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Bulk load through a transaction.
	tx := db.Begin()
	for i := 0; i < 640; i++ {
		if err := tx.Insert(types.Row{
			types.Int(int64(i)),
			types.Str(fmt.Sprintf("part-%04d", i)),
			types.Int(100),
		}); err != nil {
			log.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		log.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		log.Fatal(err)
	}

	// A trickle of point updates: each commit dirties a handful of blocks,
	// so subsequent checkpoints write only those blocks into a new
	// generation and reference the rest from the base segment.
	for round := 0; round < 20; round++ {
		tx := db.Begin()
		key := types.Row{types.Int(int64(round * 31 % 640))}
		if _, err := tx.UpdateByKey(key, 2, types.Int(int64(round))); err != nil {
			log.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			log.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond) // a few scheduler ticks over the trickle
	}

	// Point read back through the same interface.
	tx = db.Begin()
	if _, row, found, err := tx.FindByKey(types.Row{types.Int(589)}); err != nil || !found {
		log.Fatalf("find: found=%v err=%v", found, err)
	} else {
		fmt.Printf("sku 589 -> %v\n", row)
	}
	if err := tx.Abort(); err != nil {
		log.Fatal(err)
	}

	// Stats is the one window into durability state: WAL tail, checkpoint
	// generation chain, and what the scheduler last decided per shard.
	st := db.Stats()
	fmt.Printf("generation %d, %d shard(s)\n", st.Generation, st.Shards)
	for i, sh := range st.Shard {
		fmt.Printf("  shard %d: lsn=%d frozen=%d wal-tail=%d records, %d generation(s), last decision %q\n",
			i, sh.LSN, sh.FreezeLSN, sh.WALRecords, sh.Generations, sh.LastDecision.Mode)
		for _, seg := range sh.Segments {
			fmt.Printf("    segment %s: %d/%d blocks live\n", seg.Name, seg.LiveBlocks, seg.TotalBlocks)
		}
	}
	if err := db.Close(); err != nil {
		log.Fatal(err)
	}

	// Reopen: recovery resolves blocks across the generation chain and
	// replays only the short WAL tail past the last freeze.
	start := time.Now()
	db2, err := pdtstore.Open(dir, pdtstore.Options{Schema: schema, BlockRows: 64})
	if err != nil {
		log.Fatal(err)
	}
	defer db2.Close()
	fmt.Printf("cold reopen in %v at lsn %d\n", time.Since(start), db2.Stats().Shard[0].LSN)
}
