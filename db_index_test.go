package pdtstore

// Zone-map and secondary-index access paths over the durable store: the
// skip counters DB.Stats surfaces, the shared-checkpoint accounting
// invariant, index maintenance across all three checkpoint modes, and a
// randomized differential asserting that pruned scans (zone maps + indexes,
// serial and forced-parallel) stay byte-identical to unpruned full scans
// across shard counts and update histories with interleaved checkpoints.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"pdtstore/internal/engine"
	"pdtstore/internal/types"
	"pdtstore/internal/vector"
)

// openIndexDB opens dir with secondary indexes on the string and numeric
// payload columns (col 0, the sort key, is served by zone maps alone).
func openIndexDB(t *testing.T, dir string, shards int, cuts []types.Row) *DB {
	t.Helper()
	opts := Options{
		Schema: dbSchema, BlockRows: 64, Compressed: true,
		IndexColumns: []int{1, 2},
	}
	if shards > 1 {
		opts.Shards = shards
		opts.ShardKeys = cuts
	}
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// dumpBatch renders a collected batch row by row — the byte-identical
// comparison currency of the differential tests.
func dumpBatch(b *vector.Batch) string {
	var sb strings.Builder
	for i := 0; i < b.Len(); i++ {
		r := b.Row(i)
		if i < len(b.Rids) {
			fmt.Fprintf(&sb, "@%d ", b.Rids[i])
		}
		for j, v := range r {
			if j > 0 {
				sb.WriteByte('|')
			}
			fmt.Fprintf(&sb, "%v", v)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestSharedCheckpointStatsAccounting: a "shared" (no-write) checkpoint
// re-references the previous chain, so Stats must report exactly the same
// per-segment live/total block counts before and after it, and the live
// counts must still sum to the image's logical cell count.
func TestSharedCheckpointStatsAccounting(t *testing.T) {
	dir := t.TempDir()
	m := model{}
	db := openTestDB(t, dir)
	defer db.Close()
	commitInserts(t, db, m, 0, 640)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	commitUpdates(t, db, m, 3, 70)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	before := db.Stats().Shard[0]
	if before.LastDecision.Mode != "incremental" || len(before.Segments) != 2 {
		t.Fatalf("setup: want a 2-member incremental chain, got %+v", before)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after := db.Stats().Shard[0]
	if after.LastDecision.Mode != "shared" {
		t.Fatalf("no-write checkpoint mode = %q, want shared", after.LastDecision.Mode)
	}
	if len(after.Segments) != len(before.Segments) {
		t.Fatalf("shared checkpoint changed chain length: %d -> %d", len(before.Segments), len(after.Segments))
	}
	live := 0
	for j, seg := range after.Segments {
		if seg != before.Segments[j] {
			t.Fatalf("segment %d accounting drifted across shared checkpoint:\nbefore %+v\nafter  %+v", j, before.Segments[j], seg)
		}
		if seg.LiveBlocks > seg.TotalBlocks {
			t.Fatalf("segment %d reports %d live of %d total blocks", j, seg.LiveBlocks, seg.TotalBlocks)
		}
		live += seg.LiveBlocks
	}
	// Every logical (column, block) cell resolves to exactly one chain member.
	cells := dbSchema.NumCols() * (640 / 64)
	if live != cells {
		t.Fatalf("live blocks sum to %d across the chain, want %d", live, cells)
	}
	checkState(t, db, m)
}

// TestOpenRejectsFloatIndexColumn: Float64 columns cannot be indexed and the
// request must fail at Open, not at first checkpoint.
func TestOpenRejectsFloatIndexColumn(t *testing.T) {
	schema := types.MustSchema([]types.Column{
		{Name: "k", Kind: types.Int64},
		{Name: "x", Kind: types.Float64},
	}, []int{0})
	_, err := Open(t.TempDir(), Options{Schema: schema, IndexColumns: []int{1}})
	if err == nil || !strings.Contains(err.Error(), "Float64") {
		t.Fatalf("Open with a Float64 index column: err = %v, want rejection", err)
	}
	if _, err := Open(t.TempDir(), Options{Schema: schema, IndexColumns: []int{7}}); err == nil {
		t.Fatal("Open with an out-of-range index column succeeded")
	}
}

// TestSkipCountersEndToEnd: a clustered range predicate skips blocks via zone
// maps, an equality probe on the scattered string column skips via the
// secondary index (its zones are too wide to help), and both show up in
// DB.Stats — while every pruned scan returns exactly what the unpruned scan
// does.
func TestSkipCountersEndToEnd(t *testing.T) {
	dir := t.TempDir()
	m := model{}
	db := openIndexDB(t, dir, 1, nil)
	defer db.Close()
	commitInserts(t, db, m, 0, 640)
	if err := db.Checkpoint(); err != nil { // stable image: 10 blocks of 64
		t.Fatal(err)
	}

	scan := func(mk func() *engine.Plan) (pruned, full string) {
		t.Helper()
		tx := db.Begin()
		defer tx.Abort()
		pb, err := mk().Collect()
		if err != nil {
			t.Fatal(err)
		}
		fb, err := mk().NoPrune().Collect()
		if err != nil {
			t.Fatal(err)
		}
		return dumpBatch(pb), dumpBatch(fb)
	}

	z0, _ := db.Stats().ZoneSkippedBlocks, db.Stats().IndexSkippedBlocks
	tx := db.Begin()
	p, err := engine.Scan(tx, 0, 1, 2).FilterInt64Range(0, 200, 210).Collect()
	if err != nil {
		t.Fatal(err)
	}
	f, err := engine.Scan(tx, 0, 1, 2).FilterInt64Range(0, 200, 210).NoPrune().Collect()
	tx.Abort()
	if err != nil {
		t.Fatal(err)
	}
	if dumpBatch(p) != dumpBatch(f) || p.Len() != 11 {
		t.Fatalf("zone-pruned range scan differs from full scan (%d rows)", p.Len())
	}
	st := db.Stats()
	if st.ZoneSkippedBlocks <= z0 {
		t.Fatalf("clustered range scan skipped no blocks via zone maps: %+v", st)
	}

	// "v300" defeats the string zones (block 0 spans [v0, v9], which straddles
	// it) but not the exact per-block value sets of the secondary index.
	i0 := db.Stats().IndexSkippedBlocks
	pr, fu := scan(func() *engine.Plan {
		tx := db.Begin()
		t.Cleanup(func() { tx.Abort() })
		return engine.Scan(tx, 0, 1, 2).FilterStrEq(1, "v300")
	})
	if pr != fu || !strings.Contains(pr, "v300") {
		t.Fatalf("index-pruned equality scan differs from full scan:\npruned:\n%s\nfull:\n%s", pr, fu)
	}
	if db.Stats().IndexSkippedBlocks <= i0 {
		t.Fatalf("string equality scan skipped no blocks via the index: %+v", db.Stats())
	}

	// NoPrune is the per-plan kill switch: such a scan may skip nothing.
	zb, ib := db.Stats().ZoneSkippedBlocks, db.Stats().IndexSkippedBlocks
	tx = db.Begin()
	defer tx.Abort()
	un, err := engine.Scan(tx, 0, 1, 2).FilterStrEq(1, "v300").NoPrune().Collect()
	if err != nil {
		t.Fatal(err)
	}
	if dumpBatch(un) != pr {
		t.Fatal("NoPrune scan differs from the pruned one")
	}
	if st := db.Stats(); st.ZoneSkippedBlocks != zb || st.IndexSkippedBlocks != ib {
		t.Fatalf("NoPrune scan still skipped blocks: %+v", st)
	}
}

// TestIndexSurvivesCheckpointModes: the index set must stay attached — and
// correct — through all three checkpoint modes (shared, incremental, full)
// and a cold reopen, which rebuilds it from the image.
func TestIndexSurvivesCheckpointModes(t *testing.T) {
	dir := t.TempDir()
	m := model{}
	db := openIndexDB(t, dir, 1, nil)
	commitInserts(t, db, m, 0, 640)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	probe := func(db *DB, wantMode string) {
		t.Helper()
		if wantMode != "" {
			if got := db.Stats().Shard[0].LastDecision.Mode; got != wantMode {
				t.Fatalf("checkpoint mode = %q, want %q", got, wantMode)
			}
		}
		i0 := db.Stats().IndexSkippedBlocks
		tx := db.Begin()
		defer tx.Abort()
		p, err := engine.Scan(tx, 0, 1, 2).FilterStrEq(1, "v300").Collect()
		if err != nil {
			t.Fatal(err)
		}
		f, err := engine.Scan(tx, 0, 1, 2).FilterStrEq(1, "v300").NoPrune().Collect()
		if err != nil {
			t.Fatal(err)
		}
		if dumpBatch(p) != dumpBatch(f) {
			t.Fatalf("pruned scan differs after %q checkpoint", wantMode)
		}
		if db.Stats().IndexSkippedBlocks <= i0 {
			t.Fatalf("index inactive after %q checkpoint", wantMode)
		}
	}
	probe(db, "full")

	// Shared: nothing to absorb, CloneShared must carry the set verbatim.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	probe(db, "shared")

	// Incremental: modify-only delta, Rebuild reuses clean summaries and
	// rebuilds the dirty ones (col 2 blocks 0 and 1).
	commitUpdates(t, db, m, 3, 70)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	probe(db, "incremental")
	// The rebuilt summaries must answer for the new values: key 3's n column
	// is now -3, and an equality probe for it must agree with the full scan.
	tx := db.Begin()
	p, err := engine.Scan(tx, 0, 2).FilterInt64Eq(2, -3).Collect()
	if err != nil {
		t.Fatal(err)
	}
	f, err := engine.Scan(tx, 0, 2).FilterInt64Eq(2, -3).NoPrune().Collect()
	tx.Abort()
	if err != nil {
		t.Fatal(err)
	}
	if dumpBatch(p) != dumpBatch(f) || p.Len() != 1 {
		t.Fatalf("post-incremental index probe wrong: pruned %d rows\n%s\nfull:\n%s", p.Len(), dumpBatch(p), dumpBatch(f))
	}

	// Full: a shifting delta collapses the chain; Build runs afresh.
	commitMixed(t, db, m, 0, 10)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	probe(db, "full")
	checkState(t, db, m)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Cold reopen rebuilds the set from the image.
	db2 := openIndexDB(t, dir, 1, nil)
	defer db2.Close()
	probe(db2, "")
	checkState(t, db2, m)
}

// indexTestCuts split the [0, 1000) key domain for up to 8 shards.
var indexTestCuts = []types.Row{
	{types.Int(125)}, {types.Int(250)}, {types.Int(375)}, {types.Int(500)},
	{types.Int(625)}, {types.Int(750)}, {types.Int(875)},
}

// TestPrunedScanDifferential drives a randomized update history — inserts,
// in-place updates, deletes, checkpoints interleaved — at 1, 2, 4 and 8
// shards, and after every step requires a panel of selective scans (zone-map
// ranges, index equality and membership probes, combined predicates; serial
// and forced-parallel) to be byte-identical to the same scans with pruning
// off.
func TestPrunedScanDifferential(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 8} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(9000 + shards)))
			dir := t.TempDir()
			m := model{}
			var cuts []types.Row
			if shards > 1 {
				switch shards {
				case 2:
					cuts = []types.Row{indexTestCuts[3]}
				case 4:
					cuts = []types.Row{indexTestCuts[1], indexTestCuts[3], indexTestCuts[5]}
				case 8:
					cuts = indexTestCuts
				}
			}
			db := openIndexDB(t, dir, shards, cuts)
			defer db.Close()

			check := func(step string) {
				t.Helper()
				tx := db.Begin()
				defer tx.Abort()
				plans := map[string]func() *engine.Plan{
					"zone-range":  func() *engine.Plan { return engine.Scan(tx, 0, 1, 2).FilterInt64Range(0, 180, 260) },
					"zone-narrow": func() *engine.Plan { return engine.Scan(tx, 0, 1, 2).FilterInt64Range(0, 501, 505) },
					"idx-streq":   func() *engine.Plan { return engine.Scan(tx, 0, 1, 2).FilterStrEq(1, "v300") },
					"idx-strin":   func() *engine.Plan { return engine.Scan(tx, 0, 1).FilterStrIn(1, "v7", "v311", "v888") },
					"idx-prefix":  func() *engine.Plan { return engine.Scan(tx, 0, 1).FilterStrPrefix(1, "v31") },
					"idx-inteq":   func() *engine.Plan { return engine.Scan(tx, 0, 2).FilterInt64Eq(2, 3120) },
					"combined": func() *engine.Plan {
						return engine.Scan(tx, 0, 1, 2).FilterInt64Range(0, 100, 700).FilterStrPrefix(1, "v4")
					},
				}
				for name, mk := range plans {
					full, err := mk().NoPrune().WithRids().Collect()
					if err != nil {
						t.Fatalf("%s: %s full scan: %v", step, name, err)
					}
					want := dumpBatch(full)
					pruned, err := mk().WithRids().Collect()
					if err != nil {
						t.Fatalf("%s: %s pruned scan: %v", step, name, err)
					}
					if got := dumpBatch(pruned); got != want {
						t.Fatalf("%s: %s pruned scan differs from full scan\npruned:\n%s\nfull:\n%s", step, name, got, want)
					}
					par, err := mk().WithRids().Parallel(4).BatchSize(32).Collect()
					if err != nil {
						t.Fatalf("%s: %s parallel pruned scan: %v", step, name, err)
					}
					if got := dumpBatch(par); got != want {
						t.Fatalf("%s: %s parallel pruned scan differs from full scan\nparallel:\n%s\nfull:\n%s", step, name, got, want)
					}
				}
			}

			// Seed: a committed, checkpointed base of 640 rows over [0, 1000).
			var keys []int64
			for len(m) < 640 {
				k := int64(rng.Intn(1000))
				if _, ok := m[k]; ok {
					continue
				}
				sCommitInserts(t, db, m, k)
				keys = append(keys, k)
			}
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			check("seed")

			for step := 0; step < 8; step++ {
				switch rng.Intn(3) {
				case 0: // scattered inserts (possibly cross-shard)
					var batch []int64
					seen := map[int64]bool{}
					for i := 0; i < 20; i++ {
						k := int64(rng.Intn(1000))
						if _, ok := m[k]; !ok && !seen[k] {
							batch = append(batch, k)
							seen[k] = true
						}
					}
					if len(batch) > 0 {
						sCommitInserts(t, db, m, batch...)
					}
				case 1: // in-place updates
					var batch []int64
					for _, k := range keys {
						if _, ok := m[k]; ok && rng.Intn(10) == 0 {
							batch = append(batch, k)
						}
					}
					if len(batch) > 0 {
						commitUpdates(t, db, m, batch...)
					}
				case 2: // mixed updates and deletes over a key stripe
					lo := int64(rng.Intn(900))
					commitMixed(t, db, m, lo, lo+60)
				}
				if rng.Intn(2) == 0 {
					if err := db.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
				check(fmt.Sprintf("step %d", step))
			}
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			check("final")
			checkState(t, db, m)
		})
	}
}
