// Package pdtstore is a from-scratch Go reproduction of "Positional Update
// Handling in Column Stores" (Héman, Zukowski, Nes, Sidirourgos, Boncz —
// SIGMOD 2010): the Positional Delta Tree (PDT), its value-based baseline
// (VDT), the columnar storage and query substrate they run on, layered-PDT
// snapshot-isolation transactions, and the paper's full evaluation harness.
//
// Every read goes through internal/engine, the vectorized scan-pipeline
// engine: plans compose a source (plain colstore scan, positional PDT
// MergeScan stack, or value-based VDT merge), typed filter kernels over
// reusable selection vectors, and pushed-down column projection, serving the
// table layer, the transaction layer and the TPC-H workload alike.
//
// Point access is positional: FindByKey and every key-addressed write
// (Insert, DeleteByKey, UpdateByKey — one-op batches — and ApplyBatch)
// resolve their target through one probe, engine.SeekKeys. The sparse index names one block, whose sort-key columns alone
// are binary-searched to the first stable SID at or past the key
// (colstore.Store.LowerBound); the pinned layer stack is opened AT that SID,
// each PDT cursor seeking there with its running shift as every scan morsel
// does, so ghosts, re-inserts of a deleted key and layer-only inserts are
// merged in by construction and RIDs are exact; and the scanner underneath
// decodes only the lower-bound row of the projected columns (the layers merge
// in the rows that land at it), straight into a pooled batch, doubling the
// window (1, 2, 4, … rows) while a run of deletes or of same-SID inserts
// (append-only keys) hides the answer — the one part still walked linearly. Writes project the sort key only.
//
// The write path is vectorized end to end as well: batches of updates
// resolve their target positions with one shared merge-scan cursor
// (Table.ApplyBatch, Txn.ApplyBatch), commits serialize straight out of the
// Trans-PDT into a buffer-reusing WAL, PDT layers fold into each other with
// an O(n+m) leaf-chain merge (pdt.Fold; when the layer is small pdt.Apply
// takes the paper's per-entry Algorithm 7, pdt.Propagate, instead — on a
// copy-on-write fork at commit, pdt.FoldSnap, and in place on one snapshot
// when a WAL tail is replayed), and checkpoints stream the merged view into
// the block builder without materializing rows.
//
// Maintenance is online: every transaction pins an immutable (stable image,
// Read-PDT) version at Begin, and both downward folds — Write→Read
// propagation when the Write-PDT outgrows its budget, and Checkpoint's
// rebuild of the stable image — run in the background against a frozen
// layer, installing their result as a new version with a pointer swap while
// commits keep landing in a fresh delta layer (pdt.Fold, the
// non-destructive merge, makes the frozen inputs shareable). Retired
// versions are released when their last reader finishes, evicting the old
// image's blocks from the buffer pool. Neither propagation nor
// checkpointing ever waits for, or stalls, running transactions.
//
// Storage is durable: Open(dir) recovers a store from stable storage and
// DB.Checkpoint writes it back. The stable image lives in immutable segment
// files (per-column encoded blocks behind a CRC'd footer, each block and
// each 4 KB page of a longer one checksummed, pread lazily through the
// buffer pool — a cold key probe reads only the pages its row lies in —
// internal/storage), commits append to a rotated,
// fsynced file WAL (internal/wal), and a MANIFEST names the current
// segment generation plus the WAL position it contains. A checkpoint streams
// the committed view into the next generation, fsyncs, atomically swaps the
// MANIFEST and truncates the log; recovery loads the manifest's segment,
// replays only the WAL tail past the manifest's LSN (so an interrupted
// truncation cannot double-apply; a tail whose LSNs do not ascend is
// refused), truncates a torn final record, and resumes the commit clock.
// The shards' streams are read, and their tails replayed, concurrently.
// Crashing at any file operation of that sequence recovers exactly the
// committed state: every file operation goes through one seam
// (internal/vfs), under which the crash tests put a file system that fails
// any one operation and keeps only what each file's last Sync covered. A
// reopen that drops a cross-shard commit some stream lacks checkpoints the
// shards that hold its record before it returns, so the drop is permanent.
// A superseded segment's descriptor is closed as soon as its last pinned
// reader finishes, not at DB.Close.
//
// Checkpoints are incremental and cost-based: the frozen PDT's positional
// updates compute an exact dirty-block set, and a checkpoint writes only
// those blocks into a small delta segment chained onto the previous
// generation, whose footer block map resolves every logical block to the
// chain member holding its current bytes (refcounted; fully superseded
// members are unlinked after the manifest swap). An empty delta shares the
// previous image outright, and a delta worth more than half the table — or
// a chain already 8 segments long — collapses to a full rewrite: the same
// build with nothing inherited, which leaves one flat segment and no block
// map. The same cost model drives an optional background scheduler
// (CheckpointOptions.Auto) that checkpoints a shard when its estimated WAL
// replay cost outgrows the estimated checkpoint cost, bounding cold-open
// time. DB.Stats exposes the
// per-shard WAL tail, generation chain, per-segment live-block counts, the
// last scheduler decision and the shard's sticky failure (a poisoned WAL or
// wedged maintenance, after which its commits fail fast), and the
// scheduler's first failure.
//
// The public write surface is the Tx interface, returned by DB.Begin, and
// DB.Stats is the window into durability state; no accessor hands out the
// txn, wal or storage layers underneath. TestPublicAPISnapshot pins the
// exported surface against testdata/api.golden so drift is caught in
// review.
//
// Every commit runs one pipeline — validate, park, durable, install.
// Validate (txn's validateLocked) serializes the Trans-PDT against the
// commits it overlapped and folds it onto the write chain under a narrow
// critical section, where the commit also takes its LSN from the commit
// clock; the commit then parks on its shard's sequencer, where a leader
// makes the whole batch durable with one WAL append and one fsync
// (wal.Log.AppendGroup); install (installLocked) advances the clock and the
// Write-PDT and wakes every waiter. Begin and scans never wait
// behind an in-flight fsync, and a failed barrier aborts the whole batch
// fail-stop with nothing visible, live or at replay. A batch holds at most
// 128 commits.
//
// The serialized part of that commit path is O(change), not O(state):
// Begin takes a copy-on-write Write-PDT snapshot in O(1) (pdt.Snapshot;
// later updates path-copy only the spine they touch, and the commit-time
// fold forks rather than rebuilds its base via pdt.FoldSnap), committing
// over k overlapping transactions runs one cascaded sweep instead of k
// serialize passes (pdt.SerializeChain), and an insert's position probe
// reads its one-row window through the same unstaged merge stack a scan uses
// (the probe's own batch goes down to the scanner), compares keys against
// column vectors without materializing rows, and decodes only the tail of
// the stable block it enters — for every encoding, dictionary and RLE
// included — while still fetching (and charging) whole blocks from the
// device.
//
// There is one store shape: N >= 1 key-range shards (Options.Shards; an
// unsharded store is N = 1), each a full transaction manager over its own
// stable image, Write-PDT, commit sequencer and WAL stream, coordinated by
// one global monotonic commit clock (txn.Sharded). The manifest lists one
// segment chain and freeze LSN per shard, segments are named
// seg-<generation>-s<shard>.seg, and shard 0's log lives in wal/. Writes
// shard per core: single-shard commits go through their home shard's
// sequencer with no global lock, and a cross-shard commit takes the same
// pipeline over all its participants — validated against each one's queue
// under their mutexes, one shared LSN, one member in each participant's next
// batch, whose record names the full participant set and shares that
// shard's fsync, then installed on every participant behind a begin gate
// once all of them are durable — and recovery drops incomplete groups from
// every stream (wal.CompleteGroups), so a torn cross-shard commit is
// all-or-nothing per clock entry. Begin pins
// a consistent per-shard snapshot vector; a one-shard store adopts more
// shards at Open (checkpointed tail required, manifest swap as the commit
// point); checkpoints build per-shard segments behind a single manifest
// swap and truncate each stream at its own freeze LSN. A commit, cross-shard
// or not, never waits for a shard's image build, only for its swap.
//
// Selective scans prune before they read. Every checkpoint stamps a zone
// map — min/max plus null count — per (column, block) into the segment
// footer (delta segments inherit the entries for blocks they don't
// rewrite), and Options.IndexColumns opts columns into secondary block
// indexes: per-block value summaries over the stable image — exact distinct
// sets, decode-free dictionary/RLE value lists, or Bloom filters — built at
// Open and maintained at checkpoint time (incremental checkpoints rebuild
// only dirty blocks, sharing clean summaries with the previous index).
// A Plan's filters compile to predicate descriptors; before running, the
// engine folds the transaction's pinned PDT stack to stable coordinates and
// skips each clean block that the zone map or the index proves empty of
// matches. Blocks any buffered insert, delete or modify touches are always
// read, so pruned scans are snapshot-consistent by construction — the
// differential suites hold them byte-identical to full scans across TPC-H
// and randomized update histories, at every shard count. Stats counts the
// skips (ZoneSkippedBlocks, IndexSkippedBlocks); Plan.NoPrune is the
// per-plan kill switch; the benchmark's cold workload records the payoff
// (engine.zone_skipped_blocks, engine.index_skipped_blocks).
//
// See README.md for the quickstart and docs/ARCHITECTURE.md for the full
// stack walk with commit and scan data-flow diagrams. The benchmarks in
// bench_test.go regenerate every figure of the paper's §4; cmd/pdtbench
// prints Figures 16–19; and benchmark/ is the one end-to-end instrument —
// scans, lookups, writes, recovery and online maintenance through the
// public API, every answer checked against an oracle (bash
// benchmark/run.sh, declared in BENCHMARK.json).
package pdtstore
