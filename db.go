package pdtstore

// Durable store lifecycle: Open(dir) either bootstraps a fresh store
// directory or recovers one — load each shard's segment chain from the
// MANIFEST as its stable image, replay its WAL stream's tail past the shard's
// freeze LSN, and resume the commit clock — and DB.Checkpoint makes the online
// checkpoint durable:
//
//	stream image(s)  →  fsync segment(s)  →  swap MANIFEST  →  truncate WAL(s)
//
// The manifest swap (an atomic rename) is the commit point. A crash anywhere
// in that sequence recovers exactly the committed state: before the swap the
// old manifest still pairs the old segments with the full logs; after it the
// new manifest's freeze LSNs tell recovery which log records the new images
// already contain, so an untruncated tail cannot double-apply.
//
// There is one store shape: N >= 1 key-range shards (Options.Shards; an
// unsharded store is N = 1 with no split keys). The manifest lists one
// segment chain and freeze LSN per shard plus the permanent split keys, each
// shard owns a WAL stream directory, and recovery replays the streams
// independently before reconciling them to one global commit clock —
// wal.CompleteGroups drops cross-shard commits that only some streams got (a
// crash between two shards' batch fsyncs), so reopen is all-or-nothing per
// clock entry. Checkpoint streams the shards' images one at a time and commits
// them with a single manifest swap: a crash between two shards' builds loses
// nothing, because the old manifest still pairs the old images with the full
// streams.
//
// Directory layout:
//
//	dir/
//	  MANIFEST                     current generation + per-shard chains and freeze LSNs
//	  seg-<generation>-s<i>.seg    shard i's stable image segments (chain members live, rest GC'd)
//	  wal/<seq>.wal                shard 0's rotated commit log files
//	  wal-s<i>/<seq>.wal           shard i's commit log stream, i >= 1
//
// Directories written before every store carried a shard list hold a flat
// manifest and seg-<generation>.seg files; storage.LoadManifest lifts the
// manifest into the one-shard form and the next checkpoint rewrites both.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"pdtstore/internal/colstore"
	"pdtstore/internal/engine"
	"pdtstore/internal/index"
	"pdtstore/internal/pdt"
	"pdtstore/internal/storage"
	"pdtstore/internal/table"
	"pdtstore/internal/txn"
	"pdtstore/internal/types"
	"pdtstore/internal/wal"
)

// Options configures Open.
type Options struct {
	// Schema is required when creating a new store directory; for an existing
	// one it is optional and validated against the segment's schema.
	Schema *types.Schema
	// BlockRows is the per-column block size of checkpointed images (0 =
	// colstore default).
	BlockRows int
	// Compressed selects compressed stable blocks.
	Compressed bool
	// Device shares a buffer pool across stores; nil creates a private one.
	Device *colstore.Device
	// Shards splits the table into this many key-range shards, each with its
	// own Write-PDT, group-commit sequencer and WAL stream sharing one global
	// commit clock. 0 means "whatever the directory holds": one shard for a
	// fresh store, the manifest's count for an existing one. Opening a
	// one-shard store with Shards > 1 adopts the layout — the image is cut
	// into per-shard segments — provided its WAL tail is empty (checkpoint
	// first); any other change of an existing store's shard count is not
	// supported.
	Shards int
	// ShardKeys are the Shards-1 ascending full-sort-key cuts. Required when
	// bootstrapping a fresh store with more than one shard (an empty image
	// has no quantiles to cut at); optional when adopting an existing image,
	// where nil selects row-count quantile cuts read off the image. Ignored
	// once the manifest records splits — they are permanent.
	ShardKeys []types.Row
	// Checkpoint selects the background cost-model checkpoint scheduler
	// (off in the zero value).
	Checkpoint CheckpointOptions
	// IndexColumns opts listed schema columns into secondary block indexes:
	// per-(column, block) value summaries over the stable image (exact
	// distinct sets for low-cardinality blocks, Bloom filters otherwise) that
	// let selective scans skip whole blocks before reading them. Indexes are
	// maintained at checkpoint time from the same dirty-block map incremental
	// checkpoints compute, and consulted automatically by Plan filters —
	// DB.Stats reports how many block reads they eliminated. Float64 columns
	// are rejected at Open. The set is not persisted; each Open rebuilds it
	// from the image (a fast, decode-free pass for dictionary and RLE blocks).
	IndexColumns []int
}

// Tx is the store's transaction interface, returned by DB.Begin. It is
// implemented by *txn.STxn over the shard coordinator, which pins a consistent
// per-shard snapshot vector and routes each operation to the owning shard —
// with one shard, a vector of one and no routing to do.
type Tx interface {
	// Schema returns the table schema.
	Schema() *types.Schema
	// Scan returns a batch source producing the projected columns of all
	// rows visible to the transaction whose sort key lies in [loKey, hiKey]
	// (nil bounds are open; bounds may be prefixes of the sort key).
	Scan(cols []int, loKey, hiKey types.Row) (pdt.BatchSource, error)
	// PartitionScan exposes the snapshot to the scan engine as slices by
	// stable-SID range (engine.PartRelation): Tx values plug directly into
	// engine.Scan plans, and Scan is this scan's whole-range open.
	PartitionScan(loKey, hiKey types.Row) (*engine.PartScan, error)
	// FindByKey locates the visible tuple with the given (full) sort key.
	FindByKey(key types.Row) (rid uint64, row types.Row, found bool, err error)
	// Insert adds a new tuple; its sort key must not be visible.
	Insert(row types.Row) error
	// DeleteByKey removes the visible tuple with the given sort key.
	DeleteByKey(key types.Row) (bool, error)
	// UpdateByKey sets one column of the visible tuple with the given key.
	UpdateByKey(key types.Row, col int, val types.Value) (bool, error)
	// ApplyBatch resolves and applies a batch of key-level operations.
	ApplyBatch(ops []table.Op) (int, error)
	// Commit validates against concurrent commits and makes the
	// transaction's updates durable; CommitLSN reports its position in the
	// global commit order afterwards.
	Commit() error
	CommitLSN() uint64
	// Abort discards the transaction.
	Abort() error
}

// DB is a durable, transactional PDT store rooted at a directory.
type DB struct {
	mu     sync.Mutex // serializes Checkpoint and Close
	dir    string
	lock   *os.File // exclusive flock on dir/LOCK for the DB's lifetime
	opts   Options
	schema *types.Schema
	dev    *colstore.Device
	// One entry per shard, coordinated by sharded. Each manager owns its
	// shard's current image and every retired one a reader still pins.
	mgrs    []*txn.Manager
	logs    []*wal.FileLog
	sharded *txn.Sharded
	man     storage.Manifest
	// nextGen is the highest generation number ever handed to a checkpoint,
	// advanced even when the checkpoint fails: a failed attempt may have
	// installed its segment as the manager's live store (only the manifest
	// write failed), so a retry must never reuse — and O_TRUNC — that name.
	nextGen uint64
	closed  bool

	// maxGenerations bounds each shard's segment chain: the constant of that
	// name, which tests lower to pin checkpoints to whole rewrites.
	maxGenerations int
	// lastCost records, per shard, the cost-model inputs and outcome of the
	// most recent checkpoint decision (scheduler skip included). Guarded by mu.
	lastCost []CheckpointDecision
	// Background checkpoint scheduler lifecycle (Checkpoint.Auto only).
	schedStop chan struct{}
	schedDone chan struct{}
	schedOnce sync.Once
	schedErr  error // first scheduler checkpoint failure, sticky; guarded by mu

	// fault, when set (crash tests only), is invoked at named points of the
	// checkpoint sequence; a non-nil return simulates the process dying there
	// (the step and everything after it never run).
	fault func(point string) error
}

// Checkpoint fault-injection points, in execution order.
const (
	faultMidSegmentWrite = "mid-segment-write"
	// faultMidBlockMapWrite fires after the dirty blocks streamed but before
	// Finish writes the footer (and, when blocks are inherited, the block
	// map): the new segment has data blocks and no trailer, and the manifest
	// still names the previous generation's chain.
	faultMidBlockMapWrite = "mid-block-map-write"
	// faultBetweenShardCheckpoints fires before each shard's image build
	// except the first (so never with one shard): some shards have already
	// streamed and installed their new images, the rest have not, and the
	// manifest still pairs the old images with the full WAL streams.
	faultBetweenShardCheckpoints = "between-shard-checkpoints"
	faultPreManifestSwap         = "pre-manifest-swap"
	// faultPreSwapMixedGen fires just before the manifest swap when the new
	// manifest would reference blocks across generations (any shard's chain
	// has more than one segment): the fsynced incremental segment exists but
	// nothing names it, and its inherited references point at files the old
	// manifest still pins.
	faultPreSwapMixedGen = "pre-swap-mixed-generations"
	// faultPostSwapPreGC fires after the manifest swap but before the
	// superseded chain members' directory entries are unlinked: recovery must
	// ignore the stale files the new manifest no longer pins.
	faultPostSwapPreGC       = "gc-after-swap"
	faultPostSwapPreTruncate = "post-swap-pre-truncate"
)

func shardSegmentName(gen uint64, shard int) string {
	return fmt.Sprintf("seg-%016x-s%d.seg", gen, shard)
}

// shardWalDir keeps shard 0 on the plain "wal" name: a one-shard store's
// stream stays where it is when the store adopts more shards.
func shardWalDir(shard int) string {
	if shard == 0 {
		return "wal"
	}
	return fmt.Sprintf("wal-s%d", shard)
}

// Open opens or creates a durable store at dir and recovers its committed
// state: each shard's segment chain in the manifest becomes its stable image
// (blocks pread lazily through the buffer pool), the tail of its WAL stream
// beyond its freeze LSN is replayed into the Write-PDT, and the commit clock
// resumes the pre-crash sequence. A torn final WAL record (crash mid-append)
// is truncated away; every earlier record is applied exactly once — except a
// cross-shard commit whose record is missing from any participant stream,
// which is dropped from all of them.
func Open(dir string, opts Options) (*DB, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	var stores []*colstore.Store
	var logs []*wal.FileLog
	opened := false
	defer func() {
		if !opened {
			for _, l := range logs {
				if l != nil {
					l.Close()
				}
			}
			closeStores(stores)
			unlockDir(lock)
		}
	}()
	dev := opts.Device
	if dev == nil {
		dev = colstore.NewDevice()
	}
	man, found, err := storage.LoadManifest(dir)
	if err != nil {
		return nil, err
	}
	switch {
	case !found:
		stores, man, err = bootstrap(dir, opts, dev)
	case opts.Shards > 1 && len(man.Shards) == 1:
		stores, man, err = adoptShards(dir, man, opts, dev)
	case opts.Shards > 1 && opts.Shards != len(man.Shards):
		// The manifest's layout wins; Options.Shards may only agree with it.
		err = fmt.Errorf("pdtstore: store at %s has %d shards; re-sharding to %d is not supported", dir, len(man.Shards), opts.Shards)
	default:
		stores = make([]*colstore.Store, len(man.Shards))
		for i, sh := range man.Shards {
			if stores[i], err = openChain(dir, sh.Chain(), dev, opts.Schema); err != nil {
				err = fmt.Errorf("pdtstore: open shard %d segment generation %d: %w", i, man.Generation, err)
				break
			}
		}
	}
	if err != nil {
		return nil, err
	}
	gcStraySegments(dir, manifestSegments(man))

	// Secondary indexes ride each shard image's aux sidecar; a checkpoint
	// carries the set forward (shared) or Rebuilds it over the blocks it
	// rewrote. Built here last so every Open branch is covered.
	if len(opts.IndexColumns) > 0 {
		for _, st := range stores {
			idx, err := index.Build(st, opts.IndexColumns)
			if err != nil {
				return nil, fmt.Errorf("pdtstore: build secondary index: %w", err)
			}
			st.SetAux(idx)
		}
	}

	n := len(stores)
	// Per-shard base LSNs: records at or below a shard's bar were
	// materialized into its image before the manifest swapped. The shards'
	// streams are read concurrently; of several failures the lowest-numbered
	// shard's is reported.
	bases := make([]uint64, n)
	logs = make([]*wal.FileLog, n)
	streams := make([][]wal.Record, n)
	errs := make([]error, n)
	eachShard(n, func(i int) {
		bases[i] = man.Shards[i].LSN
		logs[i], streams[i], errs[i] = wal.OpenFileLog(filepath.Join(dir, shardWalDir(i)))
		// The clock must sit at the max of the manifest's freeze LSN and the
		// last log record: a fully truncated log must not rewind it below the
		// checkpoint, or post-recovery commits would reuse spent LSNs.
		if errs[i] == nil && bases[i] > logs[i].LSN() {
			logs[i].SetLSN(bases[i])
		}
	})
	if err := firstError(errs); err != nil {
		return nil, err
	}
	// Cross-shard atomicity: a commit clock entry missing from any
	// participant stream (crash between two shards' batch fsyncs, or a torn
	// tail on one stream) never installed anywhere — drop it from every
	// stream.
	streams = wal.CompleteGroups(streams, bases)
	mgrs := make([]*txn.Manager, n)
	eachShard(n, func(i int) {
		mgrs[i] = txn.NewManager(stores[i], nil, txn.Options{Log: logs[i]})
		// Replay only the records the checkpointed image does not already
		// contain: everything at or below the shard's manifest LSN was
		// materialized into its segment before the manifest swapped (the
		// post-swap-pre-truncate crash leaves exactly such records behind).
		tail := streams[i][:0]
		for _, rec := range streams[i] {
			if rec.LSN > bases[i] {
				tail = append(tail, rec)
			}
		}
		if err := mgrs[i].Recover(tail); err != nil {
			errs[i] = fmt.Errorf("pdtstore: WAL replay shard %d: %w", i, err)
		}
	})
	if err := firstError(errs); err != nil {
		return nil, err
	}
	sharded, err := txn.NewSharded(mgrs, man.Splits)
	if err != nil {
		return nil, err
	}
	// Reconcile to the global clock: every shard's freeze bar is a spent LSN
	// even when its stream was fully truncated.
	for _, b := range bases {
		sharded.RaiseClock(b)
	}
	db := &DB{
		dir:      dir,
		lock:     lock,
		opts:     opts,
		schema:   stores[0].Schema(),
		dev:      dev,
		mgrs:     mgrs,
		logs:     logs,
		sharded:  sharded,
		man:      man,
		nextGen:  man.Generation,
		lastCost: make([]CheckpointDecision, n),

		maxGenerations: maxGenerations,
	}
	if opts.Checkpoint.Auto {
		db.schedStop = make(chan struct{})
		db.schedDone = make(chan struct{})
		go db.schedulerLoop()
	}
	opened = true
	return db, nil
}

// eachShard runs f(0) … f(n-1) concurrently and returns when all are done;
// one shard runs inline.
func eachShard(n int, f func(i int)) {
	if n == 1 {
		f(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			f(i)
			wg.Done()
		}()
	}
	wg.Wait()
}

// firstError returns the first non-nil error of errs: the failure of the
// lowest-numbered shard.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func closeStores(stores []*colstore.Store) {
	for _, s := range stores {
		if s != nil {
			s.Close()
		}
	}
}

// bootstrap creates a fresh store: generation 1 is one empty, durable image
// per shard. If the process dies between the segments and the manifest, the
// next Open simply bootstraps again over the stray files.
func bootstrap(dir string, opts Options, dev *colstore.Device) ([]*colstore.Store, storage.Manifest, error) {
	if opts.Schema == nil {
		return nil, storage.Manifest{}, fmt.Errorf("pdtstore: creating a new store at %s requires Options.Schema", dir)
	}
	n := max(opts.Shards, 1)
	if len(opts.ShardKeys) != n-1 {
		return nil, storage.Manifest{}, fmt.Errorf("pdtstore: bootstrapping %d shards requires %d Options.ShardKeys cuts, got %d", n, n-1, len(opts.ShardKeys))
	}
	stores := make([]*colstore.Store, n)
	man := storage.Manifest{Generation: 1, Shards: make([]storage.ShardEntry, n), Splits: opts.ShardKeys}
	for i := range stores {
		name := shardSegmentName(1, i)
		b, err := colstore.NewFileBuilder(opts.Schema, dev, opts.BlockRows, opts.Compressed, filepath.Join(dir, name))
		if err != nil {
			closeStores(stores)
			return nil, storage.Manifest{}, err
		}
		if stores[i], err = b.Finish(); err != nil {
			closeStores(stores)
			return nil, storage.Manifest{}, err
		}
		man.Shards[i] = storage.ShardEntry{Segment: name}
	}
	if err := storage.WriteManifest(dir, man); err != nil {
		closeStores(stores)
		return nil, storage.Manifest{}, err
	}
	return stores, man, nil
}

// adoptShards converts a one-shard store to opts.Shards shards: stream the
// image into per-shard segments cut at the split keys, then swap a manifest
// naming them (the adopt commit point). The WAL tail past the manifest's
// freeze LSN must be empty — tail records live on one stream and cannot be
// re-routed — so callers checkpoint first. A crash before the swap leaves the
// one-shard manifest intact and the partial shard segments as strays for GC.
func adoptShards(dir string, man storage.Manifest, opts Options, dev *colstore.Device) ([]*colstore.Store, storage.Manifest, error) {
	n, old := opts.Shards, man.Shards[0]
	store, err := openChain(dir, old.Chain(), dev, opts.Schema)
	if err != nil {
		return nil, man, fmt.Errorf("pdtstore: open segment generation %d: %w", man.Generation, err)
	}
	defer store.Close()
	flog, records, err := wal.OpenFileLog(filepath.Join(dir, shardWalDir(0)))
	if err != nil {
		return nil, man, err
	}
	flog.Close()
	for _, rec := range records {
		if rec.LSN > old.LSN {
			return nil, man, fmt.Errorf("pdtstore: adopting a %d-shard layout requires an empty WAL tail (LSN %d past freeze %d): checkpoint before re-opening with Shards", n, rec.LSN, old.LSN)
		}
	}
	keys := opts.ShardKeys
	if keys == nil {
		if keys, err = table.ShardCuts(store, n); err != nil {
			return nil, man, err
		}
	} else if len(keys) != n-1 {
		return nil, man, fmt.Errorf("pdtstore: %d shards need %d Options.ShardKeys cuts, got %d", n, n-1, len(keys))
	}
	gen := man.Generation + 1
	newMan := storage.Manifest{Generation: gen, Shards: make([]storage.ShardEntry, n), Splits: keys}
	for i := range newMan.Shards {
		newMan.Shards[i] = storage.ShardEntry{Segment: shardSegmentName(gen, i), LSN: old.LSN}
	}
	stores, err := table.SplitStore(store, keys, func(i int) (*colstore.Builder, error) {
		return colstore.NewFileBuilder(store.Schema(), dev, opts.BlockRows, opts.Compressed, filepath.Join(dir, newMan.Shards[i].Segment))
	})
	if err != nil {
		return nil, man, err
	}
	if err := storage.WriteManifest(dir, newMan); err != nil {
		closeStores(stores)
		return nil, man, err
	}
	for _, nm := range old.Chain() {
		os.Remove(filepath.Join(dir, nm))
	}
	return stores, newMan, nil
}

// openChain opens a manifest segment chain (oldest generation first) into one
// store: the last member carries the block map and geometry, the
// earlier members only serve the blocks the map still references.
func openChain(dir string, chain []string, dev *colstore.Device, want *types.Schema) (*colstore.Store, error) {
	segs := make([]*storage.Segment, len(chain))
	fail := func() {
		for _, s := range segs {
			if s != nil {
				s.Close()
			}
		}
	}
	for j, nm := range chain {
		seg, err := storage.OpenSegment(filepath.Join(dir, nm))
		if err != nil {
			fail()
			return nil, err
		}
		segs[j] = seg
	}
	newest := segs[len(segs)-1]
	if want != nil && !schemaEqual(want, newest.Schema()) {
		fail()
		return nil, fmt.Errorf("pdtstore: schema mismatch: store holds %v", newest.Schema())
	}
	st, err := colstore.FromSegmentChain(segs, dev)
	if err != nil {
		fail()
		return nil, err
	}
	return st, nil
}

// Schema returns the store's schema.
func (db *DB) Schema() *types.Schema { return db.schema }

// Dir returns the store directory.
func (db *DB) Dir() string { return db.dir }

// Shards returns the shard count (1 for an unsharded store).
func (db *DB) Shards() int { return len(db.mgrs) }

// Begin starts a snapshot-isolated transaction: the coordinator pins a
// consistent vector of per-shard snapshots for the transaction's lifetime.
func (db *DB) Begin() Tx { return db.sharded.Begin() }

// Close stops the background checkpoint scheduler and waits for background
// maintenance, then releases the log and every image. It reports
// a sticky maintenance or scheduler failure, if any.
func (db *DB) Close() error {
	db.stopScheduler()
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	var maintErr error
	for _, m := range db.mgrs {
		if err := m.WaitMaintenance(); maintErr == nil {
			maintErr = err
		}
	}
	var err error
	for _, l := range db.logs {
		if cerr := l.Close(); err == nil {
			err = cerr
		}
	}
	for _, m := range db.mgrs {
		if cerr := m.Close(); err == nil {
			err = cerr
		}
	}
	unlockDir(db.lock)
	if maintErr != nil {
		return maintErr
	}
	if db.schedErr != nil && err == nil {
		err = db.schedErr
	}
	return err
}

// crash simulates process death in the kill-and-reopen tests: every
// descriptor is released with no orderly shutdown — no maintenance wait, no
// log flush, no manifest work. On-disk state stays exactly as the last fsync
// left it (closing a descriptor never undoes durable writes), and the
// advisory LOCK is released just as a dying process would release it.
func (db *DB) crash() {
	db.stopScheduler()
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return
	}
	db.closed = true
	for _, l := range db.logs {
		l.Close()
	}
	for _, m := range db.mgrs {
		m.Close()
	}
	unlockDir(db.lock)
}

func (db *DB) injectFault(point string) error {
	if db.fault == nil {
		return nil
	}
	return db.fault(point)
}

// manifestSegments is the set of segment file names a manifest pins — every
// member of every shard's generation chain, not just the newest.
func manifestSegments(m storage.Manifest) map[string]bool {
	keep := make(map[string]bool, len(m.Shards))
	for _, sh := range m.Shards {
		for _, nm := range sh.Chain() {
			keep[nm] = true
		}
	}
	return keep
}

// gcStraySegments removes segment files the manifest does not pin: partial
// images from crashed checkpoints and fully superseded generations.
func gcStraySegments(dir string, keep map[string]bool) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if keep[name] || e.IsDir() {
			continue
		}
		if strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".seg") {
			os.Remove(filepath.Join(dir, name))
		}
	}
}

func schemaEqual(a, b *types.Schema) bool {
	if a.NumCols() != b.NumCols() || len(a.SortKey) != len(b.SortKey) {
		return false
	}
	for i := range a.Cols {
		if a.Cols[i] != b.Cols[i] {
			return false
		}
	}
	for i := range a.SortKey {
		if a.SortKey[i] != b.SortKey[i] {
			return false
		}
	}
	return true
}
