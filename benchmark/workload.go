package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"pdtstore"
	"pdtstore/internal/colstore"
	"pdtstore/internal/table"
	"pdtstore/internal/tpch"
	"pdtstore/internal/types"
)

// Per-round op counts of the read set. A round is long enough (≈0.5 s at the
// default scale) that its p50s are over 6+ samples for every class but the
// wide scan, which is reported as a rate over the round's scans instead.
type readCounts struct{ q6, q1, wide, rng, lookup int }

var (
	serialReads = readCounts{q6: 12, q1: 6, wide: 2, rng: 50, lookup: 200}
	// The hybrid scanner loops a short pass (≈0.13 s beside the writer) for as
	// long as the writer's round lasts, about seven times, so that the pass
	// it finishes after the writer has stopped is a small part of the round.
	hybridReads = readCounts{q6: 2, q1: 1, wide: 1, rng: 6, lookup: 20}
)

const (
	blockRows   = 4096
	writeRounds = 12  // serial workloads: fixed, so every run leaves the same delta behind
	hybridTail  = 300 // txns committed after the hybrid reopen, the tail open_ms replays
	minRounds   = 2
	// crossShardPct is the share of hybrid's txns planned to straddle the cut.
	crossShardPct = 20
)

// spec is what distinguishes one workload from another.
type spec struct {
	name string
	why  string
	// prep turns the freshly loaded, checkpointed image into the workload's
	// starting state; it may reopen b.db.
	prep func(b *bench) error
	// opts are the Open options beyond the common ones (indexes, shards).
	opts func(o *pdtstore.Options)
	// dropCaches empties the buffer pool (untimed) before every query and txn.
	dropCaches bool
	// checkpointWrites checkpoints (untimed) after every write round but the
	// last, so the next read round finds the PDTs empty again.
	checkpointWrites bool
	// plan draws one write transaction's mutations.
	plan func(b *bench, c *client) []mutation
	// send issues them in the workload's own shape and returns false on failure.
	send         func(b *bench, c *client, tx pdtstore.Tx, ms []mutation, parent int) bool
	txnsPerRound int
	// concurrent runs the writer beside a scanner goroutine, at half duty.
	concurrent bool
}

var specs = []spec{
	{
		name: "clean",
		why:  "checkpointed image, empty PDTs, warm pool: scans are decode + kernels, writes are 256-op batch commits, checkpoint is incremental",
		// Keys from the first half of the image, for the reason given at cold.
		plan:             func(b *bench, c *client) []mutation { return b.planModifies(c, 256, 0, b.or.nbase/2) },
		send:             sendBatch,
		txnsPerRound:     16,
		checkpointWrites: true,
	},
	{
		name:         "merge",
		why:          "2.5% of rows sit in the PDTs, so reads pay MergeScan (paper Fig. 17); writes are one-op durable txns; open replays a long tail",
		prep:         prepMerge,
		plan:         planMergeTxn,
		send:         sendRowAtATime,
		txnsPerRound: 80,
	},
	{
		name:       "cold",
		why:        "4-generation segment chain, secondary indexes, caches dropped before every op: pread+CRC, block map and index rebuild do the work",
		prep:       prepCold,
		opts:       func(o *pdtstore.Options) { o.IndexColumns = []int{tpch.LPartkey, tpch.LShipmode} },
		dropCaches: true,
		// Keys from the first half only: the second half of every older delta
		// segment stays live, so which chain members survive a checkpoint
		// (and with them disk_bytes_per_row) does not depend on the seed.
		plan:         func(b *bench, c *client) []mutation { return b.planModifies(c, 4, 0, b.or.nbase/2) },
		send:         sendReadModifyWrite,
		txnsPerRound: 24,
	},
	{
		name: "hybrid",
		why:  "2 shards, auto-checkpoint, one writer beside one scanner: a read gain paid for by commits, or a stall in either, shows here",
		prep: prepHybrid,
		opts: func(o *pdtstore.Options) { o.Shards = 2 },
		plan: planHybridTxn, send: sendRowAtATime,
		txnsPerRound: 60,
		concurrent:   true,
	},
}

func findSpec(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

// bench is one run's state.
type bench struct {
	cfg   config
	spec  *spec
	dir   string // scratch directory of this run
	clk   *refClock
	dev   *colstore.Device
	db    *pdtstore.DB
	pool  []types.Row // unused insert rows
	probe []types.Row // traced runs: the rows the layer probes load

	mu      sync.Mutex // orders oracle updates (with Commit) against snapshot reads (with Begin)
	or      *oracle
	lastLSN uint64 // CommitLSN of the last acknowledged commit

	main *client // the driver goroutine, the writer in hybrid
	scan *client // hybrid's scanner goroutine

	// Untraced rounds feed the end-to-end metrics. A traced run alternates
	// rounds with spans on and off and files the traced ones separately; the
	// gap between the two is the tracing overhead.
	reads, writes             *samples
	tracedReads, tracedWrites *samples

	rowOps      int64 // row ops acknowledged in timed write rounds
	writeBusy   time.Duration
	writeTxns   int64 // txns of timed write rounds
	plannedTxns int64 // every txn drawn from spec.plan, timed or not
	crossShard  int64 // of those, how many were planned to straddle the shard cut
	aborts      int64
	tailOps     int64 // row ops acknowledged since the last explicit checkpoint
	setup       setupTimes
	autoCkpts   int
	poolBlocks  int
}

// setupTimes are the parts of set-up, in seconds at the reference speed.
type setupTimes struct {
	gen    float64   // generating rows and building the oracle
	builds []float64 // load + first checkpoint, once per repetition
	prep   float64   // turning the image into the workload's starting state
}

func (b *bench) options(auto bool) pdtstore.Options {
	o := pdtstore.Options{Schema: tpch.LineitemSchema, BlockRows: blockRows, Compressed: true, Device: b.dev}
	if b.spec.opts != nil {
		b.spec.opts(&o)
	}
	o.Checkpoint.Auto = auto
	return o
}

// ---- set-up -------------------------------------------------------------------

// buildBase loads the generated image into a fresh store through the public
// write path — one ApplyBatch of inserts, Commit, Checkpoint — and leaves it
// open. Unsharded and unindexed: prep reopens with the workload's options.
func (b *bench) buildBase(dir string, rows []types.Row) (*pdtstore.DB, error) {
	db, err := pdtstore.Open(dir, pdtstore.Options{Schema: tpch.LineitemSchema, BlockRows: blockRows, Compressed: true, Device: b.dev})
	if err != nil {
		return nil, err
	}
	ops := make([]table.Op, len(rows))
	for i, r := range rows {
		ops[i] = table.Op{Kind: table.OpInsert, Row: r}
	}
	tx := db.Begin()
	if _, err := tx.ApplyBatch(ops); err != nil {
		db.Close()
		return nil, fmt.Errorf("load: %w", err)
	}
	if err := tx.Commit(); err != nil {
		db.Close()
		return nil, fmt.Errorf("load commit: %w", err)
	}
	b.lastLSN = tx.CommitLSN()
	if err := db.Checkpoint(); err != nil {
		db.Close()
		return nil, fmt.Errorf("first checkpoint: %w", err)
	}
	return db, nil
}

// setUp generates the seed's data, loads it cfg.setups times over (set-up
// time is the median build) and turns the last image into the workload's
// starting state.
func (b *bench) setUp() error {
	b.clk.lap()
	t := time.Now()
	ds := generate(b.cfg.sf, b.cfg.seed)
	b.or = newOracle(ds.rows)
	b.pool = ds.pool
	b.setup.gen = since(t) / 1e3 / b.clk.lap()
	for i := 0; i < b.cfg.setups; i++ {
		t := time.Now()
		dir := filepath.Join(b.dir, fmt.Sprintf("store-%d", i))
		db, err := b.buildBase(dir, ds.rows)
		if err != nil {
			return err
		}
		b.setup.builds = append(b.setup.builds, since(t)/1e3/b.clk.lap())
		if i < b.cfg.setups-1 {
			if err := db.Close(); err != nil {
				return err
			}
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
			b.dev.DropCaches()
			continue
		}
		b.db = db
	}
	// A traced run keeps a prefix of the image for the layer probes; the rest
	// lives in the store and the oracle now.
	if b.cfg.trace {
		b.probe = append([]types.Row(nil), ds.rows[:probeRows(b.cfg, len(ds.rows))]...)
	}
	t = time.Now()
	b.main.db = b.db
	if b.spec.prep != nil {
		if err := b.spec.prep(b); err != nil {
			return fmt.Errorf("prep %s: %w", b.spec.name, err)
		}
	}
	b.setup.prep = since(t) / 1e3 / b.clk.lap()
	return nil
}

// reopen closes the store and opens it again with the workload's options.
func (b *bench) reopen(auto bool) error {
	dir := b.db.Dir()
	if err := b.db.Close(); err != nil {
		return err
	}
	db, err := pdtstore.Open(dir, b.options(auto))
	if err != nil {
		return err
	}
	b.db = db
	b.main.db = db
	if b.scan != nil {
		b.scan.db = db
	}
	return nil
}

// checkpoint is DB.Checkpoint plus the driver's own tail accounting.
func (b *bench) checkpoint() error {
	b.tailOps = 0
	return b.db.Checkpoint()
}

// planTxn draws the workload's next write transaction.
func (b *bench) planTxn(c *client) []mutation {
	b.plannedTxns++
	return b.spec.plan(b, c)
}

// commitBatches applies mutations as ApplyBatch commits of at most n ops.
func (b *bench) commitBatches(c *client, ms []mutation, n int) error {
	for len(ms) > 0 {
		m := ms
		if len(m) > n {
			m = m[:n]
		}
		ms = ms[len(m):]
		if !b.txn(c, m, sendBatch, -1) {
			return c.firstErr
		}
	}
	return nil
}

// prepMerge commits 2.5 % of the rows as scattered updates — a third each
// inserts, deletes and modifies — and does not checkpoint, so the PDTs hold
// them for every read that follows (the top update ratio of paper Fig. 17).
func prepMerge(b *bench) error {
	n := len(b.or.keys) / 40
	ms := make([]mutation, 0, n)
	used := map[key]bool{}
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0:
			ms = append(ms, b.planInsert())
		case 1:
			ms = append(ms, mutation{kind: table.OpDelete, k: b.pickDistinct(b.main, used, 0, b.or.nbase)})
		default:
			ms = append(ms, randomModify(b.main.rng, b.pickDistinct(b.main, used, 0, b.or.nbase)))
		}
	}
	return b.commitBatches(b.main, ms, (n+7)/8)
}

// prepCold ages the store: three rounds of scattered modifies, each to a
// column of its own and each checkpointed into its own delta segment, then a
// reopen that rebuilds the secondary indexes over the four-generation chain.
func prepCold(b *bench) error {
	for _, col := range []int{colQty, colDisc, colRF} {
		ms := b.planModifies(b.main, len(b.or.keys)/200+1, 0, b.or.nbase)
		for i := range ms {
			ms[i] = modifyCol(b.main.rng, ms[i].k, col)
		}
		if err := b.commitBatches(b.main, ms, len(ms)); err != nil {
			return err
		}
		if err := b.checkpoint(); err != nil {
			return err
		}
	}
	return b.reopen(false)
}

// prepHybrid adopts the unsharded image into two shards (quantile cuts) with
// the background checkpoint scheduler on.
func prepHybrid(b *bench) error { return b.reopen(true) }

// ---- planning writes -----------------------------------------------------------

func (b *bench) pickDistinct(c *client, used map[key]bool, lo, hi int) key {
	for {
		k := b.or.pickLive(c.rng, lo, hi)
		if !used[k] {
			used[k] = true
			return k
		}
	}
}

func (b *bench) planModifies(c *client, n, lo, hi int) []mutation {
	used := make(map[key]bool, n)
	ms := make([]mutation, n)
	for i := range ms {
		ms[i] = randomModify(c.rng, b.pickDistinct(c, used, lo, hi))
	}
	return ms
}

func (b *bench) planInsert() mutation {
	r := b.pool[len(b.pool)-1]
	b.pool = b.pool[:len(b.pool)-1]
	return mutation{kind: table.OpInsert, k: keyOf(r), row: r}
}

// planMergeTxn is one op: 50 % modify, 25 % insert, 25 % delete.
func planMergeTxn(b *bench, c *client) []mutation {
	switch r := c.rng.Intn(4); {
	case r < 2:
		return []mutation{randomModify(c.rng, b.or.pickLive(c.rng, 0, len(b.or.keys)))}
	case r == 2:
		return []mutation{b.planInsert()}
	default:
		return []mutation{{kind: table.OpDelete, k: b.or.pickLive(c.rng, 0, len(b.or.keys))}}
	}
}

// planHybridTxn is two modifies, an insert and a delete. Keys come from one
// half of the loaded image, so the txn stays inside one shard, except for the
// cross-shard share, whose two modifies straddle the cut. The halves leave a
// 10 % gap around the median because the adopt step cuts at a block boundary
// near it, not exactly on it.
func planHybridTxn(b *bench, c *client) []mutation {
	n := b.or.nbase
	halves := [2][2]int{{0, n * 45 / 100}, {n * 55 / 100, n}}
	side := c.rng.Intn(2)
	other := side
	if c.rng.Intn(100) < crossShardPct {
		other = 1 - side
		b.crossShard++
	}
	used := map[key]bool{}
	return []mutation{
		randomModify(c.rng, b.pickDistinct(c, used, halves[side][0], halves[side][1])),
		randomModify(c.rng, b.pickDistinct(c, used, halves[other][0], halves[other][1])),
		b.planInsert(),
		{kind: table.OpDelete, k: b.pickDistinct(c, used, halves[side][0], halves[side][1])},
	}
}

// ---- sending writes -------------------------------------------------------------

func sendBatch(b *bench, c *client, tx pdtstore.Tx, ms []mutation, parent int) bool {
	return c.applyBatch(tx, ms, parent)
}

func sendRowAtATime(b *bench, c *client, tx pdtstore.Tx, ms []mutation, parent int) bool {
	for _, m := range ms {
		if !c.apply(tx, m, parent) {
			return false
		}
	}
	return true
}

// sendReadModifyWrite reads each row back, checks it against the oracle, and
// then updates it.
func sendReadModifyWrite(b *bench, c *client, tx pdtstore.Tx, ms []mutation, parent int) bool {
	for _, m := range ms {
		row, found, err := c.find(tx, m.k, parent)
		rc := b.or.rows[m.k]
		if err != nil || !found || hashRow(row) != rc.hash() {
			c.fail("read-modify-write find %v: found=%v err=%v", m.k, found, err)
			return false
		}
		if !c.apply(tx, m, parent) {
			return false
		}
	}
	return true
}

// txn runs one write transaction and mirrors it into the oracle once the
// commit is acknowledged. The oracle lock spans Commit and the mirror so a
// concurrent reader's Begin sees either both or neither.
func (b *bench) txn(c *client, ms []mutation, send func(*bench, *client, pdtstore.Tx, []mutation, int) bool, parent int) bool {
	sp := c.tr.begin("txn", parent)
	defer c.tr.end(sp)
	c.attempted += int64(len(ms))
	tx := c.begin(sp)
	if !send(b, c, tx, ms, sp) {
		c.failed += int64(len(ms)) - 1
		c.abort(tx, sp)
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !c.commit(tx, sp) {
		c.failed += int64(len(ms)) - 1
		b.aborts++
		return false
	}
	b.lastLSN = tx.CommitLSN()
	b.tailOps += int64(len(ms))
	for _, m := range ms {
		m.mirror(b.or)
	}
	return true
}

// writeRound runs the workload's txn shape a fixed number of times, files
// each txn's latency in dst and returns the round's throughput in kops/s.
func (b *bench) writeRound(c *client, dst *samples) float64 {
	sp := c.tr.begin("write-round", -1)
	defer c.tr.end(sp)
	var busy time.Duration
	var ops int64
	for i := 0; i < b.spec.txnsPerRound; i++ {
		ms := b.planTxn(c)
		if b.spec.dropCaches {
			b.dev.DropCaches()
		}
		t0 := time.Now()
		ok := b.txn(c, ms, b.spec.send, sp)
		d := time.Since(t0)
		busy += d
		dst.all["txn_ms"] = append(dst.all["txn_ms"], float64(d)/1e6)
		if ok {
			ops += int64(len(ms))
		}
		if b.spec.concurrent {
			// Think time equal to the service time: the writer runs at half
			// duty, which leaves the two cores room for the scanner, the
			// collector and background checkpoints. Throughput is row ops
			// over busy time, so the pauses do not count.
			time.Sleep(d)
		}
	}
	b.writeTxns += int64(b.spec.txnsPerRound)
	b.rowOps += ops
	b.writeBusy += busy
	return float64(ops) / busy.Seconds() / 1e3
}

func newClient(seed int64, tr *tracer) *client {
	return &client{rng: rand.New(rand.NewSource(seed)), tr: tr}
}
