// Package txn implements the paper's three-layer PDT transaction scheme
// (§3.3, Figure 14): a disk-resident stable table, a large RAM-resident
// Read-PDT, a small master Write-PDT that committing transactions modify,
// and per-transaction Trans-PDTs holding uncommitted updates.
//
// Transactions get snapshot isolation without locks: starting a transaction
// copies the Write-PDT (sharing the copy when nothing committed in between)
// and stacks a private, initially empty Trans-PDT on top. Commit serializes
// the Trans-PDT against every transaction that committed during its lifetime
// (Algorithm 9's TZ set, with reference counting) — aborting on write-write
// conflict — and folds the result into the master Write-PDT.
//
// Every commit runs one pipeline — validate, park, durable, install.
// validateLocked serializes the Trans-PDT and folds it onto the write chain;
// the commit takes its LSN and parks on a sequencer where one leader makes a
// whole batch durable with a single WAL append (one fsync), so the
// durability wait happens off the manager mutex and concurrent writers share
// the barrier instead of queueing on it; installLocked then makes it
// visible. See commit and commitLeader. Recover replays the logged records
// by the same size rule as that fold (pdt.Apply), on one snapshot of the
// Write-PDT.
//
// Maintenance is online (maintain.go): the (store, Read-PDT) pair a
// transaction reads is an immutable version pinned at Begin. When the
// Write-PDT outgrows its budget it is frozen and folded into a fresh
// Read-PDT copy by a background goroutine, and when Checkpoint runs the
// frozen view is streamed into a new stable image off-lock — in both cases
// commits keep landing in a fresh write layer and a pointer swap installs
// the new version, so neither readers nor writers ever stall on a merge.
//
// Writes scale across cores by sharding (sharded.go): Sharded coordinates
// N >= 1 key-range shards, each a full Manager with its own Write-PDT,
// sequencer and WAL stream, under one global commit clock. A cross-shard
// commit is one member of each participant's ordinary batch: one WAL record
// per participant stream, installed on every participant once all of them
// are durable, which recovery makes all-or-nothing per clock entry
// (wal.CompleteGroups). Sharded.Begin pins a consistent vector of per-shard
// snapshots behind a begin gate.
package txn

import (
	"cmp"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"pdtstore/internal/colstore"
	"pdtstore/internal/engine"
	"pdtstore/internal/pdt"
	"pdtstore/internal/table"
	"pdtstore/internal/types"
	"pdtstore/internal/wal"
)

// ErrTxnDone is returned when using a committed or aborted transaction.
var ErrTxnDone = errors.New("txn: transaction already finished")

// ErrConflict wraps the PDT-level conflict detected at commit.
var ErrConflict = errors.New("txn: write-write conflict, transaction aborted")

// version is one immutable read view: a stable image plus the Read-PDT
// folded over it. Transactions pin the current version at Begin; a retired
// version is released — dropping its claim on the stable image's buffer-pool
// blocks — when its last reader finishes.
type version struct {
	store   *colstore.Store
	readPDT *pdt.PDT
	refs    int // running transactions pinned to this version
}

// Manager coordinates transactions over one table image. It alone owns the
// current (stable image, Read-PDT) pair and every retired image a running
// transaction still pins.
type Manager struct {
	mu     sync.Mutex
	cond   *sync.Cond // broadcast when background maintenance completes
	schema *types.Schema

	cur      *version // current read view (immutable once installed)
	frozen   *pdt.PDT // write layer a background fold/checkpoint is consuming
	writePDT *pdt.PDT // master Write-PDT; SIDs in (cur.readPDT ∘ frozen) RID domain

	lsn       uint64 // LSN of this shard's last installed commit
	snapLSN   uint64 // lsn at which snapCache was taken
	snapCache *pdt.PDT

	// clock is the monotonic commit clock LSNs are allocated from. A
	// standalone manager owns a private clock (equivalent to the old
	// log-driven LSN sequence); the shards of one sharded table share a
	// single clock, so commit, recovery and CDC ordering stay total across
	// their independent WAL streams — each stream carries a gapped
	// subsequence of one global LSN order. shardID stamps this manager's
	// WAL records with its shard index.
	clock   *atomic.Uint64
	shardID uint32

	running   map[*Txn]struct{}
	committed []*committedTxn // Algorithm 9's TZ, in commit order

	// Commit sequencer (group commit): validated commits park here, in
	// commit (= LSN) order, until a leader makes a whole batch durable with
	// one WAL append. pending[:inflight] is the batch the current leader
	// round is flushing, or the cross-shard member it waits on; commitChain
	// is writePDT ∘ every uninstalled pending commit (nil when none are
	// parked), the base the next enqueued commit folds onto so install is a
	// single pointer swap.
	pending      []*commitReq
	inflight     int      // head of pending taken by the in-flight leader round
	commitChain  *pdt.PDT // fold of writePDT with every parked commit
	leaderActive bool     // a goroutine is running the sequencer loop

	storeRefs      map[*colstore.Store]int // live versions per stable image
	checkpointing  bool
	ckptWaiters    int   // callers blocked in Checkpoint; pauses fold re-arming
	ckptInstalling bool  // checkpoint swap waiting for the leader round to end
	maintErr       error // first background maintenance failure, sticky

	writeBudget uint64 // bytes before Write→Read propagation
	log         wal.Log
	cols        []int // every column, in order: what FindByKey reads
}

type committedTxn struct {
	serialized *pdt.PDT
	commitLSN  uint64
	refcnt     int
}

// commitReq is one validated commit parked on the sequencer: its serialized
// Trans-PDT (the WAL record body), the precomputed fold of the write chain
// including it, the LSN it took at enqueue, and the channel closed once it
// is installed or failed (err). Closing lead promotes the parked committer
// to flush leader (leadership handoff). A cross-shard commit parks one
// member per participant, sharing group, with no lead channel.
type commitReq struct {
	t          *Txn
	serialized *pdt.PDT
	folded     *pdt.PDT
	lsn        uint64
	group      *crossGroup // nil for a single-shard commit
	err        error
	done       chan struct{}
	lead       chan struct{}
}

// maxCommitBatch caps how many parked commits one leader round folds into a
// single WAL append (and fsync).
const maxCommitBatch = 128

// Options configures the manager.
type Options struct {
	// WriteBudget caps the Write-PDT's memory before its contents migrate
	// to the Read-PDT (the paper keeps the Write-PDT smaller than the CPU
	// cache). Zero selects 256 KiB.
	WriteBudget uint64
	// Log, when set, receives one record per commit (the WAL): an in-memory
	// wal.Writer, or a wal.FileLog for commit-durable operation.
	Log wal.Log
}

// NewManager takes ownership of a stable image and the Read-PDT over it (nil
// for an empty one): the pair becomes the first version transactions read,
// and from here on the manager publishes every later pair — after folds and
// checkpoints — and closes each image it retires (Close closes the rest).
// Nothing else may update readPDT.
func NewManager(store *colstore.Store, readPDT *pdt.PDT, opts Options) *Manager {
	if readPDT == nil {
		readPDT = pdt.New(store.Schema(), pdt.DefaultFanout)
	}
	budget := cmp.Or(opts.WriteBudget, 256<<10)
	m := &Manager{
		schema:      store.Schema(),
		cur:         &version{store: store, readPDT: readPDT},
		writePDT:    pdt.New(store.Schema(), pdt.DefaultFanout),
		running:     map[*Txn]struct{}{},
		writeBudget: budget,
		log:         opts.Log,
	}
	m.cond = sync.NewCond(&m.mu)
	m.storeRefs = map[*colstore.Store]int{m.cur.store: 1}
	if m.log != nil {
		// Continue an existing log's clock (a fresh writer starts at 0).
		m.lsn = m.log.LSN()
	}
	m.clock = new(atomic.Uint64)
	m.clock.Store(m.lsn)
	m.cols = make([]int, m.schema.NumCols())
	for i := range m.cols {
		m.cols[i] = i
	}
	return m
}

// raiseClock lifts c to at least lsn (it never rewinds).
func raiseClock(c *atomic.Uint64, lsn uint64) {
	for {
		cur := c.Load()
		if cur >= lsn || c.CompareAndSwap(cur, lsn) {
			return
		}
	}
}

// Store returns the current version's stable image (for stats and tests).
func (m *Manager) Store() *colstore.Store {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cur.store
}

// ReadPDT returns the current version's Read-PDT (for stats and tests).
func (m *Manager) ReadPDT() *pdt.PDT {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cur.readPDT
}

// WritePDT returns the current master Write-PDT (for stats and tests).
func (m *Manager) WritePDT() *pdt.PDT {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.writePDT
}

// LSN returns the commit clock: the LSN of the last durable commit.
func (m *Manager) LSN() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lsn
}

// DeltaCounts returns the insert/delete/modify entry totals buffered across
// the committed delta layers (Read-PDT, the in-flight frozen layer if any,
// and the master Write-PDT). The checkpoint scheduler's cost model uses them
// to estimate the dirty block set without folding anything.
func (m *Manager) DeltaCounts() (ins, del, mod int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, p := range []*pdt.PDT{m.cur.readPDT, m.frozen, m.writePDT} {
		if p == nil {
			continue
		}
		i, d, mo := p.Counts()
		ins, del, mod = ins+i, del+d, mod+mo
	}
	return ins, del, mod
}

// Begin starts a transaction with a private snapshot: the current version,
// the in-flight maintenance layer (if any), and an O(1) copy-on-write
// snapshot of the Write-PDT.
func (m *Manager) Begin() *Txn {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.snapCache == nil || m.snapLSN != m.lsn {
		// A commit happened since the last snapshot (or none exists): take a
		// fresh one. Transactions starting at the same logical time share it,
		// as §3.3 prescribes. Snapshot is O(1) — it shares the Write-PDT's
		// structure and later commits path-copy away from it.
		m.snapCache = m.writePDT.Snapshot()
		m.snapLSN = m.lsn
	}
	t := &Txn{
		mgr:       m,
		startLSN:  m.lsn,
		ver:       m.cur,
		frozen:    m.frozen,
		writeSnap: m.snapCache,
		trans:     pdt.New(m.schema, 0),
	}
	m.cur.refs++
	m.running[t] = struct{}{}
	return t
}

// finishLocked removes t from the running set, unpins its version and
// releases TZ references.
func (m *Manager) finishLocked(t *Txn) {
	delete(m.running, t)
	t.ver.refs--
	m.releaseVersionLocked(t.ver)
	kept := m.committed[:0]
	for _, c := range m.committed {
		if c.commitLSN > t.startLSN {
			c.refcnt--
		}
		if c.refcnt > 0 {
			kept = append(kept, c)
		}
	}
	m.committed = kept
}

// Recover rebuilds the committed state from WAL records (applied on top of
// the manager's current checkpointed state, in LSN order) and re-syncs both
// the commit clock and the attached WAL writer to the last durable LSN, so
// post-recovery commits continue the pre-crash sequence. The records must
// carry strictly ascending LSNs: a duplicated or reordered record would
// replay an update twice and rewind the clock. Each record is moved down
// into one copy-on-write snapshot of the Write-PDT by pdt.Apply, the size
// rule commits use (a record holding at least an eighth of the layer is
// bulk-folded, a smaller one propagated entry by entry, the paper's
// Algorithm 7, with no fork per record), and the result is installed only
// when the whole tail went in: replay costs what the tail holds, and a
// record that cannot be applied leaves the manager where Recover found it.
func (m *Manager) Recover(records []wal.Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	w, lsn := m.writePDT.Snapshot(), m.lsn
	for i, rec := range records {
		if i > 0 && rec.LSN <= lsn {
			return fmt.Errorf("txn: recover LSN %d: follows LSN %d; a tail's LSNs must ascend", rec.LSN, lsn)
		}
		p, err := pdt.Rebuild(m.schema, 0, rec.Entries)
		if err == nil {
			w, err = pdt.Apply(w, p)
		}
		if err != nil {
			return fmt.Errorf("txn: recover LSN %d: %w", rec.LSN, err)
		}
		lsn = rec.LSN
	}
	// A stream whose last records were dropped (an incomplete cross-shard
	// group) keeps its clock: their LSNs are spent.
	m.writePDT, m.lsn = w, max(lsn, m.lsn)
	if m.log != nil {
		m.log.SetLSN(m.lsn)
	}
	raiseClock(m.clock, m.lsn)
	return nil
}

// Txn is one transaction: a snapshot (pinned version, in-flight maintenance
// layer, Write-PDT copy) plus a private Trans-PDT of uncommitted updates.
type Txn struct {
	mgr       *Manager
	startLSN  uint64
	ver       *version
	frozen    *pdt.PDT // maintenance layer in flight at Begin, or nil
	writeSnap *pdt.PDT
	trans     *pdt.PDT
	commitLSN uint64 // LSN the group-commit leader assigned, once durable
	done      bool
}

// CommitLSN returns the log sequence number the transaction's commit record
// was assigned, valid once Commit has returned nil. It is 0 for aborted or
// failed transactions and for empty commits (which never consume an LSN).
func (t *Txn) CommitLSN() uint64 { return t.commitLSN }

// Schema returns the table schema (making Txn an engine.Relation: plans can
// be built directly over a transaction's view).
func (t *Txn) Schema() *types.Schema { return t.mgr.schema }

// layers is the transaction's PDT stack, bottom to top (Equation 9:
// TABLE₀ ∘ R ∘ W ∘ T, with the frozen maintenance layer — nil unless a fold
// was in flight at Begin — between R and W). Every reader of the
// transaction's view stacks exactly this list: scans, the prune pass's
// dirty-block gate, key probes and the row count.
func (t *Txn) layers() []*pdt.PDT {
	return []*pdt.PDT{t.ver.readPDT, t.frozen, t.writeSnap, t.trans}
}

// Scan returns the transaction's view of the key range as one source: the
// whole-range open of PartitionScan, which is where the pipeline is stated.
func (t *Txn) Scan(cols []int, loKey, hiKey types.Row) (pdt.BatchSource, error) {
	ps, err := t.PartitionScan(loKey, hiKey)
	if err != nil {
		return nil, err
	}
	return ps.OpenAll(cols)
}

// PartitionScan makes Txn an engine.PartRelation: a plan over a
// transaction's view opens each morsel as a range-clamped copy of the full
// Equation 9 stack over the pinned stable image. Every layer in the stack is
// immutable for the life of the transaction — the pinned version's Read-PDT,
// the frozen maintenance layer, the copy-on-write Write-PDT snapshot taken
// at Begin — except the private Trans-PDT, which only this transaction
// mutates; so workers may cursor through all four layers concurrently while
// commits, folds and checkpoints proceed elsewhere. Each PDT merge seeks its
// cursor to the morsel's start SID (carrying the running shift in) and
// chains its StartRID into the layer above (engine.StackPDTs); pruning gates
// on the pinned layers, so zone and index answers stay snapshot-consistent
// (engine.PartitionLayers).
func (t *Txn) PartitionScan(loKey, hiKey types.Row) (*engine.PartScan, error) {
	if t.done {
		return nil, ErrTxnDone
	}
	if err := t.mgr.schema.ValidateKey(loKey, true); err != nil {
		return nil, err
	}
	if err := t.mgr.schema.ValidateKey(hiKey, true); err != nil {
		return nil, err
	}
	return engine.PartitionLayers(t.ver.store, loKey, hiKey, t.layers()...), nil
}

// seek is the transaction's key probe: engine.Seek over the pinned image and
// the full Equation 9 layer stack, plus any layers the caller stacks on top (a
// statement's Query-PDT). cols names what to fetch of an exact hit beyond its
// position; writes that only need a RID pass nil.
func (t *Txn) seek(key types.Row, cols []int, above ...*pdt.PDT) (rid uint64, row types.Row, exact bool, err error) {
	if t.done {
		return 0, nil, false, ErrTxnDone
	}
	return engine.Seek(t.ver.store, key, cols, append(t.layers(), above...)...)
}

// FindByKey locates the visible tuple with the given (full) sort key in the
// transaction's snapshot, returning its RID and current column values.
func (t *Txn) FindByKey(key types.Row) (rid uint64, row types.Row, found bool, err error) {
	rid, row, found, err = t.seek(key, t.mgr.cols)
	if err != nil {
		return 0, nil, false, err
	}
	if !found {
		return 0, nil, false, nil
	}
	return rid, row, true, nil
}

// visibleRows returns the transaction's current row count.
func (t *Txn) visibleRows() uint64 {
	n := int64(t.ver.store.NRows())
	for _, l := range t.layers() {
		if l != nil {
			n += l.Delta()
		}
	}
	return uint64(n)
}

// Insert adds a tuple within the transaction: a one-op ApplyBatch.
func (t *Txn) Insert(row types.Row) error {
	_, err := t.ApplyBatch([]table.Op{{Kind: table.OpInsert, Row: row}})
	return err
}

// DeleteByKey removes the visible tuple with the given key: a one-op
// ApplyBatch, reporting whether the tuple existed.
func (t *Txn) DeleteByKey(key types.Row) (bool, error) {
	n, err := t.ApplyBatch([]table.Op{{Kind: table.OpDelete, Key: key}})
	return n == 1, err
}

// UpdateByKey sets one column of the visible tuple with the given key: a
// one-op ApplyBatch, or for a sort-key column a move of the tuple (rekey).
func (t *Txn) UpdateByKey(key types.Row, col int, val types.Value) (bool, error) {
	if !t.mgr.schema.IsSortKeyCol(col) {
		n, err := t.ApplyBatch([]table.Op{{Kind: table.OpUpdate, Key: key, Col: col, Val: val}})
		return n == 1, err
	}
	return t.rekey(key, col, val, func(types.Row) *Txn { return t })
}

// rekey is a sort-key update, expressed as delete+insert: it sets column col
// of the tuple with sort key key to val and moves the tuple to its new key —
// a delete here plus an insert into the transaction route picks for the new
// key (this one, or the sibling shard transaction owning it). One probe of
// the destination both proves the new key free, before anything is written,
// and places the insert, so a collision rejects the update with the old row
// still in place; the delete reuses the found RID, and within one
// transaction shifts the insert left by one when it lands past the deleted
// row.
func (t *Txn) rekey(key types.Row, col int, val types.Value, route func(newKey types.Row) *Txn) (bool, error) {
	rid, row, found, err := t.FindByKey(key)
	if err != nil || !found {
		return false, err
	}
	row[col] = val
	schema := t.mgr.schema
	newKey := schema.KeyOf(row)
	if err := schema.ValidateKey(newKey, false); err != nil {
		return false, err
	}
	dst := route(newKey)
	at := rid
	if dst != t || types.CompareRows(newKey, key) != 0 {
		var taken bool
		if at, _, taken, err = dst.seek(newKey, nil); err != nil {
			return false, err
		} else if taken {
			return false, fmt.Errorf("txn: %w %v", types.ErrDuplicateKey, newKey)
		}
		if dst == t && at > rid {
			at--
		}
	}
	if err := t.trans.Delete(rid, key); err != nil {
		return false, err
	}
	return true, dst.trans.Insert(at, row)
}

// Stack pins the transaction's view for a batch probe (table.ResolveOps): the
// pinned stable image under the full Equation 9 layer stack, in a slice with
// room for one layer more.
func (t *Txn) Stack() (*colstore.Store, []*pdt.PDT) {
	return t.ver.store, append(make([]*pdt.PDT, 0, 5), t.layers()...)
}

// ApplyBatch applies a batch of inserts, deletes and updates within the
// transaction, resolving every op's position in one forward pass of the key
// probe over the transaction's view (table.ResolveOps: a small window at each
// scattered key's lower bound, one window stretched over keys close together),
// and feeding the Trans-PDT in SID order (the paper's §6 bulk-load regime). It
// returns the number of ops that took effect: delete/update misses are
// skipped, a duplicate-key insert aborts the batch with the earlier ops
// already in the Trans-PDT (Abort discards them, as usual). Batch keys must
// be distinct, except that several updates may target one key; sort-key
// columns cannot be updated in a batch (see table.SortOps).
func (t *Txn) ApplyBatch(ops []table.Op) (int, error) {
	if t.done {
		return 0, ErrTxnDone
	}
	schema := t.mgr.schema
	sorted, err := table.SortOps(schema, ops)
	if err != nil {
		return 0, err
	}
	pos, err := table.ResolveOps(t, sorted)
	if err != nil {
		return 0, err
	}
	return table.ApplyOps(t.trans, schema, sorted, pos)
}

// Commit serializes the transaction against everything that committed during
// its lifetime (Algorithm 9) and folds it into the master Write-PDT. On
// conflict the transaction aborts and ErrConflict (wrapping the PDT-level
// detail) is returned. Commits are group-committed (commit, commitLeader):
// Begin, Scan and other commits' validation never wait behind an fsync, and
// a failed append or fsync aborts the whole batch and everything parked
// behind it, visible neither here nor at replay.
func (t *Txn) Commit() error {
	if t.done {
		return ErrTxnDone
	}
	lsn, err := commit([]*Txn{t}, nil)
	t.commitLSN = lsn
	return err
}

// commit is the one enqueue step of every commit, over its participants: one
// transaction per shard it wrote, in shard order (a single-shard commit is a
// list of one; s is nil for a standalone manager). Under the participants'
// mutexes, taken in shard order, it validates each transaction against its
// shard's queue, takes one LSN and parks one member per participant — so two
// cross-shard commits are queued in the same relative order on every shard
// they share (maintain.go). It then starts every idle sequencer's leader,
// the first inline and the rest on goroutines so the participants' fsyncs
// overlap, and waits for the commit to resolve. A commit with nothing to log
// takes no LSN and reports the first maintenance failure, as others do.
func commit(txs []*Txn, s *Sharded) (uint64, error) {
	var err error
	empty := true
	for _, t := range txs {
		t.mgr.mu.Lock()
		t.done = true
		if err == nil {
			err = t.mgr.maintErr
		}
		empty = empty && t.trans.Count() == 0
	}
	reqs := make([]*commitReq, len(txs))
	for i, t := range txs {
		if err != nil || empty {
			break
		}
		reqs[i] = &commitReq{t: t, done: make(chan struct{})}
		reqs[i].serialized, reqs[i].folded, err = t.mgr.validateLocked(t)
	}
	if err != nil || empty {
		for _, t := range txs {
			t.mgr.finishLocked(t)
			t.mgr.mu.Unlock()
		}
		return 0, err
	}
	var g *crossGroup
	if len(reqs) > 1 {
		g = &crossGroup{members: reqs, gate: &s.beginGate, left: len(reqs)}
		for _, r := range reqs {
			g.parts = append(g.parts, r.t.mgr.shardID)
			for _, q := range r.t.mgr.pending {
				if q.group != nil {
					g.earlier = append(g.earlier, q.done)
				}
			}
		}
	}
	lsn := txs[0].mgr.clock.Add(1)
	var lead []*commitReq
	for _, r := range reqs {
		m := r.t.mgr
		r.lsn, r.group = lsn, g
		if g == nil {
			r.lead = make(chan struct{})
		}
		m.pending = append(m.pending, r)
		m.commitChain = r.folded
		if !m.leaderActive {
			m.leaderActive = true
			lead = append(lead, r)
		}
	}
	for _, t := range txs {
		t.mgr.mu.Unlock()
	}

	for _, r := range lead[min(1, len(lead)):] {
		go r.t.mgr.commitLeader(r)
	}
	req := reqs[0]
	if len(lead) > 0 {
		lead[0].t.mgr.commitLeader(lead[0])
	} else if g == nil {
		// Park until the batch resolves or a handoff promotes this commit;
		// both can happen (a rebase failure after a handoff), and a dropped
		// handoff would leave every later commit with no one flushing.
		select {
		case <-req.lead:
		case <-req.done:
		}
		if isClosed(req.lead) {
			req.t.mgr.commitLeader(req)
		}
	}
	<-req.done
	if req.err != nil {
		return 0, req.err
	}
	return lsn, nil
}

// commitLeader is the sequencer loop, the one place the commit path appends
// to a WAL stream: whoever finds the sequencer idle at enqueue runs it,
// starting from its own parked commit `own`. Each round makes a batch
// durable with one WAL append (no manager lock held across the fsync), then
// installs it in LSN order and wakes its waiters. A batch ends at its first
// cross-shard member, which stays in flight until every participant has
// reported it durable: no record validated against it reaches this stream
// first, and no freeze or swap rebases it once durable. Once its own commit
// has resolved the leader hands the queue to the next parked committer, so
// no writer's Commit is held hostage flushing other writers' batches;
// between rounds it yields to a checkpointer waiting to freeze or swap.
func (m *Manager) commitLeader(own *commitReq) {
	m.mu.Lock()
	for {
		if len(m.pending) == 0 {
			m.leaderActive = false
			m.cond.Broadcast()
			m.mu.Unlock()
			return
		}
		if isClosed(own.done) {
			// The leader's own commit is resolved: hand the rest of the
			// queue to its head's committer, or a member's own goroutine.
			if next := m.pending[0]; next.lead != nil {
				close(next.lead)
			} else {
				go m.commitLeader(next)
			}
			m.mu.Unlock()
			return
		}
		if m.maintErr == nil &&
			(m.ckptInstalling || (m.ckptWaiters > 0 && !m.checkpointing && m.frozen == nil)) {
			// A checkpoint is ready to freeze the write layer or install a
			// finished image: let it take the round boundary (both are quick
			// locked operations; commits resume immediately after).
			m.cond.Broadcast()
			m.cond.Wait()
			continue
		}
		n := min(maxCommitBatch, len(m.pending))
		for i, r := range m.pending[:n] {
			if r.group != nil {
				n = i
				if r.group.earlierResolved(false) && r.group.failure() == nil {
					n++
				}
				break
			}
		}
		if n == 0 {
			// The head is a member that may not reach a stream yet: wait
			// off-lock for the earlier members queued ahead of it, or, once
			// its commit has failed elsewhere, abort it here unappended.
			g := m.pending[0].group
			if err := g.failure(); err != nil {
				m.failFromLocked(0, err)
				m.cond.Broadcast()
			} else {
				m.mu.Unlock()
				g.earlierResolved(true)
				m.mu.Lock()
			}
			continue
		}
		m.inflight = n
		batch := m.pending[:n:n]
		last := batch[n-1]
		m.mu.Unlock()

		// Off-lock: one append, one fsync, for the whole batch. On a failed
		// barrier the batch's LSNs are abandoned — the clock only moves
		// forward, recovery tolerates per-stream gaps, and this stream is
		// poisoned anyway.
		var err error
		if m.log != nil {
			recs := make([]wal.GroupRecord, len(batch))
			for i, r := range batch {
				recs[i] = wal.GroupRecord{LSN: r.lsn, Table: "table", Shard: m.shardID, Entries: r.serialized.Dump()}
				if r.group != nil {
					recs[i].Parts = r.group.parts
				}
			}
			err = m.log.AppendGroup(recs)
		}

		m.mu.Lock()
		switch {
		case err != nil:
			// Fail-stop for the whole batch — and for everything parked
			// behind it, whose folds and serializations chained onto the
			// failed commits (the poisoned log would refuse them anyway).
			m.failFromLocked(0, fmt.Errorf("txn: WAL append failed, aborting: %w", err))
		case last.group == nil:
			m.installBatchLocked(batch)
		default:
			m.installBatchLocked(batch[:n-1])
			m.inflight = 1 // the member, until every participant reports
			m.mu.Unlock()
			if last.group.report(nil) {
				last.group.resolve()
			}
			m.mu.Lock()
			for !isClosed(last.done) {
				m.cond.Wait()
			}
		}
		m.inflight = 0
		m.cond.Broadcast()
		m.maybeFoldLocked()
	}
}

// isClosed reports whether ch is closed (a commit's done: resolved).
func isClosed(ch chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// validateLocked is the validate step of every commit, single-shard or
// cross-shard (Algorithm 9): serialize t's Trans-PDT against everything ahead
// of it in the commit order — transactions that committed during its lifetime
// (the TZ members past startLSN), then commits parked on the sequencer
// (validated but not yet durable) — and fold the result onto the write chain.
// The parked dependency is safe under fail-stop: if their batch's fsync
// fails, they all abort and so does everything parked behind them. The whole
// overlap chain is resolved in a single SerializeChain sweep (one output
// build, one payload clone) instead of one Serialize rebuild per overlapping
// commit. The fold lands on the chain of parked commits, or on the Write-PDT
// itself when none are parked, so installing is one pointer swap; FoldSnap shares the base's structure
// copy-on-write when the layer is small — the common case — so the fold costs
// what the delta holds, not what the Write-PDT holds. A conflict returns
// ErrConflict wrapping the PDT-level detail. The caller finishes t on error.
func (m *Manager) validateLocked(t *Txn) (serialized, folded *pdt.PDT, err error) {
	chain := make([]*pdt.PDT, 0, len(m.committed)+len(m.pending))
	for _, c := range m.committed {
		if c.commitLSN > t.startLSN {
			chain = append(chain, c.serialized)
		}
	}
	for _, r := range m.pending {
		chain = append(chain, r.serialized)
	}
	serialized = t.trans
	if len(chain) > 0 {
		if serialized, err = serialized.SerializeChain(chain); err != nil {
			return nil, nil, fmt.Errorf("%w: %v", ErrConflict, err)
		}
	}
	base := m.commitChain
	if base == nil {
		base = m.writePDT
	}
	folded, err = pdt.FoldSnap(base, serialized)
	return serialized, folded, err
}

// installLocked is the install step of every commit: once t's record is
// durable at lsn the clock moves there, the Write-PDT advances to the fold
// validateLocked precomputed, t leaves the running set and its serialized
// delta joins the TZ set for the transactions still running.
func (m *Manager) installLocked(t *Txn, serialized, folded *pdt.PDT, lsn uint64) {
	m.lsn = lsn
	m.writePDT = folded
	m.finishLocked(t)
	if refs := len(m.running); refs > 0 {
		m.committed = append(m.committed, &committedTxn{
			serialized: serialized,
			commitLSN:  lsn,
			refcnt:     refs,
		})
	}
	m.snapCache = nil
}

// installBatchLocked makes a durable batch at the head of the queue
// visible: each member installs at its LSN, in order, and every waiter
// wakes.
func (m *Manager) installBatchLocked(batch []*commitReq) {
	for _, r := range batch {
		m.installLocked(r.t, r.serialized, r.folded, r.lsn)
	}
	m.dropHeadLocked(len(batch))
	for _, r := range batch {
		close(r.done)
	}
}

// dropHeadLocked removes the first n parked commits, installed or failed.
func (m *Manager) dropHeadLocked(n int) {
	m.pending = m.pending[n:]
	if len(m.pending) == 0 {
		m.pending = nil
		m.commitChain = nil
	}
}

// failFromLocked aborts pending[i:] with err: every commit from i on was
// validated and folded against the ones ahead of it, so none of them may
// become visible. A cross-shard member's failure is reported to its group
// here, and when it is the last report the group resolves from a fresh
// goroutine (resolving takes other shards' mutexes), aborting the member on
// every participant.
func (m *Manager) failFromLocked(i int, err error) {
	for _, r := range m.pending[i:] {
		m.finishLocked(r.t)
		if r.group != nil {
			if r.group.report(err) {
				go r.group.resolve()
			}
		} else {
			r.err = err
			close(r.done)
		}
	}
	if i == 0 {
		m.pending, m.commitChain = nil, nil
	} else {
		m.pending, m.commitChain = m.pending[:i], m.pending[i-1].folded
	}
}

// Abort discards the transaction. It returns any deferred background
// maintenance error (a failed fold or checkpoint) so callers that only ever
// abort still observe maintenance health.
func (t *Txn) Abort() error {
	if t.done {
		return nil
	}
	m := t.mgr
	m.mu.Lock()
	defer m.mu.Unlock()
	t.done = true
	m.finishLocked(t)
	return m.maintErr
}
