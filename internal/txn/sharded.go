package txn

// Shard-per-core writes: a table is partitioned into N >= 1 key-range shards,
// each a full Manager over its own physically split stable image, Write-PDT,
// group-commit sequencer and WAL stream. An unsharded table is the N = 1 case,
// not a different design: no split keys, every key routes to shard 0, every
// commit is single-shard. The Sharded coordinator owns what must stay global:
//
//   - one monotonic commit clock all shards take LSNs from, so commit,
//     recovery and replay ordering stay total across the independent WAL
//     streams (each stream carries a gapped subsequence of one LSN order);
//   - the key cuts routing every write to exactly one shard;
//   - the begin gate making cross-shard installs atomic against Begin.
//
// Every commit runs one pipeline (commit, in txn.go) over the shards it
// wrote. A single-shard commit joins its shard's sequencer with no
// coordination and no global lock, so writers on disjoint key ranges batch,
// fsync and install in parallel. A cross-shard commit takes one LSN L under
// all its participants' mutexes and is one member of each one's next batch:
// every participant's leader appends its record at L, naming the full
// participant set, and the last to make it durable installs it on all of
// them behind the begin gate (crossGroup). A crash between two
// participants' appends leaves an incomplete group that recovery drops on
// every stream (wal.CompleteGroups): all-or-nothing per clock entry.
import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"pdtstore/internal/engine"
	"pdtstore/internal/pdt"
	"pdtstore/internal/table"
	"pdtstore/internal/types"
)

// Sharded coordinates transactions over a table split into key-range shards,
// each owned by its own Manager. Construct with NewSharded before any shard
// manager is used; the coordinator rewires every manager onto one shared
// commit clock.
type Sharded struct {
	mgrs   []*Manager
	keys   []types.Row // len(mgrs)-1 ascending split keys; shard i owns [keys[i-1], keys[i])
	schema *types.Schema

	// clock is the global commit clock. Every commit takes its LSN here at
	// enqueue; a cross-shard commit takes one slot all participants share.
	clock *atomic.Uint64

	// beginGate orders snapshots against cross-shard installs: Begin pins its
	// per-shard snapshot vector under the read side, a cross-shard commit
	// installs on all participants under the write side, so no snapshot ever
	// observes a cross-shard commit on one shard but not another.
	beginGate sync.RWMutex
}

// NewSharded couples n shard managers into one sharded table. keys are the
// n-1 strictly ascending full-sort-key cuts: shard 0 owns keys below keys[0],
// shard i owns [keys[i-1], keys[i]), the last shard owns the rest. Each
// manager must already own its shard's physically split image and (for a
// durable table) its own WAL stream, and must not have started transactions:
// NewSharded rewires every manager onto one shared commit clock, seeded at
// the maximum of the shards' recovered LSNs.
func NewSharded(mgrs []*Manager, keys []types.Row) (*Sharded, error) {
	if len(mgrs) == 0 {
		return nil, fmt.Errorf("txn: sharded table needs at least one shard")
	}
	if len(keys) != len(mgrs)-1 {
		return nil, fmt.Errorf("txn: %d shards need %d split keys, got %d", len(mgrs), len(mgrs)-1, len(keys))
	}
	schema := mgrs[0].schema
	for i, k := range keys {
		if len(k) != len(schema.SortKey) {
			return nil, fmt.Errorf("txn: split key %d: need the full %d-column sort key", i, len(schema.SortKey))
		}
		if i > 0 && types.CompareRows(keys[i-1], k) >= 0 {
			return nil, fmt.Errorf("txn: split keys must be strictly ascending")
		}
	}
	s := &Sharded{mgrs: mgrs, keys: keys, schema: schema, clock: new(atomic.Uint64)}
	for i, m := range mgrs {
		raiseClock(s.clock, m.clock.Load())
		m.shardID = uint32(i)
		m.clock = s.clock
	}
	return s, nil
}

// Shards returns the shard count.
func (s *Sharded) Shards() int { return len(s.mgrs) }

// Shard returns shard i's manager.
func (s *Sharded) Shard(i int) *Manager { return s.mgrs[i] }

// Keys returns the split keys (shared; callers must not modify).
func (s *Sharded) Keys() []types.Row { return s.keys }

// Schema returns the table schema.
func (s *Sharded) Schema() *types.Schema { return s.schema }

// ShardOf returns the index of the shard owning key.
func (s *Sharded) ShardOf(key types.Row) int {
	return sort.Search(len(s.keys), func(i int) bool {
		return types.CompareRows(key, s.keys[i]) < 0
	})
}

// Clock returns the global commit clock: the highest LSN ever allocated
// across all shards (single-shard batches may still be in flight).
func (s *Sharded) Clock() uint64 { return s.clock.Load() }

// RaiseClock lifts the global clock to at least lsn. Recovery calls it with
// the manifest's checkpoint LSNs so post-recovery commits never reuse a spent
// slot even when every WAL stream was truncated.
func (s *Sharded) RaiseClock(lsn uint64) { raiseClock(s.clock, lsn) }

// Checkpoint checkpoints every shard, one at a time (each shard's checkpoint
// is online; commits keep flowing on all shards throughout, cross-shard ones
// included: a shard's image swap waits for a member in flight there, and no
// commit waits for a build).
func (s *Sharded) Checkpoint() error {
	for _, m := range s.mgrs {
		if err := m.Checkpoint(); err != nil {
			return err
		}
	}
	return nil
}

// WaitMaintenance waits out background folds and checkpoints on every shard.
func (s *Sharded) WaitMaintenance() error {
	for _, m := range s.mgrs {
		if err := m.WaitMaintenance(); err != nil {
			return err
		}
	}
	return nil
}

// Begin starts a transaction spanning every shard: a vector of per-shard
// snapshots pinned under the begin gate, so no cross-shard commit is ever
// partially visible (single-shard commits are one-shard atomic either way).
// Each per-shard snapshot is the usual O(1) copy-on-write Begin; a commit on
// one shard never forces the others to rebuild their cached snapshots.
func (s *Sharded) Begin() *STxn {
	s.beginGate.RLock()
	defer s.beginGate.RUnlock()
	txns := make([]*Txn, len(s.mgrs))
	for i, m := range s.mgrs {
		txns[i] = m.Begin()
	}
	return &STxn{s: s, txns: txns}
}

// STxn is one transaction over a sharded table: a vector of per-shard
// transactions plus the routing to drive them. Reads concatenate the shards'
// merged pipelines in key order (shard order IS key order) with globally
// consecutive RIDs; writes route to the owning shard by key.
type STxn struct {
	s         *Sharded
	txns      []*Txn
	commitLSN uint64
	done      bool
}

// CommitLSN returns the global clock slot the commit was assigned, valid
// once Commit has returned nil (0 for aborted, failed or empty commits).
func (t *STxn) CommitLSN() uint64 { return t.commitLSN }

// ShardTxn returns the per-shard transaction for shard i (stats and tests).
func (t *STxn) ShardTxn(i int) *Txn { return t.txns[i] }

// Schema returns the table schema (STxn is an engine.Relation).
func (t *STxn) Schema() *types.Schema { return t.s.schema }

// Scan returns the transaction's view of the key range as one source: the
// whole-range open of PartitionScan — the shards' merged pipelines
// concatenated in shard (= key) order, each shifted so RIDs are globally
// consecutive.
func (t *STxn) Scan(cols []int, loKey, hiKey types.Row) (pdt.BatchSource, error) {
	ps, err := t.PartitionScan(loKey, hiKey)
	if err != nil {
		return nil, err
	}
	return ps.OpenAll(cols)
}

// PartitionScan makes STxn an engine.PartRelation: the shards' clamped scan
// ranges are laid out end to end in one compacted domain, with a hard cut at
// every shard boundary, so each morsel falls entirely inside one shard and
// opens that shard's pipeline alone — a parallel scan's workers fan out
// across shards without any morsel straddling two Write-PDT stacks. RIDs
// stay globally consecutive: shard i's local RID r surfaces as r plus the
// visible row counts of the shards before it. A shard
// whose clamped stable range is empty still owns a zero-width slot (its
// delta layers can hold qualifying inserts); the morsel starting at that
// slot's position — or the domain's last morsel, for a slot at the very end —
// scans it.
func (t *STxn) PartitionScan(loKey, hiKey types.Row) (*engine.PartScan, error) {
	if t.done {
		return nil, ErrTxnDone
	}
	type seg struct {
		start  uint64 // position in the compacted domain
		width  uint64
		ps     *engine.PartScan
		ridOff uint64
	}
	segs := make([]seg, 0, len(t.txns))
	var pos, ridOff uint64
	unit := 1
	var cuts []uint64
	for _, tx := range t.txns {
		ps, err := tx.PartitionScan(loKey, hiKey)
		if err != nil {
			return nil, err
		}
		w := ps.Hi - ps.Lo
		if w > 0 && pos > 0 {
			cuts = append(cuts, pos)
		}
		segs = append(segs, seg{start: pos, width: w, ps: ps, ridOff: ridOff})
		pos += w
		ridOff += tx.visibleRows()
		if ps.Unit > unit {
			unit = ps.Unit
		}
	}
	domainHi := pos
	return &engine.PartScan{Lo: 0, Hi: domainHi, Unit: unit, Cuts: cuts,
		// Pruning composes per shard: each shard prunes its own clamped range
		// against its pinned snapshot, and the kept ranges are translated into
		// the compacted domain. A zero-width slot always survives as a
		// zero-width range (its delta layers can hold qualifying inserts);
		// a shard that declines keeps its whole slot.
		Prune: func(preds []engine.Pred) *engine.PruneResult {
			res := &engine.PruneResult{}
			any := false
			for _, sg := range segs {
				if sg.width == 0 {
					res.Ranges = append(res.Ranges, engine.SIDRange{Lo: sg.start, Hi: sg.start})
					continue
				}
				var sub *engine.PruneResult
				if sg.ps.Prune != nil {
					sub = sg.ps.Prune(preds)
				}
				if sub == nil {
					res.Ranges = append(res.Ranges, engine.SIDRange{Lo: sg.start, Hi: sg.start + sg.width})
					nb := int((sg.width + uint64(unit) - 1) / uint64(unit))
					res.Total += nb
					res.Kept += nb
					continue
				}
				any = true
				res.Total += sub.Total
				res.Kept += sub.Kept
				res.ZoneSkips += sub.ZoneSkips
				res.IndexSkips += sub.IndexSkips
				for _, r := range sub.Ranges {
					res.Ranges = append(res.Ranges, engine.SIDRange{
						Lo: sg.start + (r.Lo - sg.ps.Lo),
						Hi: sg.start + (r.Hi - sg.ps.Lo),
					})
				}
			}
			if !any {
				return nil
			}
			return res
		},
		Open: func(cols []int, mlo, mhi uint64, last, ahead bool) (pdt.BatchSource, error) {
			srcs := make([]pdt.BatchSource, 0, len(segs))
			for _, sg := range segs {
				var slo, shi uint64
				switch {
				case sg.width == 0:
					// Owned by the morsel starting at this slot, or by the
					// final morsel for a slot at the domain's end.
					if sg.start != mlo && !(last && sg.start == domainHi) {
						continue
					}
					slo, shi = sg.ps.Lo, sg.ps.Lo
				case sg.start <= mlo && mlo < mhi && mhi <= sg.start+sg.width:
					slo = sg.ps.Lo + (mlo - sg.start)
					shi = sg.ps.Lo + (mhi - sg.start)
				default:
					continue
				}
				// The shard's own end boundary decides includeEnd: the morsel
				// reaching the shard's clamped Hi owns the delta entries
				// sitting exactly there, whatever its global position.
				inner, err := sg.ps.Open(cols, slo, shi, shi == sg.ps.Hi, ahead)
				if err != nil {
					return nil, err
				}
				srcs = append(srcs, engine.OffsetRids(inner, sg.ridOff))
			}
			return engine.Concat(srcs...), nil
		}}, nil
}

// FindByKey locates the visible tuple with the given (full) sort key,
// routing the probe to the owning shard and returning the RID in the global
// concatenated coordinate space (shard-local RID plus the visible row counts
// of all earlier shards — the same offsets Scan applies).
func (t *STxn) FindByKey(key types.Row) (rid uint64, row types.Row, found bool, err error) {
	if t.done {
		return 0, nil, false, ErrTxnDone
	}
	if err := t.s.schema.ValidateKey(key, false); err != nil {
		return 0, nil, false, err
	}
	home := t.s.ShardOf(key)
	rid, row, found, err = t.txns[home].FindByKey(key)
	if err != nil || !found {
		return 0, nil, false, err
	}
	for i := 0; i < home; i++ {
		rid += t.txns[i].visibleRows()
	}
	return rid, row, true, nil
}

// Insert adds a tuple to the shard owning its key: a one-op ApplyBatch.
func (t *STxn) Insert(row types.Row) error {
	_, err := t.ApplyBatch([]table.Op{{Kind: table.OpInsert, Row: row}})
	return err
}

// DeleteByKey removes the visible tuple with the given key: a one-op
// ApplyBatch.
func (t *STxn) DeleteByKey(key types.Row) (bool, error) {
	n, err := t.ApplyBatch([]table.Op{{Kind: table.OpDelete, Key: key}})
	return n == 1, err
}

// UpdateByKey sets one column of the visible tuple with the given key: a
// one-op ApplyBatch, or for a sort-key column a move of the tuple. A move
// whose new key lands on a different shard becomes a delete on the source
// shard plus an insert on the destination — one transaction, so Commit makes
// the move atomic (cross-shard, when the two shards differ).
func (t *STxn) UpdateByKey(key types.Row, col int, val types.Value) (bool, error) {
	if !t.s.schema.IsSortKeyCol(col) {
		n, err := t.ApplyBatch([]table.Op{{Kind: table.OpUpdate, Key: key, Col: col, Val: val}})
		return n == 1, err
	}
	if t.done {
		return false, ErrTxnDone
	}
	if err := t.s.schema.ValidateKey(key, false); err != nil {
		return false, err
	}
	return t.txns[t.s.ShardOf(key)].rekey(key, col, val, func(newKey types.Row) *Txn {
		return t.txns[t.s.ShardOf(newKey)]
	})
}

// ApplyBatch splits the batch by owning shard and applies each run with the
// per-shard bulk path (one forward key-probe pass over the shard's view,
// Trans-PDT fed in SID order). Per-shard semantics match Txn.ApplyBatch; the
// effect count sums across shards.
func (t *STxn) ApplyBatch(ops []table.Op) (int, error) {
	if t.done {
		return 0, ErrTxnDone
	}
	if len(t.txns) == 1 {
		return t.txns[0].ApplyBatch(ops)
	}
	byShard := make([][]table.Op, len(t.txns))
	for _, op := range ops {
		key, err := op.Target(t.s.schema)
		if err != nil {
			return 0, err
		}
		i := t.s.ShardOf(key)
		byShard[i] = append(byShard[i], op)
	}
	total := 0
	for i, part := range byShard {
		if len(part) == 0 {
			continue
		}
		n, err := t.txns[i].ApplyBatch(part)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Abort discards the transaction on every shard.
func (t *STxn) Abort() error {
	if t.done {
		return nil
	}
	t.done = true
	var err error
	for _, tx := range t.txns {
		if aerr := tx.Abort(); err == nil {
			err = aerr
		}
	}
	return err
}

// Commit commits the transaction through the one commit pipeline over the
// shards it wrote. A transaction that wrote a single shard batches and fsyncs
// with that shard's other writers, independent of the rest of the table; one
// that wrote several is one member of each participant's batch, installed on
// all of them at once. An empty commit consumes no clock slot and reports the
// first shard's maintenance failure, as Txn.Commit does.
func (t *STxn) Commit() error {
	if t.done {
		return ErrTxnDone
	}
	t.done = true
	var parts []*Txn
	for _, tx := range t.txns {
		if tx.trans.Count() > 0 {
			parts = append(parts, tx)
		}
	}
	if len(parts) == 0 {
		parts = t.txns // nothing to log: commit only finishes them
	} else {
		for _, tx := range t.txns {
			if tx.trans.Count() == 0 {
				tx.Abort()
			}
		}
	}
	lsn, err := commit(parts, t.s)
	t.commitLSN = lsn
	return err
}

// crossGroup is what the members of one cross-shard commit share: one
// commitReq per participant (in shard order), each parked on its own shard's
// queue, and the participant set every member's WAL record names. A failed
// commit may leave orphan records on some streams, which recovery drops only
// while every shard lacking the record stays below its LSN. So a member
// reaches no stream while a member queued ahead of it on a participant is
// unresolved (that one's failure would abort it on a healthy shard), and a
// shard failing a member that may be durable elsewhere stops committing: its
// log is poisoned (a failed append) or the shard wedged (a failed rebase).
type crossGroup struct {
	members []*commitReq
	parts   []uint32
	gate    *sync.RWMutex
	earlier []chan struct{} // done of every member queued ahead at enqueue

	mu   sync.Mutex
	left int   // participants yet to report
	err  error // first participant failure
}

// earlierResolved reports whether every member queued ahead of g's at
// enqueue has resolved, first waiting for them when wait is set. A member
// that fails records the failure on those behind it before it resolves.
func (g *crossGroup) earlierResolved(wait bool) bool {
	for _, done := range g.earlier {
		if wait {
			<-done
		} else if !isClosed(done) {
			return false
		}
	}
	return true
}

// failure returns the first participant failure, if any.
func (g *crossGroup) failure() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}

// report records one participant's outcome for its member — durable (nil)
// or failed — and reports whether it was the last, whose caller must then
// resolve the group holding no manager mutex.
func (g *crossGroup) report(err error) (last bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if err != nil && g.err == nil {
		g.err = err
	}
	g.left--
	return g.left == 0
}

// resolve ends the commit on every participant: when every stream holds the
// record it installs each member behind the begin gate (the gate, then each
// mutex in shard order); otherwise each member still parked (durable there,
// its leader waiting) aborts with everything queued behind it.
func (g *crossGroup) resolve() {
	err := g.failure()
	if err == nil {
		g.gate.Lock()
		defer g.gate.Unlock()
	}
	for _, r := range g.members {
		r.t.mgr.mu.Lock()
	}
	for _, r := range g.members {
		m := r.t.mgr
		switch {
		case err == nil:
			m.installLocked(r.t, r.serialized, r.folded, r.lsn)
			m.dropHeadLocked(1)
		case len(m.pending) > 0 && m.pending[0] == r:
			m.failFromLocked(1, err)
			m.finishLocked(r.t)
			m.dropHeadLocked(1)
		}
		m.cond.Broadcast()
	}
	for _, r := range g.members {
		r.err = err
		close(r.done)
		r.t.mgr.mu.Unlock()
	}
}

// Err returns the sticky maintenance failure that wedged the manager, if any.
func (m *Manager) Err() error {
	m.mu.Lock()
	err := m.maintErr
	m.mu.Unlock()
	return err
}
