package pdtstore

// A small-scope check of the durable store (Jackson's small-scope
// hypothesis): every history of at most k steps over n = 2 stable rows (with
// a committed modify of each in the WAL tail) runs
// against a fresh store, at 1 and 2 shards, with secondary indexes on and
// off, and every read is judged against one row model. A step is a write of
// one of two transactions (insert, delete, modify of one column, or re-key), a
// commit, an abort, a checkpoint of every shard or of one (checkpointLocked,
// as the scheduler runs it), a crash-and-reopen, or a commit that crashes at
// its last WAL fsync — which, across shards, tears the group. A transaction
// begins at its first write, so two transactions writing before either
// commits share a snapshot, and §3.3's write-write rule (tuple-level write
// sets, modifies of different columns reconcile) decides which commit
// fails. Each history then commits what is still open, checkpoints, and
// crashes and reopens once more, so every history is also judged after
// recovery.

import (
	"errors"
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pdtstore/internal/engine"
	"pdtstore/internal/txn"
	"pdtstore/internal/types"
	"pdtstore/internal/vfs"
)

// ssKeys is the key domain: 10 and 30 are the stable rows, 20 is inserted
// between them. At 2 shards the cut is 20, so 10 lives on shard 0 and the
// others on shard 1, and re-keying 10 to 20 is a cross-shard commit.
var ssKeys = []int64{10, 20, 30}

type ssKind int

const (
	ssIns ssKind = iota
	ssDel
	ssMod
	ssRekey
	ssCommit
	ssAbort
	ssCheckpoint
	ssCrash
	ssCommitCrash
)

// ssStep is one step of a history: tx is the transaction slot (0 or 1), key
// and col the written cell, shard the checkpointed shard (-1: all).
type ssStep struct {
	kind  ssKind
	tx    int
	key   int64
	col   int
	shard int
}

var ssNames = [...]string{"ins", "del", "mod", "rekey", "commit", "abort", "checkpoint", "crash", "commit!crash"}

func (s ssStep) String() string {
	return fmt.Sprintf("%c.%s(%d,%d,%d)", 'A'+s.tx, ssNames[s.kind], s.key, s.col, s.shard)
}

// ssWrites is a transaction's write set on one key, in its snapshot's terms.
type ssWrites struct {
	del  bool         // deleted the snapshot's tuple
	ins  bool         // holds an inserted tuple
	mods map[int]bool // columns modified on the snapshot's tuple
}

// logged reports whether the write set leaves anything to log.
func (w *ssWrites) logged() bool { return w.del || w.ins || len(w.mods) > 0 }

// shardsLogged returns the shards t's commit appends a record to.
func (t *ssTx) shardsLogged(shards int) map[int]bool {
	out := map[int]bool{}
	for k, w := range t.w {
		if w.logged() {
			out[min(shards-1, int(k/20))] = true
		}
	}
	return out
}

// ssTx is the model of one open transaction.
type ssTx struct {
	start int                 // commits before it began
	view  map[int64]types.Row // its snapshot plus its own writes
	w     map[int64]*ssWrites
}

// ssModel is the row model: the committed rows, the commit log the
// write-write rule reads, and the two transaction slots.
type ssModel struct {
	rows    map[int64]types.Row
	commits []map[int64]*ssWrites
	tx      [2]*ssTx
	serial  int64 // makes every written value unique
}

// newSSModel is the base every history starts from: the stable rows
// checkpointed with n = 1 and 3, then a committed modify of each to 11 and
// 33 in the WAL tail.
func newSSModel() *ssModel {
	return &ssModel{rows: map[int64]types.Row{
		10: {types.Int(10), types.Str("s10"), types.Int(11)},
		30: {types.Int(30), types.Str("s30"), types.Int(33)},
	}}
}

func (m *ssModel) clone() *ssModel {
	c := &ssModel{rows: maps.Clone(m.rows), commits: m.commits, serial: m.serial}
	for i, t := range m.tx {
		if t != nil {
			ct := &ssTx{start: t.start, view: maps.Clone(t.view), w: map[int64]*ssWrites{}}
			for k, w := range t.w {
				cw := *w
				cw.mods = maps.Clone(w.mods)
				ct.w[k] = &cw
			}
			c.tx[i] = ct
		}
	}
	return c
}

// steps lists the steps valid in m: writes that the transaction's view
// admits, commits and aborts of transactions that wrote, checkpoints, and
// crashes. B writes only while A is open (so the two are never alone in the
// roles the other could play), and B alone also modifies column 1, so
// modifies of different columns meet.
func (m *ssModel) steps(shards int) []ssStep {
	var out []ssStep
	for tx := 0; tx < 2; tx++ {
		view := m.rows
		if t := m.tx[tx]; t != nil {
			view = t.view
		}
		for _, k := range ssKeys {
			if tx == 1 && m.tx[0] == nil {
				break // B writes only while A is open
			}
			if _, ok := view[k]; !ok {
				out = append(out, ssStep{kind: ssIns, tx: tx, key: k})
				continue
			}
			out = append(out, ssStep{kind: ssDel, tx: tx, key: k}, ssStep{kind: ssMod, tx: tx, key: k, col: 2})
			if _, taken := view[k+10]; !taken && k < 30 {
				out = append(out, ssStep{kind: ssRekey, tx: tx, key: k})
			}
			if tx == 1 {
				out = append(out, ssStep{kind: ssMod, tx: tx, key: k, col: 1})
			}
		}
		if t := m.tx[tx]; t != nil {
			out = append(out, ssStep{kind: ssCommit, tx: tx})
			if len(t.shardsLogged(shards)) > 1 {
				out = append(out, ssStep{kind: ssCommitCrash, tx: tx})
			}
			if tx == 0 {
				out = append(out, ssStep{kind: ssAbort, tx: tx})
			}
		}
	}
	out = append(out, ssStep{kind: ssCheckpoint, shard: -1}, ssStep{kind: ssCrash})
	for s := 0; s < shards && shards > 1; s++ {
		out = append(out, ssStep{kind: ssCheckpoint, shard: s})
	}
	return out
}

// write applies one write step to its transaction, beginning it if needed.
func (m *ssModel) write(s ssStep) types.Row {
	t := m.tx[s.tx]
	if t == nil {
		t = &ssTx{start: len(m.commits), view: maps.Clone(m.rows), w: map[int64]*ssWrites{}}
		m.tx[s.tx] = t
	}
	w := t.w[s.key]
	if w == nil {
		w = &ssWrites{mods: map[int]bool{}}
		t.w[s.key] = w
	}
	m.serial++
	switch s.kind {
	case ssIns:
		row := types.Row{types.Int(s.key), types.Str(fmt.Sprintf("i%d", m.serial)), types.Int(100 + m.serial)}
		t.view[s.key], w.ins = row, true
		return row
	case ssDel, ssRekey:
		row := append(types.Row{types.Int(s.key + 10)}, t.view[s.key][1:]...)
		delete(t.view, s.key)
		if w.ins {
			w.ins = false // deleting its own insert leaves no trace
		} else {
			w.del, w.mods = true, map[int]bool{}
		}
		if s.kind == ssRekey {
			// A re-key deletes the tuple and inserts it at its new key.
			nw := t.w[s.key+10]
			if nw == nil {
				nw = &ssWrites{mods: map[int]bool{}}
				t.w[s.key+10] = nw
			}
			t.view[s.key+10], nw.ins = row, true
			return row
		}
	case ssMod:
		row := append(types.Row(nil), t.view[s.key]...)
		row[s.col] = ssValue(s.col, m.serial)
		t.view[s.key] = row
		if !w.ins {
			w.mods[s.col] = true
		}
		return row
	}
	return nil
}

func ssValue(col int, serial int64) types.Value {
	if col == 1 {
		return types.Str(fmt.Sprintf("m%d", serial))
	}
	return types.Int(1000 + serial)
}

// conflicts is §3.3's write-write rule: t's write set against every commit
// that landed after t began.
func (m *ssModel) conflicts(t *ssTx) bool {
	for _, c := range m.commits[t.start:] {
		for k, x := range t.w {
			y := c[k]
			if y == nil {
				continue
			}
			if x.ins && y.ins || y.del && (x.del || len(x.mods) > 0) || len(y.mods) > 0 && x.del {
				return true
			}
			for col := range x.mods {
				if y.mods[col] {
					return true
				}
			}
		}
	}
	return false
}

// commit ends transaction slot tx: it reports whether the commit must fail,
// and otherwise installs the write set column by column.
func (m *ssModel) commit(tx int) (ok bool) {
	t := m.tx[tx]
	m.tx[tx] = nil
	if m.conflicts(t) {
		return false
	}
	for k, w := range t.w {
		switch {
		case w.ins:
			m.rows[k] = t.view[k]
		case w.del:
			delete(m.rows, k)
		case len(w.mods) > 0:
			row := append(types.Row(nil), m.rows[k]...)
			for col := range w.mods {
				row[col] = t.view[k][col]
			}
			m.rows[k] = row
		}
	}
	m.commits = append(m.commits[:len(m.commits):len(m.commits)], t.w)
	return true
}

// ssHistories enumerates every history of 1..k steps the model admits.
func ssHistories(shards, k int) [][]ssStep {
	var out [][]ssStep
	var walk func(m *ssModel, h []ssStep)
	walk = func(m *ssModel, h []ssStep) {
		if len(h) > 0 {
			out = append(out, h)
		}
		if len(h) == k {
			return
		}
		for _, s := range m.steps(shards) {
			next := m.clone()
			next.apply(s)
			walk(next, append(h[:len(h):len(h)], s))
		}
	}
	walk(newSSModel(), nil)
	return out
}

// apply advances the model alone (for enumeration).
func (m *ssModel) apply(s ssStep) {
	switch s.kind {
	case ssIns, ssDel, ssMod, ssRekey:
		m.write(s)
	case ssCommit:
		m.commit(s.tx)
	case ssAbort:
		m.tx[s.tx] = nil
	case ssCrash, ssCommitCrash:
		m.tx = [2]*ssTx{}
	}
}

// ssRun is one history under execution: the store, its file system, the
// live transactions and the model they must match.
type ssRun struct {
	t      *testing.T
	dir    string
	opts   Options
	fs     *memFS
	db     *DB
	txs    [2]Tx
	m      *ssModel
	label  string
	shards int
}

func (r *ssRun) fatalf(format string, args ...any) {
	r.t.Helper()
	r.t.Fatalf("%s: %s", r.label, fmt.Sprintf(format, args...))
}

func (r *ssRun) reopen() {
	r.t.Helper()
	r.db.crash()
	r.fs.reboot()
	r.txs = [2]Tx{}
	r.m.tx = [2]*ssTx{}
	db, err := Open(r.dir, r.opts)
	if err != nil {
		r.fatalf("reopen: %v", err)
	}
	r.db = db
}

func (r *ssRun) step(s ssStep) {
	r.t.Helper()
	m := r.m
	switch s.kind {
	case ssIns, ssDel, ssMod, ssRekey:
		if r.txs[s.tx] == nil {
			r.txs[s.tx] = r.db.Begin()
		}
		tx, key := r.txs[s.tx], types.Row{types.Int(s.key)}
		row := m.write(s)
		var err error
		ok := true
		switch s.kind {
		case ssIns:
			err = tx.Insert(row)
		case ssDel:
			ok, err = tx.DeleteByKey(key)
		case ssMod:
			ok, err = tx.UpdateByKey(key, s.col, row[s.col])
		case ssRekey:
			ok, err = tx.UpdateByKey(key, 0, row[0])
		}
		if err != nil || !ok {
			r.fatalf("%v = %v, %v", s, ok, err)
		}
	case ssCommit:
		err := r.txs[s.tx].Commit()
		r.txs[s.tx] = nil
		if want := m.commit(s.tx); want != (err == nil) || !want && !errors.Is(err, txn.ErrConflict) {
			r.fatalf("%v = %v; the write-write rule says commit ok = %v", s, err, want)
		}
	case ssAbort:
		r.txs[s.tx].Abort()
		r.txs[s.tx], m.tx[s.tx] = nil, nil
	case ssCheckpoint:
		var only []bool
		if s.shard >= 0 {
			only = make([]bool, r.shards)
			only[s.shard] = true
		}
		r.db.mu.Lock()
		err := r.db.checkpointLocked(only)
		r.db.mu.Unlock()
		if err != nil {
			r.fatalf("%v: %v", s, err)
		}
	case ssCrash:
		r.reopen()
	case ssCommitCrash:
		parts := m.tx[s.tx].shardsLogged(r.shards)
		var syncs atomic.Int32
		r.fs.at = func(op fsOp) fault {
			if op.kind == "sync" && strings.Contains(op.path, "wal") {
				if syncs.Add(1) == int32(len(parts)) {
					return crashOp
				}
			}
			return pass
		}
		if err := r.txs[s.tx].Commit(); err == nil {
			r.fatalf("%v: the commit survived its crash", s)
		}
		r.reopen()
	}
}

// judge checks reads of view through tx, each row with its RID: FindByKey
// of every key in the domain and a pruned serial scan, and with all set a
// key-range and an equality scan besides, each pruned and NoPrune, serial
// and parallel.
func (r *ssRun) judge(tx Tx, view map[int64]types.Row, what string, all bool) {
	r.t.Helper()
	keys := make([]int64, 0, len(view))
	for k := range view {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	// want lists the view's rows keep admits, each at its RID in the view.
	want := func(keep func(types.Row) bool) (rids []uint64, rows []types.Row) {
		for rid, k := range keys {
			if keep(view[k]) {
				rids, rows = append(rids, uint64(rid)), append(rows, view[k])
			}
		}
		return rids, rows
	}
	n10 := int64(-1)
	if row, ok := view[10]; ok {
		n10 = row[2].I
	}
	plans := []struct {
		name string
		plan func() *engine.Plan
		keep func(types.Row) bool
	}{
		{"scan", func() *engine.Plan { return engine.Scan(tx, 0, 1, 2) }, func(types.Row) bool { return true }},
		{"key range", func() *engine.Plan { return engine.Scan(tx, 0, 1, 2).FilterInt64Range(0, 15, 35) },
			func(row types.Row) bool { return row[0].I >= 15 && row[0].I <= 35 }},
		{"n equality", func() *engine.Plan { return engine.Scan(tx, 0, 1, 2).FilterInt64Eq(2, n10) },
			func(row types.Row) bool { return row[2].I == n10 }},
	}
	variants := []string{"pruned", "NoPrune", "parallel"}
	if !all {
		plans, variants = plans[:1], variants[:1]
	}
	for _, p := range plans {
		rids, rows := want(p.keep)
		for _, variant := range variants {
			plan := p.plan().WithRids().BatchSize(2)
			switch variant {
			case "NoPrune":
				plan = plan.NoPrune()
			case "parallel":
				plan = plan.Parallel(2)
			}
			b, err := plan.Collect()
			if err != nil {
				r.fatalf("%s: %s %s: %v", what, variant, p.name, err)
			}
			same := b.Len() == len(rows)
			for i := 0; same && i < len(rows); i++ {
				same = b.Rids[i] == rids[i] && types.CompareRows(b.Row(i), rows[i]) == 0
			}
			if !same {
				r.fatalf("%s: %s %s =\n%swant RIDs %v of %v", what, variant, p.name, dumpBatch(b), rids, rows)
			}
		}
	}
	for _, k := range ssKeys {
		rid, row, found, err := tx.FindByKey(types.Row{types.Int(k)})
		wantRow, ok := view[k]
		rank := sort.Search(len(keys), func(i int) bool { return keys[i] >= k })
		if err != nil || found != ok || ok && (rid != uint64(rank) || types.CompareRows(row, wantRow) != 0) {
			r.fatalf("%s: FindByKey(%d) = %d %v %v %v; want %d %v %v", what, k, rid, row, found, err, rank, wantRow, ok)
		}
	}
}

// judgeFresh judges a transaction begun now against the committed rows.
func (r *ssRun) judgeFresh(what string, all bool) {
	r.t.Helper()
	tx := r.db.Begin()
	defer tx.Abort()
	r.judge(tx, r.m.rows, what, all)
}

// TestSmallScopeStore runs every history of at most k = 3 steps at 1 and 2
// shards, with indexes off and on. -short, and the race detector, run k = 2
// with indexes on (whose NoPrune reads are the unindexed ones).
func TestSmallScopeStore(t *testing.T) {
	k, indexes := 3, []bool{false, true}
	if testing.Short() || raceBuild {
		k, indexes = 2, []bool{true}
	}
	for _, shards := range []int{1, 2} {
		for _, indexed := range indexes {
			t.Run(fmt.Sprintf("shards=%d/indexes=%v", shards, indexed), func(t *testing.T) {
				histories := ssHistories(shards, k)
				start := time.Now()
				testSmallScope(t, shards, indexed, histories)
				t.Logf("%d histories of <= %d steps in %v", len(histories), k, time.Since(start))
			})
		}
	}
}

func testSmallScope(t *testing.T, shards int, indexed bool, histories [][]ssStep) {
	dir := t.TempDir()
	opts := Options{Schema: dbSchema, BlockRows: 1, Compressed: true}
	if shards > 1 {
		opts.Shards, opts.ShardKeys = shards, []types.Row{{types.Int(20)}}
	}
	if indexed {
		opts.IndexColumns = []int{1, 2}
	}
	// The base (newSSModel), on a file system each history starts from a
	// copy of.
	base := installMemFS(t)
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	rows := newSSModel().rows
	tx := db.Begin()
	for _, k := range []int64{10, 30} {
		if err := tx.Insert(types.Row{types.Int(k), rows[k][1], types.Int(k / 10)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tx = db.Begin()
	for _, k := range []int64{10, 30} {
		if _, err := tx.UpdateByKey(types.Row{types.Int(k)}, 2, rows[k][2]); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	for _, h := range histories {
		fs := base.clone()
		vfs.FS = fs
		r := &ssRun{t: t, dir: dir, opts: opts, fs: fs, m: newSSModel(), label: fmt.Sprint(h), shards: shards}
		if r.db, err = Open(dir, opts); err != nil {
			t.Fatal(err)
		}
		for _, s := range h {
			r.step(s)
		}
		for i, tx := range r.txs {
			if tx != nil {
				r.judge(tx, r.m.tx[i].view, fmt.Sprintf("%c's view", 'A'+i), true)
			}
		}
		r.judgeFresh("committed state", true)
		for i, tx := range r.txs {
			if tx != nil {
				r.step(ssStep{kind: ssCommit, tx: i})
			}
		}
		r.step(ssStep{kind: ssCheckpoint, shard: -1})
		r.reopen()
		r.judgeFresh("state after a last checkpoint and reopen", false)
		if err := r.db.Close(); err != nil {
			r.fatalf("close: %v", err)
		}
	}
}
