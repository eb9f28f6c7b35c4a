package txn

// Online-maintenance stress: mixed transactional traffic (Begin / Scan /
// ApplyBatch / per-op updates / Commit) from several goroutines races a
// background checkpoint loop and a tiny write budget (so Write→Read folds
// fire constantly). Every transaction asserts the snapshot-isolation
// invariant — its visible row count only moves by its own writes — and the
// final state must be exactly the initial one, since every worker deletes
// what it inserts. CI's race job runs this file under -race.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pdtstore/internal/table"
	"pdtstore/internal/types"
	"pdtstore/internal/vector"
	"pdtstore/internal/wal"
)

// countRows scans the transaction's full view and returns the row count.
func countRows(t *testing.T, tx *Txn) int {
	t.Helper()
	return len(txnKeys(t, tx))
}

func TestOnlineMaintenanceStress(t *testing.T) {
	const (
		stableRows = 200
		workers    = 4
		rounds     = 12
		batch      = 16
	)
	// Tiny budget: nearly every commit schedules a background fold.
	m := newManager(t, stableRows, Options{WriteBudget: 1 << 10})

	stop := make(chan struct{})
	var bg sync.WaitGroup

	// Background checkpoint loop: rebuild the stable image continuously
	// while traffic runs.
	bg.Add(1)
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := m.Checkpoint(); err != nil {
				t.Errorf("background checkpoint: %v", err)
				return
			}
		}
	}()

	// Observer: repeatedly asserts a snapshot's row count cannot change
	// under it, no matter what commits, folds and checkpoints do meanwhile.
	bg.Add(1)
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			tx := m.Begin()
			before := countRows(t, tx)
			after := countRows(t, tx)
			if before != after {
				t.Errorf("snapshot row count moved %d -> %d", before, after)
			}
			if err := tx.Abort(); err != nil {
				t.Errorf("observer abort: %v", err)
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Disjoint key spaces: worker w inserts fresh keys above the
			// stable range and modifies its own slice of stable keys, so
			// commits never write-write conflict.
			stableBase := int64(w*(stableRows/workers) + 1)
			for r := 0; r < rounds; r++ {
				fresh := make([]int64, batch)
				for i := range fresh {
					fresh[i] = int64(100_000 + w*10_000 + r*batch + i)
				}

				tx := m.Begin()
				n0 := countRows(t, tx)
				ops := make([]table.Op, 0, batch+2)
				for _, k := range fresh {
					ops = append(ops, table.Op{Kind: table.OpInsert,
						Row: types.Row{types.Int(k), types.Int(int64(w)), types.Str("ins")}})
				}
				// Two modifies of this worker's own stable keys ride along.
				for i := 0; i < 2; i++ {
					k := (stableBase + int64((r+i)%(stableRows/workers))) * 10
					ops = append(ops, table.Op{Kind: table.OpUpdate,
						Key: types.Row{types.Int(k)}, Col: 1, Val: types.Int(int64(r))})
				}
				if _, err := tx.ApplyBatch(ops); err != nil {
					t.Errorf("worker %d round %d apply: %v", w, r, err)
					return
				}
				if n1 := countRows(t, tx); n1 != n0+batch {
					t.Errorf("worker %d round %d: count %d -> %d, want +%d", w, r, n0, n1, batch)
					return
				}
				if err := tx.Commit(); err != nil {
					t.Errorf("worker %d round %d commit: %v", w, r, err)
					return
				}

				// Second transaction deletes the keys again (net zero).
				del := m.Begin()
				n0 = countRows(t, del)
				dops := make([]table.Op, 0, batch)
				for _, k := range fresh {
					dops = append(dops, table.Op{Kind: table.OpDelete, Key: types.Row{types.Int(k)}})
				}
				if _, err := del.ApplyBatch(dops); err != nil {
					t.Errorf("worker %d round %d delete: %v", w, r, err)
					return
				}
				if n1 := countRows(t, del); n1 != n0-batch {
					t.Errorf("worker %d round %d: delete count %d -> %d, want -%d", w, r, n0, n1, batch)
					return
				}
				if err := del.Commit(); err != nil {
					t.Errorf("worker %d round %d delete commit: %v", w, r, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	bg.Wait()
	if err := m.WaitMaintenance(); err != nil {
		t.Fatal(err)
	}

	// Steady state: all inserts were deleted again, nothing lost, nothing
	// duplicated, tree invariants intact.
	check := m.Begin()
	defer check.Abort()
	keys := txnKeys(t, check)
	if len(keys) != stableRows {
		t.Fatalf("final row count = %d, want %d", len(keys), stableRows)
	}
	seen := map[int64]bool{}
	for _, k := range keys {
		if seen[k] {
			t.Fatalf("duplicate key %d", k)
		}
		seen[k] = true
	}
	if err := m.ReadPDT().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := m.WritePDT().Validate(); err != nil {
		t.Fatal(err)
	}

	// One final checkpoint folds everything down; the image must match.
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := m.Store().NRows(); got != stableRows {
		t.Fatalf("checkpointed image has %d rows, want %d", got, stableRows)
	}
}

// stressOp is one effect of a committed stress transaction: key's row is set
// to (a, b), or deleted.
type stressOp struct {
	key, a int64
	b      string
	del    bool
}

// TestShardedMaintenanceStress races every maintenance path against every
// commit path on a sharded table over real fsynced logs: writers mix
// single-shard and cross-shard transactions (cross-shard ones contend on one
// hot key pair, single-shard ones on a warm key per shard), a checkpoint
// loop runs per shard and a tiny write budget keeps background folds firing.
// Readers assert that no cross-shard commit is ever half-visible. The final
// state must equal the model built from the commits in clock order, and so
// must a cold replay of the logs onto the initial image. A watchdog fails
// the test with a goroutine dump when no commit completes for 10 s.
func TestShardedMaintenanceStress(t *testing.T) {
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			shardedStress(t, shards)
		})
	}
}

func shardedStress(t *testing.T, shards int) {
	const (
		stableRows = 400 // keys 10..4000
		writers    = 4
		rounds     = 60
		hotLo      = 10   // shard 0
		hotHi      = 4000 // last shard
	)
	dir := t.TempDir()
	opts := Options{WriteBudget: 1 << 10}
	s := newShardedLogs(t, stableRows, shards, opts, fileLogs(t, dir))
	warm := make([]int64, shards) // a contended stable key in each shard
	warm[0] = 20
	for i, k := range s.Keys() {
		warm[i+1] = k[0].I + 10
	}

	var (
		mu        sync.Mutex
		committed = map[uint64][]stressOp{} // by commit LSN
		progress  atomic.Int64
	)
	record := func(tx *STxn, ops []stressOp) {
		mu.Lock()
		committed[tx.CommitLSN()] = ops
		mu.Unlock()
	}

	stop := make(chan struct{})
	var bg sync.WaitGroup
	for i := 0; i < shards; i++ {
		m := s.Shard(i)
		bg.Add(1)
		go func() {
			defer bg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := m.Checkpoint(); err != nil {
					t.Errorf("checkpoint: %v", err)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}
	// Readers: a cross-shard insert names its partner in column b, and the
	// hot pair's column a moves in lockstep; a snapshot must see either both
	// halves of a cross-shard commit or neither.
	bg.Add(1)
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			tx := s.Begin()
			rows, err := stxnRows(tx)
			tx.Abort()
			if err != nil {
				t.Errorf("reader scan: %v", err)
				return
			}
			if a0, a1 := rows[hotLo].a, rows[hotHi].a; a0 != a1 && (a0 != 0 || a1 != stableRows-1) {
				t.Errorf("hot pair half-visible: a=%d and a=%d", a0, a1)
				return
			}
			for k, r := range rows {
				var partner int64
				if _, err := fmt.Sscanf(r.b, "p%d", &partner); err == nil {
					if _, ok := rows[partner]; !ok {
						t.Errorf("cross-shard insert %d visible without its partner %d", k, partner)
						return
					}
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := int64(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []int64 // this writer's committed single-shard inserts
			for i := int64(0); i < rounds; i++ {
				j := (i*13 + w*101) % stableRows
				tx := s.Begin()
				var ops []stressOp
				apply := func(err error) bool {
					if err != nil {
						t.Errorf("writer %d round %d: %v", w, i, err)
					}
					return err == nil
				}
				switch i % 3 {
				case 0: // cross-shard: an insert pair and the hot pair
					k1, k2 := 10*j+5+w, 10*((j+stableRows/2)%stableRows)+5+w
					v := w*1000 + i + stableRows
					ok := apply(tx.Insert(types.Row{types.Int(k1), types.Int(v), types.Str(fmt.Sprintf("p%d", k2))})) &&
						apply(tx.Insert(types.Row{types.Int(k2), types.Int(v), types.Str(fmt.Sprintf("p%d", k1))}))
					for _, k := range []int64{hotLo, hotHi} {
						if ok {
							_, err := tx.UpdateByKey(types.Row{types.Int(k)}, 1, types.Int(v))
							ok = apply(err)
						}
					}
					if !ok {
						tx.Abort()
						return
					}
					ops = []stressOp{{key: k1, a: v, b: fmt.Sprintf("p%d", k2)}, {key: k2, a: v, b: fmt.Sprintf("p%d", k1)},
						{key: hotLo, a: v, b: "s0"}, {key: hotHi, a: v, b: fmt.Sprintf("s%d", stableRows-1)}}
				case 1: // single-shard: a fresh key and its shard's warm key
					k := 10*j + 1 + w
					hot := warm[s.ShardOf(types.Row{types.Int(k)})]
					if !apply(tx.Insert(types.Row{types.Int(k), types.Int(w), types.Str("w")})) {
						tx.Abort()
						return
					}
					if _, err := tx.UpdateByKey(types.Row{types.Int(hot)}, 1, types.Int(-i)); !apply(err) {
						tx.Abort()
						return
					}
					mine = append(mine, k)
					ops = []stressOp{{key: k, a: w, b: "w"}, {key: hot, a: -i, b: fmt.Sprintf("s%d", hot/10-1)}}
				default: // single-shard: delete an earlier insert of this writer
					if len(mine) == 0 {
						tx.Abort()
						continue
					}
					k := mine[0]
					if found, err := tx.DeleteByKey(types.Row{types.Int(k)}); !apply(err) || !found {
						t.Errorf("writer %d: own committed key %d not found", w, k)
						tx.Abort()
						return
					}
					ops = []stressOp{{key: k, del: true}}
				}
				err := tx.Commit()
				progress.Add(1)
				switch {
				case err == nil:
					record(tx, ops)
					if i%3 == 2 {
						mine = mine[1:]
					}
				case errors.Is(err, ErrConflict):
					if i%3 == 1 {
						mine = mine[:len(mine)-1]
					}
				default:
					t.Errorf("writer %d round %d commit: %v", w, i, err)
					return
				}
			}
		}()
	}

	watchdog(t, &wg, &progress)
	close(stop)
	bg.Wait()
	if err := s.WaitMaintenance(); err != nil {
		t.Fatal(err)
	}
	if t.Failed() {
		return
	}

	// The model: the initial rows, then every committed effect in clock order.
	model := map[int64]stressRow{}
	for i := 1; i <= stableRows; i++ {
		model[int64(i*10)] = stressRow{a: int64(i - 1), b: fmt.Sprintf("s%d", i-1)}
	}
	lsns := make([]uint64, 0, len(committed))
	for lsn := range committed {
		lsns = append(lsns, lsn)
	}
	sort.Slice(lsns, func(i, j int) bool { return lsns[i] < lsns[j] })
	for _, lsn := range lsns {
		for _, op := range committed[lsn] {
			if op.del {
				delete(model, op.key)
			} else {
				model[op.key] = stressRow{a: op.a, b: op.b}
			}
		}
	}
	check := func(what string, s *Sharded) {
		t.Helper()
		tx := s.Begin()
		defer tx.Abort()
		got, err := stxnRows(tx)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(model) {
			t.Fatalf("%s: %d rows differ from the model's %d", what, len(got), len(model))
		}
	}
	check("live state", s)

	// Cold replay: the logs, reconciled across streams, onto the initial image.
	streams := make([][]wal.Record, shards)
	for i := range streams {
		l, recs, err := wal.OpenFileLog(filepath.Join(dir, fmt.Sprintf("wal-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		l.Close()
		streams[i] = recs
	}
	streams = wal.CompleteGroups(streams, make([]uint64, shards))
	cold := newShardedLogs(t, stableRows, shards, Options{}, nil)
	for i, recs := range streams {
		if err := cold.Shard(i).Recover(recs); err != nil {
			t.Fatal(err)
		}
	}
	check("cold replay", cold)
}

// watchdog waits for the writers in wg, failing the test with every
// goroutine's stack once progress has not moved for 10 s.
func watchdog(t *testing.T, wg *sync.WaitGroup, progress *atomic.Int64) {
	t.Helper()
	writersDone := make(chan struct{})
	go func() { wg.Wait(); close(writersDone) }()
	last, since := progress.Load(), time.Now()
	for {
		select {
		case <-writersDone:
			return
		case <-time.After(100 * time.Millisecond):
			if n := progress.Load(); n != last {
				last, since = n, time.Now()
			} else if time.Since(since) > 10*time.Second {
				buf := make([]byte, 1<<20)
				t.Fatalf("no commit completed for 10s; goroutines:\n%s", buf[:runtime.Stack(buf, true)])
			}
		}
	}
}

// TestCrossShardTransferStress moves value between accounts on 4 shards:
// cross-shard transfers over 2 or 3 shards, with participant sets that
// overlap and shard orders both ways, beside a single-shard writer, per-shard
// checkpoint loops and a tiny write budget (background folds). Every
// snapshot a reader's Begin pins must see the accounts' sum unchanged — no
// cross-shard commit is ever half-visible — and so must the final state and
// a cold replay of the logs. A watchdog fails the test with a goroutine dump
// when no commit completes for 10 s.
func TestCrossShardTransferStress(t *testing.T) {
	const (
		shards     = 4
		stableRows = 160 // keys 10..1600
		movers     = 3
		rounds     = 80
	)
	// A durability barrier slow enough that commits park behind a round,
	// so members share batches with single-shard commits and each other.
	var logs []*bytes.Buffer
	s := newShardedLogs(t, stableRows, shards, Options{WriteBudget: 1 << 10}, func(int) wal.Log {
		buf := &bytes.Buffer{}
		logs = append(logs, buf)
		return wal.NewSyncedWriter(buf, func() error {
			time.Sleep(50 * time.Microsecond)
			return nil
		})
	})
	// Four accounts per shard: its first four stable keys, balance in
	// column a.
	var accounts [shards][4]int64
	for i := range accounts {
		first := int64(10)
		if i > 0 {
			first = s.Keys()[i-1][0].I
		}
		for j := range accounts[i] {
			accounts[i][j] = first + 10*int64(j)
		}
	}
	sumOf := func(rows map[int64]stressRow) int64 {
		var sum int64
		for _, acc := range accounts {
			for _, k := range acc {
				sum += rows[k].a
			}
		}
		return sum
	}
	sum := func(tx *STxn) (int64, error) {
		rows, err := stxnRows(tx)
		return sumOf(rows), err
	}
	check := s.Begin()
	want, err := sum(check)
	check.Abort()
	if err != nil {
		t.Fatal(err)
	}

	var progress atomic.Int64
	stop := make(chan struct{})
	var bg sync.WaitGroup
	background := func(f func() error) {
		bg.Add(1)
		go func() {
			defer bg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := f(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < shards; i++ {
		m := s.Shard(i)
		background(func() error {
			time.Sleep(time.Millisecond)
			return m.Checkpoint()
		})
	}
	background(func() error {
		tx := s.Begin()
		defer tx.Abort()
		got, err := sum(tx)
		if err == nil && got != want {
			err = fmt.Errorf("a snapshot sees the accounts sum to %d, want %d", got, want)
		}
		return err
	})

	var wg sync.WaitGroup
	for w := 0; w < movers; w++ {
		rng := rand.New(rand.NewSource(int64(w)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				// 2 or 3 distinct shards in random order; the first pays
				// the others.
				parts := rng.Perm(shards)[:2+rng.Intn(2)]
				tx := s.Begin()
				err := func() error {
					from := types.Row{types.Int(accounts[parts[0]][rng.Intn(4)])}
					for _, p := range parts[1:] {
						to := types.Row{types.Int(accounts[p][rng.Intn(4)])}
						amt := int64(1 + rng.Intn(9))
						for _, mv := range []struct {
							key   types.Row
							delta int64
						}{{from, -amt}, {to, amt}} {
							_, row, found, err := tx.FindByKey(mv.key)
							if err != nil || !found {
								return fmt.Errorf("account %v: found=%v, %v", mv.key, found, err)
							}
							if _, err := tx.UpdateByKey(mv.key, 1, types.Int(row[1].I+mv.delta)); err != nil {
								return err
							}
						}
					}
					return tx.Commit()
				}()
				progress.Add(1)
				if err != nil && !errors.Is(err, ErrConflict) {
					tx.Abort()
					t.Errorf("mover %d round %d: %v", w, i, err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() { // single-shard writer: fresh inserts and a stable non-account key
		defer wg.Done()
		for i := int64(0); i < movers*rounds; i++ {
			tx := s.Begin()
			k := 10*(i%stableRows) + 5 + 10*stableRows*(i/stableRows)
			err := tx.Insert(types.Row{types.Int(k), types.Int(i), types.Str("w")})
			if err == nil {
				_, err = tx.UpdateByKey(types.Row{types.Int(10*(i%stableRows) + 10)}, 2, types.Str("u"))
			}
			if err == nil {
				err = tx.Commit()
			}
			progress.Add(1)
			if err != nil && !errors.Is(err, ErrConflict) {
				tx.Abort()
				t.Errorf("single-shard writer round %d: %v", i, err)
				return
			}
		}
	}()
	watchdog(t, &wg, &progress)
	close(stop)
	bg.Wait()
	if err := s.WaitMaintenance(); err != nil {
		t.Fatal(err)
	}
	if t.Failed() {
		return
	}

	live := s.Begin()
	defer live.Abort()
	rows, err := stxnRows(live)
	if err != nil {
		t.Fatal(err)
	}
	if got := sumOf(rows); got != want {
		t.Fatalf("final accounts sum to %d, want %d", got, want)
	}
	// Cold replay: the streams, reconciled, onto the initial image.
	streams := make([][]wal.Record, shards)
	for i, buf := range logs {
		if streams[i], err = wal.Replay(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatal(err)
		}
	}
	streams = wal.CompleteGroups(streams, make([]uint64, shards))
	cold := newSharded(t, stableRows, shards, Options{}, nil)
	for i, recs := range streams {
		if err := cold.Shard(i).Recover(recs); err != nil {
			t.Fatal(err)
		}
	}
	replayed := cold.Begin()
	defer replayed.Abort()
	coldRows, err := stxnRows(replayed)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(coldRows) != fmt.Sprint(rows) {
		t.Fatalf("cold replay: %d rows differ from the live %d", len(coldRows), len(rows))
	}
}

// stressRow is a row's non-key columns.
type stressRow struct {
	a int64
	b string
}

// stxnRows scans a sharded transaction's whole view into a key → row map.
func stxnRows(tx *STxn) (map[int64]stressRow, error) {
	src, err := tx.Scan([]int{0, 1, 2}, nil, nil)
	if err != nil {
		return nil, err
	}
	out := vector.NewBatch([]types.Kind{types.Int64, types.Int64, types.String}, 256)
	for {
		n, err := src.Next(out, 256)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			break
		}
	}
	rows := make(map[int64]stressRow, out.Len())
	for i, k := range out.Vecs[0].I {
		rows[k] = stressRow{a: out.Vecs[1].I[i], b: out.Vecs[2].S[i]}
	}
	return rows, nil
}
