package txn

// Tests for the key-addressed transaction API on top of engine.Seek: use
// after finish, a model-checked random script replayed at 1/2/4/8 shards
// (every probe's RID, row and found flag against a sorted map, inside the
// writing transaction and from fresh snapshots, across freezes and
// checkpoints), and the probe's allocation guard.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"pdtstore/internal/table"
	"pdtstore/internal/types"
)

// keyedTx is the key-addressed surface Txn and STxn share.
type keyedTx interface {
	FindByKey(key types.Row) (uint64, types.Row, bool, error)
	Insert(row types.Row) error
	DeleteByKey(key types.Row) (bool, error)
	UpdateByKey(key types.Row, col int, val types.Value) (bool, error)
	Commit() error
	Abort() error
}

func TestKeyOpsAfterFinishReturnErrTxnDone(t *testing.T) {
	begins := map[string]func() keyedTx{}
	m := newManager(t, 20, Options{})
	begins["flat"] = func() keyedTx { return m.Begin() }
	s := newSharded(t, 40, 3, Options{}, nil)
	begins["sharded"] = func() keyedTx { return s.Begin() }
	key := types.Row{types.Int(30)}
	for shape, begin := range begins {
		for _, finish := range []string{"commit", "abort"} {
			tx := begin()
			if ok, err := tx.UpdateByKey(key, 1, types.Int(1)); err != nil || !ok {
				t.Fatalf("%s: live update: %v %v", shape, ok, err)
			}
			var err error
			if finish == "commit" {
				err = tx.Commit()
			} else {
				err = tx.Abort()
			}
			if err != nil {
				t.Fatalf("%s %s: %v", shape, finish, err)
			}
			errs := map[string]error{}
			_, _, _, errs["FindByKey"] = tx.FindByKey(key)
			_, errs["DeleteByKey"] = tx.DeleteByKey(key)
			_, errs["UpdateByKey"] = tx.UpdateByKey(key, 1, types.Int(2))
			_, errs["UpdateByKey(sort key)"] = tx.UpdateByKey(key, 0, types.Int(31))
			errs["Insert"] = tx.Insert(types.Row{types.Int(35), types.Int(0), types.Str("x")})
			for op, err := range errs {
				if !errors.Is(err, ErrTxnDone) {
					t.Errorf("%s: %s after %s: err = %v, want ErrTxnDone", shape, op, finish, err)
				}
			}
		}
	}
}

// probeModel is the oracle: the visible rows by key.
type probeModel map[int64]types.Row

func (pm probeModel) sortedKeys() []int64 {
	keys := make([]int64, 0, len(pm))
	for k := range pm {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// check probes every given key (and the gap above it) through tx.
func (pm probeModel) check(t *testing.T, tx keyedTx, probe []int64, label string) {
	t.Helper()
	sorted := pm.sortedKeys()
	for _, k := range probe {
		for _, k := range []int64{k, k + 1} {
			rid, row, found, err := tx.FindByKey(types.Row{types.Int(k)})
			if err != nil {
				t.Fatalf("%s: FindByKey(%d): %v", label, k, err)
			}
			want, ok := pm[k]
			if found != ok {
				t.Fatalf("%s: FindByKey(%d) found=%v, model says %v", label, k, found, ok)
			}
			if !found {
				continue
			}
			rank := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= k })
			if rid != uint64(rank) || types.CompareRows(row, want) != 0 {
				t.Fatalf("%s: FindByKey(%d) = rid %d %v, model says rid %d %v", label, k, rid, row, rank, want)
			}
		}
	}
}

// runProbeScript replays a seeded row-at-a-time script on an n-way sharded
// table, checking probes against the model as it goes, and returns the final
// state.
func runProbeScript(t *testing.T, shards int, seed int64) string {
	t.Helper()
	const n = 300
	// A small write budget forces Write→Read freezes, so probes cross
	// non-empty Read-, frozen and Write-PDT layers.
	s := newSharded(t, n, shards, Options{WriteBudget: 2 << 10}, nil)
	pm := probeModel{}
	for i := 0; i < n; i++ {
		pm[int64((i+1)*10)] = types.Row{types.Int(int64((i + 1) * 10)), types.Int(int64(i)), types.Str(fmt.Sprintf("s%d", i))}
	}
	rng := rand.New(rand.NewSource(seed))
	randKey := func() int64 { return int64(rng.Intn(n*10+40)) - 10 }
	liveKey := func() int64 { keys := pm.sortedKeys(); return keys[rng.Intn(len(keys))] }
	for round := 0; round < 24; round++ {
		label := fmt.Sprintf("shards=%d round %d", shards, round)
		tx := s.Begin()
		var touched []int64
		for op := 0; op < 12; op++ {
			switch rng.Intn(5) {
			case 0: // insert (sometimes a duplicate)
				k := randKey()
				row := types.Row{types.Int(k), types.Int(int64(round)), types.Str("ins")}
				err := tx.Insert(row)
				if _, dup := pm[k]; dup != (err != nil) {
					t.Fatalf("%s: Insert(%d) err=%v, model dup=%v", label, k, err, dup)
				} else if !dup {
					pm[k] = row
				}
				touched = append(touched, k)
			case 1: // delete (sometimes a miss)
				k := randKey()
				if rng.Intn(2) == 0 {
					k = liveKey()
				}
				ok, err := tx.DeleteByKey(types.Row{types.Int(k)})
				if _, live := pm[k]; err != nil || ok != live {
					t.Fatalf("%s: DeleteByKey(%d) = %v, %v; model live=%v", label, k, ok, err, live)
				}
				delete(pm, k)
				touched = append(touched, k)
			case 2: // modify
				k := liveKey()
				ok, err := tx.UpdateByKey(types.Row{types.Int(k)}, 1, types.Int(int64(1000+op)))
				if err != nil || !ok {
					t.Fatalf("%s: UpdateByKey(%d) = %v, %v", label, k, ok, err)
				}
				row := pm[k].Clone()
				row[1] = types.Int(int64(1000 + op))
				pm[k] = row
				touched = append(touched, k)
			default: // re-key: near (same shard, either direction), far (another shard), onto itself, onto a taken key
				k := liveKey()
				nk := k + int64(rng.Intn(41)) - 20
				switch rng.Intn(4) {
				case 0:
					nk = randKey()
				case 1:
					nk = liveKey()
				}
				ok, err := tx.UpdateByKey(types.Row{types.Int(k)}, 0, types.Int(nk))
				if _, taken := pm[nk]; taken && nk != k {
					if err == nil {
						t.Fatalf("%s: re-key %d→%d onto a visible key succeeded", label, k, nk)
					}
				} else {
					if err != nil || !ok {
						t.Fatalf("%s: re-key %d→%d = %v, %v", label, k, nk, ok, err)
					}
					row := pm[k].Clone()
					row[0] = types.Int(nk)
					delete(pm, k)
					pm[nk] = row
				}
				touched = append(touched, k, nk)
			}
		}
		pm.check(t, tx, touched, label+" (own writes)")
		if err := tx.Commit(); err != nil {
			t.Fatalf("%s: commit: %v", label, err)
		}
		if round%8 == 7 {
			if err := s.Checkpoint(); err != nil {
				t.Fatalf("%s: checkpoint: %v", label, err)
			}
		}
		fresh := s.Begin()
		pm.check(t, fresh, touched, label+" (fresh snapshot)")
		fresh.Abort()
	}
	if err := s.WaitMaintenance(); err != nil {
		t.Fatal(err)
	}
	final := s.Begin()
	defer final.Abort()
	pm.check(t, final, pm.sortedKeys(), fmt.Sprintf("shards=%d final", shards))
	return fmt.Sprint(stxnKeys(t, final))
}

func TestProbesMatchModelAcrossShardCounts(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		var ref string
		for _, shards := range []int{1, 2, 4, 8} {
			got := runProbeScript(t, shards, seed)
			if shards == 1 {
				ref = got
			} else if got != ref {
				t.Fatalf("seed %d: %d shards end in a different key set than 1 shard", seed, shards)
			}
		}
	}
}

// TestFindByKeyAllocsBounded is the probe's allocation guard: a lookup searches
// one block's key column in place and decodes the one row it finds of every
// column straight into a pooled batch, so its allocation count is small and
// the same wherever in its block the row sits.
func TestFindByKeyAllocsBounded(t *testing.T) {
	const blockRows, n = 4096, 3 * 4096
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.Int(int64((i + 1) * 10)), types.Int(int64(i)), types.Str(fmt.Sprintf("s%d", i%97))}
	}
	tbl, err := table.Load(testSchema(), rows, table.Options{Mode: table.ModePDT, BlockRows: blockRows, Compressed: true})
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(tbl.Store(), nil, Options{})
	growWritePDT(t, m, 64)
	tx := m.Begin()
	defer tx.Abort()
	if _, err := tx.UpdateByKey(types.Row{types.Int(10 * (blockRows + 100))}, 1, types.Int(7)); err != nil {
		t.Fatal(err)
	}
	// A lookup's cost is the fewest objects of 20 single lookups: its batch
	// comes from a sync.Pool, which under the race detector drops a quarter
	// of what is put back, so one lookup in a few pays for a fresh batch there.
	measure := func(offset int) float64 {
		key := types.Row{types.Int(int64(10 * (blockRows + offset + 1)))}
		least := math.Inf(1)
		for range 20 {
			least = min(least, testing.AllocsPerRun(1, func() {
				if _, _, found, err := tx.FindByKey(key); err != nil || !found {
					t.Fatalf("FindByKey(%v) = %v, %v", key, found, err)
				}
			}))
		}
		return least
	}
	head, mid, tail := measure(1), measure(blockRows/2), measure(blockRows-40)
	if head != mid || mid != tail {
		t.Errorf("FindByKey allocations depend on the row's offset in its block: %v at 1, %v at %d, %v at %d", head, mid, blockRows/2, tail, blockRows-40)
	}
	// The one-row window of a block's last row ends with the block: it
	// allocates what any other row's does.
	if edge := measure(blockRows - 1); edge != head {
		t.Errorf("FindByKey at a block's edge allocates %v objects, %v mid-block", edge, head)
	}
	if head > 24 {
		t.Errorf("FindByKey allocates %v objects per lookup through three layers of three columns", head)
	}
}
