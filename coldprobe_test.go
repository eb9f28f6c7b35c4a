package pdtstore

import (
	"errors"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"pdtstore/internal/storage"
	"pdtstore/internal/table"
	"pdtstore/internal/tpch"
	"pdtstore/internal/types"
)

// TestColdProbeBitFlips: a cold key probe of a lineitem image in 4096-row
// blocks reads its block index through one read plan: a few coalesced
// preads, each verified unit by unit, bridged bytes included. A bit flipped
// in any one of the segment reads it makes, one at a time, is an
// ErrChecksum, never a wrong row.
func TestColdProbeBitFlips(t *testing.T) {
	checkColdProbeBitFlips(t, 0, 4)
}

// TestColdProbeBitFlipsIncremental is TestColdProbeBitFlips over an image
// checkpointed incrementally twice more, each time after a modify of one
// column of the probed row: the probe reads at least two segments, and its
// base-segment read bridges the dead blocks of the columns that moved.
func TestColdProbeBitFlipsIncremental(t *testing.T) {
	checkColdProbeBitFlips(t, 2, 8)
}

// checkColdProbeBitFlips runs the bit-flip check over an image of gens
// incremental checkpoints past the first, whose cold probe may make at most
// most segment reads.
func checkColdProbeBitFlips(t *testing.T, gens, most int) {
	f := installMemFS(t)
	db, key, want := coldProbeImage(t, gens)
	var segReads atomic.Int64
	segs := map[string]bool{}
	probe := func() (types.Row, error) {
		db.dev.DropCaches()
		segReads.Store(0)
		tx := db.Begin()
		defer tx.Abort()
		_, row, found, err := tx.FindByKey(key)
		if err == nil && !found {
			t.Fatalf("FindByKey(%v) found nothing", key)
		}
		return row, err
	}
	f.at = func(op fsOp) fault {
		if op.kind == "read" && strings.HasSuffix(op.path, ".seg") {
			segReads.Add(1)
			segs[op.path] = true
		}
		return pass
	}
	row, err := probe()
	if err != nil || types.CompareRows(row, want) != 0 {
		t.Fatalf("FindByKey(%v) = %v, %v; want %v", key, row, err, want)
	}
	reads := int(segReads.Load())
	t.Logf("a cold probe makes %d segment reads of %d segments", reads, len(segs))
	if reads == 0 || reads > most || gens > 0 && len(segs) < 2 {
		t.Fatalf("a cold probe made %d segment reads of %d segments, want 1 to %d (of 2 or more segments past a first checkpoint)", reads, len(segs), most)
	}
	for k := 0; k < reads; k++ {
		f.at = func(op fsOp) fault {
			if op.kind == "read" && strings.HasSuffix(op.path, ".seg") && segReads.Add(1) == int64(k+1) {
				return flipBit
			}
			return pass
		}
		if row, err := probe(); !errors.Is(err, storage.ErrChecksum) {
			t.Fatalf("bit flipped in segment read %d of %d: FindByKey = %v, %v; want ErrChecksum", k, reads, row, err)
		}
	}
	f.at = nil
	if row, err := probe(); err != nil || types.CompareRows(row, want) != 0 {
		t.Fatalf("FindByKey(%v) after the flips = %v, %v; want %v", key, row, err, want)
	}
}

// coldProbeImage opens a store over a lineitem image in 4096-row blocks,
// checkpointed once and then gens times more, each after a modify of one
// column of the row it returns the key of.
func coldProbeImage(t *testing.T, gens int) (db *DB, key, want types.Row) {
	_, rows := tpch.NewGen(0.002, 1).OrdersAndLineitems()
	db, err := Open(t.TempDir(), Options{Schema: tpch.LineitemSchema, BlockRows: 4096, Compressed: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	ops := make([]table.Op, len(rows))
	for i, r := range rows {
		ops[i] = table.Op{Kind: table.OpInsert, Row: r}
	}
	tx := db.Begin()
	if _, err := tx.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want = rows[len(rows)/2+77]
	key = types.Row{want[tpch.LOrderkey], want[tpch.LLinenumber]}
	for g, col := range []int{tpch.LQuantity, tpch.LDiscount}[:gens] {
		v := types.Float(float64(g + 1))
		want = append(types.Row(nil), want...)
		want[col] = v
		tx := db.Begin()
		if _, err := tx.UpdateByKey(key, col, v); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	return db, key, want
}

// TestColdFindThenUpdateByKey: a write that resolves its key right after a
// cold read of the row (read-modify-write) finds the sort-key blocks the
// read searched in the pool — the read's plan read them whole and pooled
// them — so it reads nothing: each key block is read once.
func TestColdFindThenUpdateByKey(t *testing.T) {
	installMemFS(t)
	db, key, _ := coldProbeImage(t, 1)
	db.dev.DropCaches()
	db.dev.ResetStats()
	tx := db.Begin()
	defer tx.Abort()
	if _, _, found, err := tx.FindByKey(key); err != nil || !found {
		t.Fatalf("FindByKey(%v) = %v, %v", key, found, err)
	}
	if _, reads := db.dev.Stats(); reads == 0 {
		t.Fatalf("a cold FindByKey made no reads")
	}
	db.dev.ResetStats()
	if ok, err := tx.UpdateByKey(key, tpch.LTax, types.Float(0.5)); err != nil || !ok {
		t.Fatalf("UpdateByKey(%v) = %v, %v", key, ok, err)
	}
	if bytes, reads := db.dev.Stats(); reads != 0 {
		t.Fatalf("UpdateByKey after a cold FindByKey of its key read %d bytes in %d reads, want none", bytes, reads)
	}
}

// TestConcurrentColdFindByKey: four goroutines probe keys of a file-backed
// image with a live delta over it, while one of them keeps dropping the
// caches, so point reads by pages, whole reads into the pool and pool hits
// interleave on the same blocks; every answer is the model's.
func TestConcurrentColdFindByKey(t *testing.T) {
	const n = 3 * 4096
	db, err := Open(t.TempDir(), Options{Schema: dbSchema, BlockRows: 4096, Compressed: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	m := model{}
	commitInserts(t, db, m, 0, n)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	commitMixed(t, db, m, 5000, 5100)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 150; i++ {
				if g == 0 {
					db.dev.DropCaches()
				}
				k := rng.Int63n(n + 10)
				tx := db.Begin()
				_, row, found, err := tx.FindByKey(types.Row{types.Int(k)})
				tx.Abort()
				want, ok := m[k]
				if err != nil || found != ok || found && (row[1].S != want.V || row[2].I != want.N) {
					t.Errorf("FindByKey(%d) = %v, %v, %v; want %v, %v", k, row, found, err, want, ok)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
