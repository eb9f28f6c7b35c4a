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
// blocks reads some blocks whole and the rest by the pages its row lies in. A
// bit flipped in any one of the segment reads it makes, one at a time, is an
// ErrChecksum, never a wrong row.
func TestColdProbeBitFlips(t *testing.T) {
	f := installMemFS(t)
	_, rows := tpch.NewGen(0.002, 1).OrdersAndLineitems()
	db, err := Open(t.TempDir(), Options{Schema: tpch.LineitemSchema, BlockRows: 4096, Compressed: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
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
	want := rows[len(rows)/2+77]
	key := types.Row{want[tpch.LOrderkey], want[tpch.LLinenumber]}
	var segReads atomic.Int64
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
		}
		return pass
	}
	row, err := probe()
	if err != nil || types.CompareRows(row, want) != 0 {
		t.Fatalf("FindByKey(%v) = %v, %v; want %v", key, row, err, want)
	}
	reads := int(segReads.Load())
	t.Logf("a cold probe makes %d segment reads", reads)
	if reads < 16 {
		t.Fatalf("a cold probe made %d segment reads, want one per column at least", reads)
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
