package pdtstore

import (
	"errors"
	"fmt"
	"testing"

	"pdtstore/internal/engine"
	"pdtstore/internal/table"
	"pdtstore/internal/types"
)

// TestWrongKindKeyIsAnError: a key whose values do not have the sort key's
// kinds — here a string for the Int64 key — reaches every key-addressed entry
// of the public surface, at 1 and 3 shards over a checkpointed image, and
// each one returns an error wrapping types.ErrKey instead of comparing it
// with stored keys (which panics on mixed kinds).
func TestWrongKindKeyIsAnError(t *testing.T) {
	bad := types.Row{types.Str("x")}
	good := types.Row{types.Int(20)}
	cases := []struct {
		name string
		run  func(tx Tx) error
	}{
		{"FindByKey", func(tx Tx) error { _, _, _, err := tx.FindByKey(bad); return err }},
		{"DeleteByKey", func(tx Tx) error { _, err := tx.DeleteByKey(bad); return err }},
		{"UpdateByKey/value column", func(tx Tx) error { _, err := tx.UpdateByKey(bad, 2, types.Int(1)); return err }},
		{"UpdateByKey/key column", func(tx Tx) error { _, err := tx.UpdateByKey(bad, 0, types.Int(1)); return err }},
		{"UpdateByKey/new key value", func(tx Tx) error { _, err := tx.UpdateByKey(good, 0, types.Str("x")); return err }},
		{"ApplyBatch/delete", func(tx Tx) error {
			_, err := tx.ApplyBatch([]table.Op{{Kind: table.OpDelete, Key: bad}})
			return err
		}},
		{"Scan", func(tx Tx) error { _, err := tx.Scan([]int{0}, bad, nil); return err }},
		{"Plan.Range", func(tx Tx) error {
			_, err := engine.Scan(tx, 0).Range(nil, bad).Collect()
			return err
		}},
	}
	for _, shards := range []int{1, 3} {
		db := openShardDB(t, t.TempDir(), shards)
		keys := make([]int64, 200)
		for i := range keys {
			keys[i] = int64(i) * 5
		}
		sCommitInserts(t, db, model{}, keys...)
		// Range bounds meet stored keys in the sparse index only once the
		// rows are in the stable image.
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		for _, c := range cases {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, c.name), func(t *testing.T) {
				tx := db.Begin()
				defer tx.Abort()
				if err := c.run(tx); !errors.Is(err, types.ErrKey) {
					t.Fatalf("got %v, want an error wrapping types.ErrKey", err)
				}
				if _, row, found, err := tx.FindByKey(good); err != nil || !found || row[2].I != 200 {
					t.Fatalf("key 20 after the rejected call: %v %v %v", row, found, err)
				}
			})
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDuplicateKeyIsErrDuplicateKey: every write that would make a sort key
// visible twice — an insert of a visible key, the same insert through
// ApplyBatch, and a sort-key update onto a key another row holds (on the
// other shard when there are two) — returns an error wrapping
// types.ErrDuplicateKey, and leaves both rows as they were.
func TestDuplicateKeyIsErrDuplicateKey(t *testing.T) {
	dup := types.Row{types.Int(20), types.Str("dup"), types.Int(1)}
	cases := []struct {
		name string
		run  func(tx Tx) error
	}{
		{"Insert", func(tx Tx) error { return tx.Insert(dup) }},
		{"ApplyBatch/insert", func(tx Tx) error {
			_, err := tx.ApplyBatch([]table.Op{{Kind: table.OpInsert, Row: dup}})
			return err
		}},
		{"UpdateByKey/key column", func(tx Tx) error {
			_, err := tx.UpdateByKey(types.Row{types.Int(20)}, 0, types.Int(600))
			return err
		}},
	}
	for _, shards := range []int{1, 2} {
		db := openShardDB(t, t.TempDir(), shards)
		keys := make([]int64, 200)
		for i := range keys {
			keys[i] = int64(i) * 5
		}
		sCommitInserts(t, db, model{}, keys...)
		for _, c := range cases {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, c.name), func(t *testing.T) {
				tx := db.Begin()
				defer tx.Abort()
				if err := c.run(tx); !errors.Is(err, types.ErrDuplicateKey) {
					t.Fatalf("got %v, want an error wrapping types.ErrDuplicateKey", err)
				}
				for _, k := range []int64{20, 600} {
					if _, row, found, err := tx.FindByKey(types.Row{types.Int(k)}); err != nil || !found || row[2].I != k*10 {
						t.Fatalf("key %d after the rejected call: %v %v %v", k, row, found, err)
					}
				}
			})
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
