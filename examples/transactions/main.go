// Transactions: the three-layer PDT scheme of §3.3 — snapshot isolation
// without locks, optimistic conflict detection via Serialize, commit into
// the master Write-PDT, and crash recovery from the write-ahead log.
package main

import (
	"bytes"
	"errors"
	"fmt"
	"log"

	"pdtstore/internal/colstore"
	"pdtstore/internal/txn"
	"pdtstore/internal/types"
	"pdtstore/internal/vector"
	"pdtstore/internal/wal"
)

func main() {
	schema := types.MustSchema([]types.Column{
		{Name: "account", Kind: types.Int64},
		{Name: "owner", Kind: types.String},
		{Name: "balance", Kind: types.Int64},
	}, []int{0})
	var rows []types.Row
	for i := int64(1); i <= 5; i++ {
		rows = append(rows, types.Row{types.Int(i), types.Str(fmt.Sprintf("acct-%d", i)), types.Int(100)})
	}
	// The stable image; the manager owns it and an empty Read-PDT over it.
	store, err := colstore.BulkLoad(schema, nil, 0, false, rows)
	if err != nil {
		log.Fatal(err)
	}
	var logBuf bytes.Buffer
	mgr := txn.NewManager(store, nil, txn.Options{Log: wal.NewWriter(&logBuf)})

	// Snapshot isolation: b, started before a commits, keeps the old view.
	a := mgr.Begin()
	b := mgr.Begin()
	if _, err := a.UpdateByKey(types.Row{types.Int(1)}, 2, types.Int(175)); err != nil {
		log.Fatal(err)
	}
	if err := a.Commit(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("a committed: balance(1) := 175")
	if bal := balance(b, 1); bal != 100 {
		log.Fatalf("b sees %d; snapshot isolation broken", bal)
	}
	fmt.Println("b (older snapshot) still sees balance(1) = 100")

	// b writes the same column a wrote: commit must abort.
	if _, err := b.UpdateByKey(types.Row{types.Int(1)}, 2, types.Int(999)); err != nil {
		log.Fatal(err)
	}
	if err := b.Commit(); errors.Is(err, txn.ErrConflict) {
		fmt.Println("b aborted: write-write conflict on account 1 (as it must)")
	} else {
		log.Fatalf("expected a conflict, got %v", err)
	}

	// Different columns of the same tuple reconcile at commit.
	c := mgr.Begin()
	d := mgr.Begin()
	if _, err := c.UpdateByKey(types.Row{types.Int(2)}, 2, types.Int(42)); err != nil {
		log.Fatal(err)
	}
	if _, err := d.UpdateByKey(types.Row{types.Int(2)}, 1, types.Str("alice")); err != nil {
		log.Fatal(err)
	}
	if err := c.Commit(); err != nil {
		log.Fatal(err)
	}
	if err := d.Commit(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("c and d committed: disjoint columns of account 2 reconciled")

	// Concurrent inserts of different keys serialize cleanly.
	e := mgr.Begin()
	f := mgr.Begin()
	if err := e.Insert(types.Row{types.Int(10), types.Str("eve"), types.Int(7)}); err != nil {
		log.Fatal(err)
	}
	if err := f.Insert(types.Row{types.Int(11), types.Str("frank"), types.Int(8)}); err != nil {
		log.Fatal(err)
	}
	if err := e.Commit(); err != nil {
		log.Fatal(err)
	}
	if err := f.Commit(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("e and f committed: concurrent inserts of different keys")

	final := mgr.Begin()
	fmt.Printf("\nfinal: balance(1)=%d, account 2 owner/balance via merged view = %v\n",
		balance(final, 1), accountRow(final, 2))
	if err := final.Abort(); err != nil {
		log.Fatal(err)
	}

	// Crash recovery: rebuild from the WAL over the same initial image.
	store2, err := colstore.BulkLoad(schema, nil, 0, false, rows)
	if err != nil {
		log.Fatal(err)
	}
	mgr2 := txn.NewManager(store2, nil, txn.Options{})
	records, err := wal.Replay(bytes.NewReader(logBuf.Bytes()))
	if err != nil {
		log.Fatal(err)
	}
	if err := mgr2.Recover(records); err != nil {
		log.Fatal(err)
	}
	check := mgr2.Begin()
	fmt.Printf("after WAL replay (%d commit records): balance(1)=%d, account 2 = %v\n",
		len(records), balance(check, 1), accountRow(check, 2))
	if balance(check, 1) != 175 {
		log.Fatal("recovery diverged!")
	}
	if err := check.Abort(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("recovered state identical — ACID via three PDT layers plus a WAL")
}

// accountRow fetches one account through a transaction's merged view.
func accountRow(t *txn.Txn, account int64) types.Row {
	key := types.Row{types.Int(account)}
	src, err := t.Scan([]int{0, 1, 2}, key, key)
	if err != nil {
		log.Fatal(err)
	}
	out := vector.NewBatch([]types.Kind{types.Int64, types.String, types.Int64}, 16)
	for {
		n, err := src.Next(out, 16)
		if err != nil {
			log.Fatal(err)
		}
		if n == 0 {
			break
		}
	}
	for i := 0; i < out.Len(); i++ {
		if out.Vecs[0].I[i] == account {
			return out.Row(i)
		}
	}
	log.Fatalf("account %d not found", account)
	return nil
}

func balance(t *txn.Txn, account int64) int64 {
	return accountRow(t, account)[2].I
}
