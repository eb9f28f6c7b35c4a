package txn

// The Query-PDT: the paper's optional fourth layer (§3.3, footnote 5). Some
// statements — e.g. an UPDATE whose scan must not observe the rows it is
// itself inserting (the "Halloween problem") — need protection from their
// own writes. Such a statement stacks a private, initially empty Query-PDT
// on top of the Trans-PDT, reads through the frozen four-layer view, writes
// only into the Query-PDT, and on Finish propagates it into the Trans-PDT.

import (
	"fmt"

	"pdtstore/internal/engine"
	"pdtstore/internal/pdt"
	"pdtstore/internal/types"
)

// Query is one self-protected statement inside a transaction.
type Query struct {
	txn  *Txn
	qpdt *pdt.PDT
	done bool
}

// BeginQuery starts a statement whose reads are frozen at the transaction's
// current state and whose writes buffer privately until Finish.
func (t *Txn) BeginQuery() (*Query, error) {
	if t.done {
		return nil, ErrTxnDone
	}
	return &Query{txn: t, qpdt: pdt.New(t.mgr.schema, 0)}, nil
}

// Schema returns the table schema (making Query an engine.Relation).
func (q *Query) Schema() *types.Schema { return q.txn.mgr.schema }

// Scan reads through the statement's frozen view: the transaction's three
// layers — Equation 9 — without the statement's own pending writes. (The
// Query-PDT is deliberately absent from the stack; that is its purpose.)
func (q *Query) Scan(cols []int, loKey, hiKey types.Row) (pdt.BatchSource, error) {
	if q.done {
		return nil, ErrTxnDone
	}
	return q.txn.Scan(cols, loKey, hiKey)
}

// PartitionScan makes Query an engine.PartRelation over the same frozen
// three-layer view Scan reads (the Query-PDT stays out of the stack), so a
// statement's big reads parallelize with the identical Halloween protection.
func (q *Query) PartitionScan(loKey, hiKey types.Row) (*engine.PartScan, error) {
	if q.done {
		return nil, ErrTxnDone
	}
	return q.txn.PartitionScan(loKey, hiKey)
}

// Insert buffers an insert in the Query-PDT, positioned against the frozen
// view — repeated scans will not observe it, so a statement that inserts
// what it selects cannot chase its own output.
func (q *Query) Insert(row types.Row) error {
	if q.done {
		return ErrTxnDone
	}
	schema := q.txn.mgr.schema
	if err := schema.ValidateRow(row); err != nil {
		return err
	}
	key := schema.KeyOf(row)
	// The slot in the statement's *current* domain: the transaction's pinned
	// layers with the Query-PDT as one more layer on top.
	rid, _, dup, err := q.txn.seek(key, nil, q.qpdt)
	if err != nil {
		return err
	}
	if dup {
		return fmt.Errorf("txn: %w %v", types.ErrDuplicateKey, key)
	}
	return q.qpdt.Insert(rid, row)
}

// DeleteByKey buffers a delete of a tuple visible in the frozen view.
// Deleting the same tuple twice within one statement reports not-found the
// second time (it is already a ghost in the Query-PDT).
func (q *Query) DeleteByKey(key types.Row) (bool, error) {
	if q.done {
		return false, ErrTxnDone
	}
	rid, _, found, err := q.txn.seek(key, nil)
	if err != nil || !found {
		return false, err
	}
	cur, ghost := q.qpdt.SidToRid(rid)
	if ghost {
		return false, nil
	}
	return true, q.qpdt.Delete(cur, key)
}

// UpdateByKey buffers a single-column update of a frozen-view tuple.
func (q *Query) UpdateByKey(key types.Row, col int, val types.Value) (bool, error) {
	if q.done {
		return false, ErrTxnDone
	}
	rid, _, found, err := q.txn.seek(key, nil)
	if err != nil || !found {
		return false, err
	}
	cur, ghost := q.qpdt.SidToRid(rid)
	if ghost {
		return false, nil
	}
	return true, q.qpdt.Modify(cur, col, val)
}

// Pending returns the number of updates buffered so far.
func (q *Query) Pending() int { return q.qpdt.Count() }

// Finish folds the statement's buffered updates into a new Trans-PDT, making
// them visible to the rest of the transaction. A scan opened before Finish
// keeps reading the tree it pinned.
func (q *Query) Finish() error {
	if q.done {
		return ErrTxnDone
	}
	q.done = true
	trans, err := pdt.FoldSnap(q.txn.trans, q.qpdt)
	if err != nil {
		return err
	}
	q.txn.trans = trans
	return nil
}

// Discard drops the statement's buffered updates (statement-level rollback).
func (q *Query) Discard() {
	q.done = true
}
