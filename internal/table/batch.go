// Batched updates: the paper's §6 bulk-load regime, and the one way a
// key-level update reaches a delta structure. A batch of inserts, deletes and
// modifies is sorted by sort key, every op's target position is resolved in
// ONE forward pass of the positional key probe over the visible image
// (engine.SeekKeys: a sparse-index lower bound and a small window per
// scattered key, one stretched window over dense ones), and the ops are
// applied to the positional delta structure in key order with a running
// shift — so the PDT receives its entries in (SID, RID) order, its cheapest
// insertion pattern.
//
// SortOps → ResolveOps → ApplyOps serves Table.ApplyBatch (direct table
// updates) and Txn.ApplyBatch (transactional updates into a Trans-PDT, and
// every one-op write of a transaction): both are Stacked, so the resolver
// only sees "a stable image under PDT layers".
package table

import (
	"fmt"
	"sort"

	"pdtstore/internal/colstore"
	"pdtstore/internal/engine"
	"pdtstore/internal/pdt"
	"pdtstore/internal/types"
)

// OpKind selects what a batched Op does.
type OpKind uint8

const (
	// OpInsert adds Row (whose key must not be visible).
	OpInsert OpKind = iota
	// OpDelete removes the visible tuple with sort key Key (a miss is
	// skipped and not counted).
	OpDelete
	// OpUpdate sets column Col of the visible tuple with sort key Key to
	// Val. Sort-key columns cannot be updated in a batch: express that as a
	// delete and an insert in two batches, or use a transaction's
	// UpdateByKey, which moves the tuple.
	OpUpdate
)

// Op is one update of a batch.
type Op struct {
	Kind OpKind
	Row  types.Row   // OpInsert: the full tuple
	Key  types.Row   // OpDelete/OpUpdate: the full sort key
	Col  int         // OpUpdate: column to set
	Val  types.Value // OpUpdate: new value
}

// key returns the sort key the op targets.
func (o Op) key(schema *types.Schema) types.Row {
	if o.Kind == OpInsert {
		return schema.KeyOf(o.Row)
	}
	return o.Key
}

// Target validates what the op names of its tuple — the whole row of an
// insert, the full sort key of a delete or an update — and returns the
// tuple's sort key. SortOps checks every op with it, and a sharded
// transaction routes each op by it.
func (o Op) Target(schema *types.Schema) (types.Row, error) {
	switch o.Kind {
	case OpInsert:
		if err := schema.ValidateRow(o.Row); err != nil {
			return nil, err
		}
	case OpDelete, OpUpdate:
		if err := schema.ValidateKey(o.Key, false); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("table: unknown op kind %d", o.Kind)
	}
	return o.key(schema), nil
}

// SortOps validates a batch and returns it sorted into application order:
// ascending by target sort key, stable (ops on the same key keep their
// submitted order). Within one batch keys must be distinct, except that
// several OpUpdates may target the same key; richer same-key interaction
// (insert-then-modify, delete-then-reinsert) takes one batch per step, each
// resolved against the image the previous one left. The input slice is not
// modified.
func SortOps(schema *types.Schema, ops []Op) ([]Op, error) {
	type keyed struct {
		op  Op
		key types.Row
	}
	sorted := make([]keyed, len(ops))
	for i, op := range ops {
		key, err := op.Target(schema)
		if err != nil {
			return nil, fmt.Errorf("table: batch op %d: %w", i, err)
		}
		if op.Kind == OpUpdate {
			if op.Col < 0 || op.Col >= schema.NumCols() {
				return nil, fmt.Errorf("table: batch op %d: column %d out of range", i, op.Col)
			}
			if schema.IsSortKeyCol(op.Col) {
				return nil, fmt.Errorf("table: batch op %d: sort-key column %q cannot be updated in a batch", i, schema.Cols[op.Col].Name)
			}
			if op.Val.K != schema.Cols[op.Col].Kind {
				return nil, fmt.Errorf("table: batch op %d: column %q expects %v, got %v", i, schema.Cols[op.Col].Name, schema.Cols[op.Col].Kind, op.Val.K)
			}
		}
		sorted[i] = keyed{op: op, key: key}
	}
	sort.SliceStable(sorted, func(i, j int) bool {
		return types.CompareRows(sorted[i].key, sorted[j].key) < 0
	})
	out := make([]Op, len(sorted))
	for i, k := range sorted {
		out[i] = k.op
		if i > 0 && types.CompareRows(sorted[i-1].key, k.key) == 0 &&
			(sorted[i-1].op.Kind != OpUpdate || k.op.Kind != OpUpdate) {
			return nil, fmt.Errorf("table: batch has conflicting ops on key %v", k.key)
		}
	}
	return out, nil
}

// OpPos is one resolved op target: the RID the op applies at in the
// pre-batch image, and whether a visible tuple with the op's key exists.
// For a miss, RID is where a tuple with that key would be inserted.
type OpPos struct {
	RID   uint64
	Found bool
}

// Stacked is an image a batch resolves against: a pinned stable store and
// the PDT layers over it, bottom to top. Table and txn.Txn are Stacked.
type Stacked interface {
	Stack() (*colstore.Store, []*pdt.PDT)
}

// Stack pins the table's positional image: its store under its one PDT (nil
// in ModeVDT and ModeNone, whose stack is the stable image alone).
func (t *Table) Stack() (*colstore.Store, []*pdt.PDT) {
	im := t.img.Load()
	return im.store, []*pdt.PDT{im.pdt}
}

// ResolveOps resolves the target position of every op of a sorted batch in
// one forward pass over img's stack: engine.SeekKeys over the op keys, which
// opens a small window at each key's stable lower bound and stretches one
// window over keys that lie close together. ops must be the output of
// SortOps.
func ResolveOps(img Stacked, ops []Op) ([]OpPos, error) {
	store, layers := img.Stack()
	schema := store.Schema()
	keys := make([]types.Row, len(ops))
	for i, op := range ops {
		keys[i] = op.key(schema)
	}
	pos := make([]OpPos, len(ops))
	if err := engine.SeekKeys(store, keys, func(j int, rid uint64, found bool) { pos[j] = OpPos{RID: rid, Found: found} }, layers...); err != nil {
		return nil, err
	}
	return pos, nil
}

// ApplyOps applies a sorted, resolved batch to a positional delta tree,
// carrying the net shift of the batch's own inserts and deletes so each op
// lands at its position in the evolving image. It reports how many ops took
// effect (delete/update misses are skipped). A duplicate-key insert aborts
// with an error, leaving the earlier ops applied — transactional callers
// discard the Trans-PDT, direct callers inspect the count.
func ApplyOps(p *pdt.PDT, schema *types.Schema, ops []Op, pos []OpPos) (int, error) {
	applied := 0
	var shift int64
	for i, op := range ops {
		rid := uint64(int64(pos[i].RID) + shift)
		switch op.Kind {
		case OpInsert:
			if pos[i].Found {
				return applied, fmt.Errorf("table: duplicate key %v", op.key(schema))
			}
			if err := p.Insert(rid, op.Row); err != nil {
				return applied, err
			}
			shift++
			applied++
		case OpDelete:
			if !pos[i].Found {
				continue
			}
			if err := p.Delete(rid, op.Key); err != nil {
				return applied, err
			}
			shift--
			applied++
		case OpUpdate:
			if !pos[i].Found {
				continue
			}
			if err := p.Modify(rid, op.Col, op.Val); err != nil {
				return applied, err
			}
			applied++
		}
	}
	return applied, nil
}

// ApplyBatch is the table's one writer: it validates and sorts a batch
// (SortOps) and applies it to the mode's delta structure. ModePDT resolves
// every target position in one forward probe pass (ResolveOps, ApplyOps);
// ModeVDT has no positions to resolve and applies the sorted ops by key
// (applyVDT); ModeNone rejects. The same batch contract (distinct keys, no
// sort-key updates) holds in every mode. It returns the number of ops that
// took effect: delete/update misses are skipped, a duplicate-key insert
// aborts the batch with the earlier ops applied.
func (t *Table) ApplyBatch(ops []Op) (int, error) {
	if t.mode == ModeNone {
		return 0, fmt.Errorf("table: read-only (ModeNone)")
	}
	sorted, err := SortOps(t.schema, ops)
	if err != nil {
		return 0, err
	}
	if t.mode == ModeVDT {
		return t.applyVDT(sorted)
	}
	pos, err := ResolveOps(t, sorted)
	if err != nil {
		return 0, err
	}
	return ApplyOps(t.PDT(), t.schema, sorted, pos)
}

// applyVDT applies a sorted batch to the value-based baseline. A VDT keys its
// updates by value, so each op asks the stable image whether it holds the key
// (bypassing the VDT on purpose) and the VDT whether it buffers an insert or
// a delete of it: an insert needs the key invisible (a deleted stable key may
// come back), a delete or an update a visible tuple, whose current values an
// update reads from the VDT's insert or else from the stable image.
func (t *Table) applyVDT(ops []Op) (int, error) {
	im := t.img.Load()
	applied := 0
	for _, op := range ops {
		key := op.key(t.schema)
		var cols []int
		if op.Kind == OpUpdate {
			cols = allCols(t.schema)
		}
		_, row, stable, err := engine.Seek(im.store, key, cols)
		if err != nil {
			return applied, err
		}
		visible := stable && !im.vdt.IsDeleted(key)
		if ins, ok := im.vdt.HasInsert(key); ok {
			row, visible = ins, true
		}
		switch op.Kind {
		case OpInsert:
			if visible {
				return applied, fmt.Errorf("table: duplicate key %v", key)
			}
			err = im.vdt.Insert(op.Row)
		case OpDelete:
			if !visible {
				continue
			}
			im.vdt.Delete(key, stable)
		case OpUpdate:
			if !visible {
				continue
			}
			err = im.vdt.Modify(row, op.Col, op.Val, stable)
		}
		if err != nil {
			return applied, err
		}
		applied++
	}
	return applied, nil
}
