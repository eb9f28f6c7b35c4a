// Batched updates: the paper's §6 bulk-load regime. A batch of inserts,
// deletes and modifies is sorted by sort key, every op's target position is
// resolved in ONE forward pass of the positional key probe over the visible
// image (engine.SeekKeys: a sparse-index lower bound and a small window per
// scattered key, one stretched window over dense ones), and the ops are
// applied to the positional delta structure in key order with a running
// shift — so the PDT receives its entries in (SID, RID) order, its cheapest
// insertion pattern.
//
// The same resolution pass serves Table.ApplyBatch (direct table updates)
// and Txn.ApplyBatch (transactional updates into a Trans-PDT): both are
// Stacked, so the resolver only sees "a stable image under PDT layers".
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
	// skipped, matching DeleteByKey's found=false).
	OpDelete
	// OpUpdate sets column Col of the visible tuple with sort key Key to
	// Val. Sort-key columns cannot be updated in a batch (express that as
	// delete+insert across two batches, or use UpdateByKey).
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

// SortOps validates a batch and returns it sorted into application order:
// ascending by target sort key, stable (ops on the same key keep their
// submitted order). Within one batch keys must be distinct, except that
// several OpUpdates may target the same key; richer same-key interaction
// (insert-then-modify, delete-then-reinsert) needs the row-at-a-time API,
// whose positions see each prior update. The input slice is not modified.
func SortOps(schema *types.Schema, ops []Op) ([]Op, error) {
	type keyed struct {
		op  Op
		key types.Row
	}
	sorted := make([]keyed, len(ops))
	for i, op := range ops {
		switch op.Kind {
		case OpInsert:
			if err := schema.ValidateRow(op.Row); err != nil {
				return nil, fmt.Errorf("table: batch op %d: %w", i, err)
			}
		case OpDelete:
			if len(op.Key) != len(schema.SortKey) {
				return nil, fmt.Errorf("table: batch op %d: delete needs the full %d-column sort key", i, len(schema.SortKey))
			}
		case OpUpdate:
			if len(op.Key) != len(schema.SortKey) {
				return nil, fmt.Errorf("table: batch op %d: update needs the full %d-column sort key", i, len(schema.SortKey))
			}
			if op.Col < 0 || op.Col >= schema.NumCols() {
				return nil, fmt.Errorf("table: batch op %d: column %d out of range", i, op.Col)
			}
			if schema.IsSortKeyCol(op.Col) {
				return nil, fmt.Errorf("table: batch op %d: sort-key column %q cannot be updated in a batch", i, schema.Cols[op.Col].Name)
			}
			if op.Val.K != schema.Cols[op.Col].Kind {
				return nil, fmt.Errorf("table: batch op %d: column %q expects %v, got %v", i, schema.Cols[op.Col].Name, schema.Cols[op.Col].Kind, op.Val.K)
			}
		default:
			return nil, fmt.Errorf("table: batch op %d: unknown kind %d", i, op.Kind)
		}
		sorted[i] = keyed{op: op, key: op.key(schema)}
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

// ApplyBatch applies a batch of updates, resolving all target positions in
// one forward probe pass (ModePDT). ModeVDT has no positions to resolve and applies
// the validated, sorted batch through the per-op path — the same batch
// contract (distinct keys, no sort-key updates) holds in every mode; ModeNone
// rejects. It returns the number of ops that took effect: delete/update
// misses are skipped, a duplicate-key insert aborts the batch with the
// earlier ops applied.
func (t *Table) ApplyBatch(ops []Op) (int, error) {
	switch t.opts.Mode {
	case ModeNone:
		return 0, fmt.Errorf("table: read-only (ModeNone)")
	case ModeVDT:
		sorted, err := SortOps(t.schema, ops)
		if err != nil {
			return 0, err
		}
		applied := 0
		for _, op := range sorted {
			switch op.Kind {
			case OpInsert:
				if err := t.Insert(op.Row); err != nil {
					return applied, err
				}
				applied++
			case OpDelete:
				ok, err := t.DeleteByKey(op.Key)
				if err != nil {
					return applied, err
				}
				if ok {
					applied++
				}
			case OpUpdate:
				ok, err := t.UpdateByKey(op.Key, op.Col, op.Val)
				if err != nil {
					return applied, err
				}
				if ok {
					applied++
				}
			default:
				return applied, fmt.Errorf("table: unknown op kind %d", op.Kind)
			}
		}
		return applied, nil
	case ModePDT:
		sorted, err := SortOps(t.schema, ops)
		if err != nil {
			return 0, err
		}
		pos, err := ResolveOps(t, sorted)
		if err != nil {
			return 0, err
		}
		return ApplyOps(t.PDT(), t.schema, sorted, pos)
	}
	return 0, fmt.Errorf("table: unknown mode")
}
