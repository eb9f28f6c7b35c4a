package engine

// Point access: the one positional key probe. Every key-addressed operation —
// Table/Txn/STxn.FindByKey, insert positions, DeleteByKey, UpdateByKey, the
// Query-PDT's statement-level inserts — resolves its target through Seek, so
// there is exactly one place that compares a search key against rows.

import (
	"fmt"

	"pdtstore/internal/colstore"
	"pdtstore/internal/pdt"
	"pdtstore/internal/types"
	"pdtstore/internal/vector"
)

// seekWindow is the row count of a probe's first window; each further window
// doubles it. The lower bound is exact on the stable image, so the first row
// of the first window is the answer unless delta layers put inserts with
// smaller keys, or a run of deletes, at the seek point.
const seekWindow = 16

// Seek locates key (the full sort key) in the image store ∘ layers: rid is the
// RID of the first visible tuple whose key is >= key — where a tuple with
// that key is, or would be inserted; the visible row count when every key is
// smaller — and exact reports whether that tuple's key equals key. When it
// does, row holds its values for cols, in order (nil when cols is empty:
// callers that only need the position project nothing beyond the sort key).
//
// The probe is positional. Store.LowerBound descends the sparse index and
// binary-searches one block's sort-key columns to the first stable SID whose
// key is >= key; every stable tuple and every layer insert before that SID
// has a smaller key, because ghosts keep the stable order valid (§2.1). The
// layer stack is then opened AT that SID — StackPDTs seeks each layer's
// cursor there carrying the running shift, exactly as a morsel open does, so
// inserts, ghosts and re-inserts of a deleted key at that SID are merged in
// by construction and RIDs are exact — over a scanner clamped to a small
// window, which decodes only the window's rows. Windows double until a row
// with key >= key appears: a long run of deletes, or of inserts at one SID
// with smaller keys (append-only key patterns), is walked linearly.
//
// Layers are bottom-to-top as for StackPDTs; nil and empty layers are skipped.
func Seek(store *colstore.Store, key types.Row, cols []int, layers ...*pdt.PDT) (rid uint64, row types.Row, exact bool, err error) {
	schema := store.Schema()
	if len(key) != len(schema.SortKey) {
		return 0, nil, false, fmt.Errorf("engine: Seek needs the full %d-column sort key, got %d values", len(schema.SortKey), len(key))
	}
	// Scan the sort key first (CompareKey then reads key[j] from vector j),
	// then whatever else the caller projects; slot maps cols into the batch.
	scanCols := append(make([]int, 0, len(schema.SortKey)+len(cols)), schema.SortKey...)
	slot := make([]int, len(cols))
	for i, c := range cols {
		if c < 0 || c >= schema.NumCols() {
			return 0, nil, false, fmt.Errorf("engine: column %d out of range (schema has %d columns)", c, schema.NumCols())
		}
		slot[i] = -1
		for j, sc := range scanCols {
			if sc == c {
				slot[i] = j
				break
			}
		}
		if slot[i] < 0 {
			slot[i] = len(scanCols)
			scanCols = append(scanCols, c)
		}
	}
	visible := int64(store.NRows())
	for _, l := range layers {
		if l != nil {
			visible += l.Delta()
		}
	}
	sid, err := store.LowerBound(key)
	if err != nil {
		return 0, nil, false, err
	}
	kinds := make([]types.Kind, len(scanCols))
	for i, c := range scanCols {
		kinds[i] = schema.Cols[c].Kind
	}
	b := vector.NewBatch(kinds, seekWindow)
	for w := uint64(seekWindow); ; w *= 2 {
		hi := min(sid+w, store.NRows())
		last := hi == store.NRows()
		src := StackPDTs(store.NewScanner(scanCols, sid, hi), scanCols, sid, last, layers...)
		for {
			b.Reset()
			n, err := src.Next(b, int(w))
			if err != nil {
				return 0, nil, false, err
			}
			if n == 0 {
				break
			}
			for i := 0; i < n; i++ {
				cmp := b.CompareKey(key, nil, i)
				if cmp > 0 {
					continue
				}
				if cmp == 0 && len(cols) > 0 {
					row = make(types.Row, len(cols))
					for j, s := range slot {
						row[j] = b.Vecs[s].Get(i)
					}
				}
				return b.Rids[i], row, cmp == 0, nil
			}
		}
		if last {
			return uint64(visible), nil, false, nil
		}
		sid = hi
	}
}
