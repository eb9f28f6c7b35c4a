package engine

// Point access: the one positional key probe. Every key-addressed operation —
// Table/Txn/STxn.FindByKey, the op targets of every ApplyBatch
// (table.ResolveOps, which a transaction's one-op Insert, DeleteByKey and
// UpdateByKey go through too), the stable-key checks of a VDT batch, a
// sort-key UpdateByKey's new key, and the Query-PDT's statement-level
// writes — resolves its targets through SeekKeys, of which Seek is the
// one-key case, so there is exactly one place that compares a search key
// against rows.

import (
	"fmt"
	"sort"

	"pdtstore/internal/colstore"
	"pdtstore/internal/pdt"
	"pdtstore/internal/types"
	"pdtstore/internal/vector"
)

// seekWindow is the row count of a probe's first window past a key's lower
// bound; each further window for the same key doubles it. The lower bound is
// exact on the stable image, so the first window — the lower-bound stable row
// and the layer rows that land at it — holds the answer unless delta layers
// put inserts with smaller keys, or a run of deletes, at the seek point.
const seekWindow = 1

// seekGap is how many stable rows per key a window stretches over to reach
// later keys: walking them costs about what a fresh stack open costs. Tests
// vary it.
var seekGap uint64 = 256

// Seek locates key (the full sort key) in the image store ∘ layers: it is
// SeekKeys over one key. When the key is found, row holds the tuple's values
// for cols, in order (nil when cols is empty: callers that only need the
// position project nothing beyond the sort key).
func Seek(store *colstore.Store, key types.Row, cols []int, layers ...*pdt.PDT) (rid uint64, row types.Row, exact bool, err error) {
	schema := store.Schema()
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
	err = seekKeys(store, []types.Row{key}, scanCols, layers, func(_ int, r uint64, found bool, b *vector.Batch, i int) {
		rid, exact = r, found
		if found && len(cols) > 0 {
			row = make(types.Row, len(cols))
			for j, s := range slot {
				row[j] = b.Vecs[s].Get(i)
			}
		}
	})
	if err != nil {
		return 0, nil, false, err
	}
	return rid, row, exact, nil
}

// SeekKeys locates every key of a sorted list (ascending, repeats allowed; each
// the full sort key) in the image store ∘ layers, in one forward pass, and
// calls at(j, rid, exact) for every key j in order: rid is the RID of the
// first visible tuple whose key is >= keys[j] — where a tuple with that key
// is, or would be inserted; the visible row count when every key is smaller —
// and exact reports whether that tuple's key equals it.
//
// The probe is positional. Probe.LowerBound descends the sparse index and
// binary-searches one block's sort-key columns to the first stable SID whose
// key is >= key; every stable tuple and every layer insert before that SID
// has a smaller key, because ghosts keep the stable order valid (§2.1). The
// layer stack is then opened AT that SID — StackPDTs seeks each layer's
// cursor there carrying the running shift, exactly as a morsel open does, so
// inserts, ghosts and re-inserts of a deleted key at that SID are merged in
// by construction and RIDs are exact — over a scanner clamped to a window,
// which decodes only the window's rows, straight into the probe's batch.
//
// A window reaches seekWindow rows past its key's lower bound (that one row
// and the layer rows that land at it) and stretches over later keys (probed
// at the 1st, 2nd, 4th, … key on) while their lower bounds stay within
// seekGap rows per key, so a dense batch (a load, a refresh) reads as one scan
// and a sparse one opens a one-row window per key. A key the open window holds
// continues its merge; a key past it gallops to its own lower bound. A window
// that ends before a row with key >= key appears is followed by one twice as
// wide (a run of deletes, or of inserts at one SID, is walked linearly). Once
// a window reaches the end of the store, every later key sits at the visible
// row count, with no further probe.
//
// Layers are bottom-to-top as for StackPDTs; nil and empty layers are skipped.
func SeekKeys(store *colstore.Store, keys []types.Row, at func(j int, rid uint64, exact bool), layers ...*pdt.PDT) error {
	return seekKeys(store, keys, store.Schema().SortKey, layers, func(j int, rid uint64, exact bool, _ *vector.Batch, _ int) {
		at(j, rid, exact)
	})
}

// seekKeys is SeekKeys reading cols (the sort key first) and handing each
// answer to hit; for an exact one, row i of b holds the tuple. b is pooled:
// it goes back to the pool once every key is answered (an error leaves it to
// the collector), so hit copies out what it keeps. One colstore.Probe reads
// the store for every key: a key's lower bound and the window opened at it
// share the probe's read plan of the key's block, so a cold block index is
// read in a few coalesced preads across all of cols.
func seekKeys(store *colstore.Store, keys []types.Row, cols []int, layers []*pdt.PDT, hit func(j int, rid uint64, found bool, b *vector.Batch, i int)) error {
	schema := store.Schema()
	kinds := make([]types.Kind, len(cols))
	for i, c := range cols {
		kinds[i] = schema.Cols[c].Kind
	}
	pool := poolFor(kinds, seekWindow)
	b := pool.Get()
	probe := store.NewProbe(cols)
	nrows := store.NRows()
	visible := int64(nrows)
	for _, l := range layers {
		if l != nil {
			visible += l.Delta()
		}
	}
	var src pdt.BatchSource // the open window; nil once drained
	var hi uint64           // the stable end of the last window opened
	last := false           // that window reaches the end of the store
	i := 0                  // the rows of b before i sort before the current key
	lbKey, lbSID := -1, uint64(0)
	lowerBound := func(t int) (uint64, error) {
		if t != lbKey {
			sid, err := probe.LowerBound(keys[t])
			if err != nil {
				return 0, err
			}
			lbKey, lbSID = t, sid
		}
		return lbSID, nil
	}
	for j, key := range keys {
		if err := schema.ValidateKey(key, false); err != nil {
			return fmt.Errorf("engine: key probe: %w", err)
		}
		for w := uint64(seekWindow); ; {
			at := i
			i += sort.Search(b.Len()-at, func(r int) bool { return b.CompareKey(key, nil, at+r) <= 0 })
			if i < b.Len() {
				hit(j, b.Rids[i], b.CompareKey(key, nil, i) == 0, b, i)
				break
			}
			b.Reset()
			i = 0
			if src != nil {
				n, err := src.Next(b, 1024) // a chunk of the window at a time
				if err != nil {
					return err
				}
				if n > 0 {
					continue
				}
				src = nil
			}
			if last {
				hit(j, uint64(visible), false, nil, -1)
				break
			}
			sid, err := lowerBound(j)
			if err != nil {
				return err
			}
			sid = max(sid, hi)
			end := sid + w
			for d, prev, ps := 1, j, sid; j+d < len(keys) && end < nrows; d *= 2 {
				s, err := lowerBound(j + d)
				if err != nil {
					return err
				}
				if s > ps+uint64(j+d-prev)*seekGap {
					break
				}
				end, prev, ps = max(end, s+seekWindow), j+d, s
			}
			hi = min(end, nrows)
			last = hi == nrows
			src = StackPDTs(probe.NewScanner(sid, hi), cols, sid, last, layers...)
			w *= 2
		}
	}
	probe.Release()
	pool.Put(b)
	return nil
}
