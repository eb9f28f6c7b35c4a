package table

// Physical sharding: cutting one sorted stable image into key-range
// sub-images. The transaction layer's shard-per-core writes put each
// sub-image under its own manager (txn.Sharded); the helpers here pick the
// cut keys and stream the rows. Cuts are exact row-count quantiles read off
// the image itself — sort keys are unique, so the key at a cut SID is an
// exact boundary, and because every sub-image is rebuilt from row zero no
// block alignment is needed at the cuts.

import (
	"fmt"

	"pdtstore/internal/colstore"
	"pdtstore/internal/types"
	"pdtstore/internal/vector"
)

// ShardCuts picks n-1 split keys at the row-count quantiles of a stable
// image: cut i is the sort key of the row at SID i*nrows/n. The returned
// keys are strictly ascending full sort keys — shard i of the split owns
// keys below cut i. The image must hold at least n rows.
func ShardCuts(store *colstore.Store, n int) ([]types.Row, error) {
	if n < 1 {
		return nil, fmt.Errorf("table: shard count %d", n)
	}
	if n == 1 {
		return nil, nil
	}
	nrows := store.NRows()
	if nrows < uint64(n) {
		return nil, fmt.Errorf("table: cannot cut %d rows into %d shards", nrows, n)
	}
	schema := store.Schema()
	kinds := make([]types.Kind, len(schema.SortKey))
	for i, c := range schema.SortKey {
		kinds[i] = schema.Cols[c].Kind
	}
	keys := make([]types.Row, 0, n-1)
	buf := vector.NewBatch(kinds, 1)
	for i := 1; i < n; i++ {
		sid := uint64(i) * nrows / uint64(n)
		sc := store.NewScanner(schema.SortKey, sid, sid+1)
		buf.Reset()
		nr, err := sc.Next(buf, 1)
		if err != nil {
			return nil, err
		}
		if nr == 0 {
			return nil, fmt.Errorf("table: short read at SID %d", sid)
		}
		keys = append(keys, buf.Row(0).Clone())
	}
	return keys, nil
}

// SplitStore streams a stable image's rows into len(keys)+1 new images cut
// at the given ascending full-sort-key boundaries: image i receives the rows
// with key in [keys[i-1], keys[i]). mk supplies the destination builder for
// each sub-image (a builder without a path for tests and benchmarks, a file
// builder for the durable re-shard); builders for key ranges the image does not populate
// still run, producing valid empty sub-images. On error every unfinished
// builder is aborted.
func SplitStore(store *colstore.Store, keys []types.Row, mk func(i int) (*colstore.Builder, error)) ([]*colstore.Store, error) {
	schema := store.Schema()
	n := len(keys) + 1
	builders := make([]*colstore.Builder, n)
	abort := func() {
		for _, b := range builders {
			if b != nil {
				b.Abort()
			}
		}
	}
	for i := range builders {
		b, err := mk(i)
		if err != nil {
			abort()
			return nil, err
		}
		builders[i] = b
	}

	cols := make([]int, schema.NumCols())
	kinds := make([]types.Kind, len(cols))
	for i := range cols {
		cols[i] = i
		kinds[i] = schema.Cols[i].Kind
	}
	sc := store.NewScanner(cols, 0, store.NRows())
	buf := vector.NewBatch(kinds, 4096)
	cur := 0
	for {
		buf.Reset()
		nr, err := sc.Next(buf, 4096)
		if err != nil {
			abort()
			return nil, err
		}
		if nr == 0 {
			break
		}
		for r := 0; r < nr; r++ {
			row := buf.Row(r)
			key := schema.KeyOf(row)
			for cur < len(keys) && types.CompareRows(key, keys[cur]) >= 0 {
				cur++
			}
			if err := builders[cur].Add(row); err != nil {
				abort()
				return nil, err
			}
		}
	}

	stores := make([]*colstore.Store, n)
	for i, b := range builders {
		s, err := b.Finish()
		if err != nil {
			for _, fb := range builders[i:] {
				fb.Abort()
			}
			for _, fs := range stores[:i] {
				fs.Close()
			}
			return nil, err
		}
		builders[i] = nil
		stores[i] = s
	}
	return stores, nil
}

// ShardSplit is the in-memory convenience: quantile cuts plus a split into
// memory segments, returning the sub-images and the n-1 cut keys. Benchmarks and
// differential tests use it to stand up a sharded copy of a loaded table.
func ShardSplit(store *colstore.Store, n int, dev *colstore.Device, blockRows int, compressed bool) ([]*colstore.Store, []types.Row, error) {
	keys, err := ShardCuts(store, n)
	if err != nil {
		return nil, nil, err
	}
	schema := store.Schema()
	stores, err := SplitStore(store, keys, func(int) (*colstore.Builder, error) {
		return colstore.NewBuilder(schema, dev, blockRows, compressed), nil
	})
	if err != nil {
		return nil, nil, err
	}
	return stores, keys, nil
}
