// Package table provides the updatable ordered table: a read-optimized
// stable column store image plus a differential structure buffering updates
// (a PDT, a VDT, or none — the three configurations the paper evaluates
// against each other), a key-level SQL-ish update API, range scans through
// the sparse index with on-the-fly merging, and checkpointing that folds the
// deltas into a fresh stable image.
package table

import (
	"fmt"
	"sync/atomic"

	"pdtstore/internal/colstore"
	"pdtstore/internal/engine"
	"pdtstore/internal/pdt"
	"pdtstore/internal/types"
	"pdtstore/internal/vdt"
	"pdtstore/internal/vector"
)

// DeltaMode selects the differential structure buffering updates.
type DeltaMode int

const (
	// ModePDT buffers updates positionally (the paper's contribution).
	ModePDT DeltaMode = iota
	// ModeVDT buffers updates by sort-key value (the baseline).
	ModeVDT
	// ModeNone forbids updates; scans read the stable image only (the
	// paper's "no-updates" reference runs).
	ModeNone
)

func (m DeltaMode) String() string {
	switch m {
	case ModePDT:
		return "PDT"
	case ModeVDT:
		return "VDT"
	case ModeNone:
		return "none"
	}
	return "?"
}

// Options configures a table.
type Options struct {
	Mode       DeltaMode
	Device     *colstore.Device // shared "disk"; nil = private device
	BlockRows  int              // values per column block (0 = default)
	Compressed bool             // compress stable blocks
}

// Table is an updatable ordered table. The stable image and its delta
// structure are published together behind one atomic pointer: every reader
// loads the pair once per operation, so a checkpoint install — including the
// transaction manager's *background* maintenance calling Install at an
// arbitrary moment — can never be observed torn (new store with the old
// delta, whose positions belong to the pre-swap image). Updates remain
// single-writer, as before.
type Table struct {
	schema *types.Schema
	opts   Options
	img    atomic.Pointer[image]
}

// image is one consistent (stable store, delta structure) pair.
type image struct {
	store *colstore.Store
	pdt   *pdt.PDT
	vdt   *vdt.VDT
}

// Load bulk-loads rows (must be in strict sort-key order) into a new table.
func Load(schema *types.Schema, rows []types.Row, opts Options) (*Table, error) {
	store, err := colstore.BulkLoad(schema, opts.Device, opts.BlockRows, opts.Compressed, rows)
	if err != nil {
		return nil, err
	}
	return FromStore(store, opts)
}

// LoadBatches bulk-loads from a batch source producing all schema columns in
// sort-key order (the fast path for generated datasets).
func LoadBatches(schema *types.Schema, src pdt.BatchSource, opts Options) (*Table, error) {
	store, err := buildImage(schema, src, opts.Device, opts.BlockRows, opts.Compressed)
	if err != nil {
		return nil, err
	}
	return FromStore(store, opts)
}

// FromStore wraps an existing stable image in a table.
func FromStore(store *colstore.Store, opts Options) (*Table, error) {
	t := &Table{schema: store.Schema(), opts: opts}
	im := &image{store: store}
	switch opts.Mode {
	case ModePDT:
		im.pdt = pdt.New(t.schema, pdt.DefaultFanout)
	case ModeVDT:
		im.vdt = vdt.New(t.schema)
	case ModeNone:
	default:
		return nil, fmt.Errorf("table: unknown delta mode %d", opts.Mode)
	}
	t.img.Store(im)
	return t, nil
}

// Schema returns the table schema.
func (t *Table) Schema() *types.Schema { return t.schema }

// Mode returns the delta mode.
func (t *Table) Mode() DeltaMode { return t.opts.Mode }

// Store returns the stable image (read-only).
func (t *Table) Store() *colstore.Store { return t.img.Load().store }

// PDT returns the positional delta tree, or nil outside ModePDT. The
// transaction layer builds its layered snapshots on top of this.
func (t *Table) PDT() *pdt.PDT { return t.img.Load().pdt }

// VDT returns the value-based delta tree, or nil outside ModeVDT.
func (t *Table) VDT() *vdt.VDT { return t.img.Load().vdt }

// NRows returns the visible row count (stable rows plus net delta).
func (t *Table) NRows() uint64 {
	im := t.img.Load()
	n := int64(im.store.NRows())
	switch t.opts.Mode {
	case ModePDT:
		n += im.pdt.Delta()
	case ModeVDT:
		n += im.vdt.Delta()
	}
	return uint64(n)
}

// DeltaMemBytes reports the memory held by the differential structure.
func (t *Table) DeltaMemBytes() uint64 {
	im := t.img.Load()
	switch t.opts.Mode {
	case ModePDT:
		return im.pdt.MemBytes()
	case ModeVDT:
		return im.vdt.MemBytes()
	}
	return 0
}

// allCols returns [0..numCols).
func (t *Table) allCols() []int {
	cols := make([]int, t.schema.NumCols())
	for i := range cols {
		cols[i] = i
	}
	return cols
}

// Kinds returns the vector kinds for a column projection.
func (t *Table) Kinds(cols []int) []types.Kind {
	kinds := make([]types.Kind, len(cols))
	for i, c := range cols {
		kinds[i] = t.schema.Cols[c].Kind
	}
	return kinds
}

// Scan returns a batch source producing the projected columns of all visible
// rows whose sort key lies in [loKey, hiKey] (nil bounds are open; bounds
// may be prefixes of the sort key). The source also emits RIDs. Range
// restriction uses the sparse index, so the scan may produce rows just
// outside the bounds (partial blocks); predicates re-filter downstream,
// exactly as with real zone maps. The pipeline itself lives in package
// engine: for a positional image (PDT or none) the source is the whole-range
// open of the very PartScan PartitionScan returns, and only a VDT with
// buffered updates gets the value-based merge. Table satisfies
// engine.Relation, so plans can be built directly over it.
func (t *Table) Scan(cols []int, loKey, hiKey types.Row) (pdt.BatchSource, error) {
	return engine.NewSource(t.spec(), cols, loKey, hiKey)
}

// spec pins one consistent (store, delta) image. An empty delta structure
// means the stable image is scanned directly (package engine checks): tables
// the update streams never touch behave exactly like clean runs, as the
// paper's footnote on Q2/Q11/Q16 requires.
func (t *Table) spec() engine.TableSpec {
	im := t.img.Load()
	return engine.TableSpec{Store: im.store, PDT: im.pdt, VDT: im.vdt}
}

// PartitionScan makes Table an engine.PartRelation: it pins one consistent
// (store, delta) image and returns block-aligned, range-clamped slices of
// its merge pipeline. Every worker of a plan opens its morsels against that
// single pinned image, so a checkpoint installing a new image mid-plan can
// never mix generations within one scan. VDT tables with buffered updates
// decline (nil PartScan) and run as one indivisible morsel over Scan. Like
// direct Scan, concurrent *updates* to the PDT are the caller's to
// serialize; the transaction layer's snapshots are the safe way to scan
// while writes proceed.
func (t *Table) PartitionScan(loKey, hiKey types.Row) (*engine.PartScan, error) {
	return engine.PartitionSpec(t.spec(), loKey, hiKey), nil
}

// FindByKey locates the visible tuple with the given (full) sort key,
// returning its RID and current column values.
func (t *Table) FindByKey(key types.Row) (rid uint64, row types.Row, found bool, err error) {
	if len(key) != len(t.schema.SortKey) {
		return 0, nil, false, fmt.Errorf("table: FindByKey needs the full %d-column sort key", len(t.schema.SortKey))
	}
	im := t.img.Load()
	if t.opts.Mode == ModeVDT {
		return t.vdtFind(im, key)
	}
	rid, row, found, err = engine.Seek(im.store, key, t.allCols(), im.pdt)
	if err != nil || !found {
		return 0, nil, false, err
	}
	return rid, row, true, nil
}

// vdtFind is the value-based baseline's key lookup: a VDT orders its updates
// by key, not position, so there is no stack to seek into — the probe merges
// the sparse-index range around key by value and stops at the first row at or
// past it. (Every positional image goes through engine.Seek instead.)
func (t *Table) vdtFind(im *image, key types.Row) (rid uint64, row types.Row, found bool, err error) {
	cols := t.allCols()
	src, err := engine.NewSource(engine.TableSpec{Store: im.store, VDT: im.vdt}, cols, key, key)
	if err != nil {
		return 0, nil, false, err
	}
	const probeBatch = 16
	b := vector.NewBatch(t.Kinds(cols), probeBatch)
	for {
		b.Reset()
		n, err := src.Next(b, probeBatch)
		if err != nil || n == 0 {
			return 0, nil, false, err
		}
		for i := 0; i < n; i++ {
			if cmp := b.CompareKey(key, t.schema.SortKey, i); cmp == 0 {
				return b.Rids[i], b.Row(i), true, nil
			} else if cmp < 0 {
				return 0, nil, false, nil // passed the key's position
			}
		}
	}
}

// stableHasKey reports whether the stable image contains the key (the probe
// bypasses the delta structure on purpose).
func (t *Table) stableHasKey(key types.Row) (found bool, err error) {
	_, _, found, err = engine.Seek(t.img.Load().store, key, nil)
	return found, err
}

// Insert adds a new tuple; its sort key must not be visible.
func (t *Table) Insert(row types.Row) error {
	if err := t.schema.ValidateRow(row); err != nil {
		return err
	}
	key := t.schema.KeyOf(row)
	im := t.img.Load()
	switch t.opts.Mode {
	case ModeNone:
		return fmt.Errorf("table: read-only (ModeNone)")
	case ModePDT:
		rid, _, dup, err := engine.Seek(im.store, key, nil, im.pdt)
		if err != nil {
			return err
		}
		if dup {
			return fmt.Errorf("table: duplicate key %v", key)
		}
		return im.pdt.Insert(rid, row)
	case ModeVDT:
		if _, ok := im.vdt.HasInsert(key); ok {
			return fmt.Errorf("table: duplicate key %v", key)
		}
		stable, err := t.stableHasKey(key)
		if err != nil {
			return err
		}
		if stable && !im.vdt.IsDeleted(key) {
			return fmt.Errorf("table: duplicate key %v", key)
		}
		return im.vdt.Insert(row)
	}
	return fmt.Errorf("table: unknown mode")
}

// DeleteByKey removes the visible tuple with the given sort key, reporting
// whether it existed.
func (t *Table) DeleteByKey(key types.Row) (bool, error) {
	im := t.img.Load()
	switch t.opts.Mode {
	case ModeNone:
		return false, fmt.Errorf("table: read-only (ModeNone)")
	case ModePDT:
		rid, _, found, err := engine.Seek(im.store, key, nil, im.pdt)
		if err != nil || !found {
			return false, err
		}
		return true, im.pdt.Delete(rid, key)
	case ModeVDT:
		_, inIns := im.vdt.HasInsert(key)
		stable, err := t.stableHasKey(key)
		if err != nil {
			return false, err
		}
		if !inIns && (!stable || im.vdt.IsDeleted(key)) {
			return false, nil
		}
		im.vdt.Delete(key, stable)
		return true, nil
	}
	return false, fmt.Errorf("table: unknown mode")
}

// UpdateByKey sets one column of the visible tuple with the given sort key.
// Updating a sort-key column is expressed as delete+insert, per the paper;
// the new key's uniqueness is checked before the delete, so a collision with
// an existing row rejects the update and leaves the old row in place.
func (t *Table) UpdateByKey(key types.Row, col int, val types.Value) (bool, error) {
	if t.opts.Mode == ModeNone {
		return false, fmt.Errorf("table: read-only (ModeNone)")
	}
	im := t.img.Load()
	if t.opts.Mode == ModePDT && !t.schema.IsSortKeyCol(col) {
		// A positional modify needs the row's RID and none of its values.
		rid, _, found, err := engine.Seek(im.store, key, nil, im.pdt)
		if err != nil || !found {
			return false, err
		}
		return true, im.pdt.Modify(rid, col, val)
	}
	_, row, found, err := t.FindByKey(key)
	if err != nil || !found {
		return false, err
	}
	if t.schema.IsSortKeyCol(col) {
		newRow := row.Clone()
		newRow[col] = val
		newKey := t.schema.KeyOf(newRow)
		if types.CompareRows(newKey, key) != 0 {
			if _, _, taken, err := t.FindByKey(newKey); err != nil {
				return false, err
			} else if taken {
				return false, fmt.Errorf("table: duplicate key %v", newKey)
			}
		}
		if _, err := t.DeleteByKey(key); err != nil {
			return false, err
		}
		return true, t.Insert(newRow)
	}
	stable, err := t.stableHasKey(key)
	if err != nil {
		return false, err
	}
	return true, im.vdt.Modify(row, col, val, stable)
}

// Checkpoint folds the buffered deltas into a brand-new stable image and
// resets the differential structure (the paper's checkpointing step: the
// table image with all updates applied replaces TABLE0, and query
// processing switches over). The retired image's blocks are evicted from the
// device's buffer pool so repeated checkpoints don't leak pool entries.
func (t *Table) Checkpoint() error {
	if t.opts.Mode == ModeNone {
		return nil
	}
	src, err := t.Scan(t.allCols(), nil, nil)
	if err != nil {
		return err
	}
	old := t.img.Load()
	store, err := buildImage(t.schema, src, old.store.Device(), t.opts.BlockRows, t.opts.Compressed)
	if err != nil {
		return err
	}
	next := &image{store: store}
	switch t.opts.Mode {
	case ModePDT:
		next.pdt = pdt.New(t.schema, pdt.DefaultFanout)
	case ModeVDT:
		next.vdt = vdt.New(t.schema)
	}
	t.img.Store(next)
	old.store.Evict()
	return nil
}

// Materialize streams the merged image of a stable store and a stack of
// consecutive PDT layers (bottom-to-top) into a brand-new store — one memory
// segment, whatever the input's chain is made of — on the same device, using
// the table's block geometry. The inputs are only read,
// and the layers merge on the fly — no intermediate folded PDT is built. This
// is the build step of the transaction manager's online checkpoint when no
// durable build is supplied; it runs without any lock while commits keep
// landing in a fresh delta layer.
func (t *Table) Materialize(store *colstore.Store, deltas ...*pdt.PDT) (*colstore.Store, error) {
	cols := t.allCols()
	src := engine.StackPDTs(store.NewScanner(cols, 0, store.NRows()), cols, 0, true, deltas...)
	return buildImage(t.schema, src, store.Device(), t.opts.BlockRows, t.opts.Compressed)
}

// Install atomically swaps in a checkpointed image and its differential
// layer (ModePDT only): the transaction manager's online checkpoint builds
// the new store via Materialize and hands the side delta that accumulated
// during the build. The swap publishes the pair as one unit, so readers
// racing a background install always see a consistent image; direct table
// *updates* remain the caller's to serialize, as ever.
func (t *Table) Install(store *colstore.Store, p *pdt.PDT) error {
	if t.opts.Mode != ModePDT {
		return fmt.Errorf("table: Install requires ModePDT, got %v", t.opts.Mode)
	}
	t.img.Store(&image{store: store, pdt: p})
	return nil
}

// buildImage drains a batch source of all schema columns, in sort-key order,
// into a new stable store.
func buildImage(schema *types.Schema, src pdt.BatchSource, dev *colstore.Device, blockRows int, compressed bool) (*colstore.Store, error) {
	b := colstore.NewBuilder(schema, dev, blockRows, compressed)
	if _, err := drainInto(b, schema, src); err != nil {
		return nil, err
	}
	return b.Finish()
}

// drainInto streams every batch of src into b without sealing it, and
// reports how many rows that was.
func drainInto(b *colstore.Builder, schema *types.Schema, src pdt.BatchSource) (uint64, error) {
	kinds := make([]types.Kind, schema.NumCols())
	for i, c := range schema.Cols {
		kinds[i] = c.Kind
	}
	buf := vector.NewBatch(kinds, 4096)
	var rows uint64
	for {
		buf.Reset()
		n, err := src.Next(buf, 4096)
		if err != nil || n == 0 {
			return rows, err
		}
		if err := b.AddBatch(buf); err != nil {
			return rows, err
		}
		rows += uint64(n)
	}
}
