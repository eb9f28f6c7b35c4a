// Package table provides the ordered table image: a read-optimized stable
// column store plus a differential structure buffering updates (a PDT, a
// VDT, or none — the three configurations the paper evaluates against each
// other), range scans through the sparse index with on-the-fly merging, key
// lookups, one batched writer (ApplyBatch), and checkpointing that folds the
// deltas into a fresh stable image. The transaction layer keeps its own
// (image, Read-PDT) pair and uses only the package's batch resolution,
// dirty-set and image-build functions.
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
// loads the pair once per operation, so a Checkpoint swapping in a new image
// is never observed torn (a new store with the old delta, whose positions
// belong to the pre-swap image). Updates remain single-writer.
type Table struct {
	schema *types.Schema
	mode   DeltaMode
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
	t := &Table{schema: store.Schema(), mode: opts.Mode}
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
func (t *Table) Mode() DeltaMode { return t.mode }

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
	switch t.mode {
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
	switch t.mode {
	case ModePDT:
		return im.pdt.MemBytes()
	case ModeVDT:
		return im.vdt.MemBytes()
	}
	return 0
}

// allCols returns [0..numCols) of schema.
func allCols(schema *types.Schema) []int {
	cols := make([]int, schema.NumCols())
	for i := range cols {
		cols[i] = i
	}
	return cols
}

// Kinds returns the vector kinds for a column projection.
func (t *Table) Kinds(cols []int) []types.Kind { return kinds(t.schema, cols) }

// kinds returns the vector kinds of schema's columns cols.
func kinds(schema *types.Schema, cols []int) []types.Kind {
	out := make([]types.Kind, len(cols))
	for i, c := range cols {
		out[i] = schema.Cols[c].Kind
	}
	return out
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
	if err := t.checkRange(loKey, hiKey); err != nil {
		return nil, err
	}
	return engine.NewSource(t.spec(), cols, loKey, hiKey)
}

// checkRange validates a scan's bounds as sort-key prefixes.
func (t *Table) checkRange(loKey, hiKey types.Row) error {
	if err := t.schema.ValidateKey(loKey, true); err != nil {
		return err
	}
	return t.schema.ValidateKey(hiKey, true)
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
	if err := t.checkRange(loKey, hiKey); err != nil {
		return nil, err
	}
	return engine.PartitionSpec(t.spec(), loKey, hiKey), nil
}

// FindByKey locates the visible tuple with the given (full) sort key,
// returning its RID and current column values.
func (t *Table) FindByKey(key types.Row) (rid uint64, row types.Row, found bool, err error) {
	if err := t.schema.ValidateKey(key, false); err != nil {
		return 0, nil, false, err
	}
	im := t.img.Load()
	if t.mode == ModeVDT {
		return t.vdtFind(im, key)
	}
	rid, row, found, err = engine.Seek(im.store, key, allCols(t.schema), im.pdt)
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
	cols := allCols(t.schema)
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

// Checkpoint folds the buffered deltas into a brand-new stable image, in the
// current one's block geometry, and resets the differential structure (the
// paper's checkpointing step: the table image with all updates applied
// replaces TABLE0, and query processing switches over). The retired image's
// blocks are evicted from the device's buffer pool so repeated checkpoints
// don't leak pool entries.
func (t *Table) Checkpoint() error {
	if t.mode == ModeNone {
		return nil
	}
	old := t.img.Load()
	src, err := t.Scan(allCols(t.schema), nil, nil)
	if err != nil {
		return err
	}
	store, err := buildImage(t.schema, src, old.store.Device(), old.store.BlockRows(), old.store.Compressed())
	if err != nil {
		return err
	}
	next := &image{store: store}
	switch t.mode {
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
// segment, whatever the input's chain is made of — on the same device, in
// the store's block geometry. The inputs are only read, and the layers merge
// on the fly — no intermediate folded PDT is built. This is the transaction
// manager's in-memory checkpoint build; it runs without any lock while
// commits keep landing in a fresh delta layer.
func Materialize(store *colstore.Store, deltas ...*pdt.PDT) (*colstore.Store, error) {
	schema := store.Schema()
	cols := allCols(schema)
	src := engine.StackPDTs(store.NewScanner(cols, 0, store.NRows()), cols, 0, true, deltas...)
	return buildImage(schema, src, store.Device(), store.BlockRows(), store.Compressed())
}

// Materialize is the package function Materialize (the table plays no part).
func (t *Table) Materialize(store *colstore.Store, deltas ...*pdt.PDT) (*colstore.Store, error) {
	return Materialize(store, deltas...)
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
	buf := vector.NewBatch(kinds(schema, allCols(schema)), 4096)
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
