// Package pdt implements the Positional Delta Tree of Héman et al. (SIGMOD
// 2010): a counted-B+-tree of differential updates (inserts, deletes and
// per-column modifies) organized by tuple position rather than by sort-key
// value.
//
// Every update entry carries the stable ID (SID) it applies to — its position
// in the underlying stable table image — and the tree's internal nodes carry
// per-child delta counters (#inserts − #deletes in the subtree), so an
// entry's current row ID (RID = SID + deltas of all entries before it) is
// computable in O(log n). Read queries merge updates in purely positionally
// (package-level MergeScan), never touching sort-key columns; update queries
// locate their target by RID; and the Propagate and Serialize operations make
// PDTs a building block for layered snapshot-isolation transactions.
//
// Tree nodes are persistent (copy-on-write): Snapshot returns an immutable
// O(1) view sharing the whole structure, and subsequent mutations of the
// origin path-copy only the nodes they touch, so snapshotting the Write-PDT
// per transaction costs O(1) instead of a deep copy.
package pdt

import (
	"fmt"

	"pdtstore/internal/types"
)

// Update-kind codes, following the paper's §3.1 layout: a 16-bit field whose
// two highest values mark inserts and deletes, with every other value naming
// the modified column. A table may therefore have up to 65534 columns.
const (
	// KindIns marks an insert entry.
	KindIns uint16 = 0xFFFF
	// KindDel marks a delete entry.
	KindDel uint16 = 0xFFFE
	// MaxColumns is the largest column count a PDT can describe.
	MaxColumns = int(KindDel)
)

// EncodedEntrySize is the per-update memory budget of the paper's packed C
// layout (8-byte SID + 2-byte type + 6-byte value reference).
const EncodedEntrySize = 16

// DefaultFanout mirrors the paper's choice of F=8 (leaf = two cache lines).
const DefaultFanout = 8

// kindShift returns the contribution of an update kind to the running delta.
func kindShift(kind uint16) int64 {
	switch kind {
	case KindIns:
		return 1
	case KindDel:
		return -1
	}
	return 0
}

// valueSpace holds the update payloads referenced from leaf entries: one
// insert table with full tuples, one delete table with the sort-key values of
// deleted ("ghost") stable tuples, and one single-column modify table per
// column (the paper's VALS, Eq. 7). Entries reference rows by offset;
// offsets are stable for the lifetime of the PDT.
type valueSpace struct {
	ins  []types.Row
	del  []types.Row
	mods [][]types.Value
}

func newValueSpace(numCols int) *valueSpace {
	return &valueSpace{mods: make([][]types.Value, numCols)}
}

func (vs *valueSpace) clone() *valueSpace {
	out := &valueSpace{
		ins:  make([]types.Row, len(vs.ins)),
		del:  make([]types.Row, len(vs.del)),
		mods: make([][]types.Value, len(vs.mods)),
	}
	for i, r := range vs.ins {
		if r != nil {
			out.ins[i] = r.Clone()
		}
	}
	for i, r := range vs.del {
		out.del[i] = r.Clone()
	}
	for c, col := range vs.mods {
		out.mods[c] = append([]types.Value(nil), col...)
	}
	return out
}

// share returns a new valueSpace struct whose slice headers are capacity-
// clamped views of vs's: reads see the same rows, but the first append to
// any table reallocates its backing array instead of growing into memory a
// snapshot may be reading. O(#columns), no payload copies.
func (vs *valueSpace) share() *valueSpace {
	out := &valueSpace{
		ins:  vs.ins[:len(vs.ins):len(vs.ins)],
		del:  vs.del[:len(vs.del):len(vs.del)],
		mods: make([][]types.Value, len(vs.mods)),
	}
	for c, col := range vs.mods {
		out.mods[c] = col[:len(col):len(col)]
	}
	return out
}

// PDT is a positional delta tree over a table with the given schema. The
// zero value is not usable; construct with New.
type PDT struct {
	schema *types.Schema
	fanout int
	root   node
	height int // levels incl. the leaf level; an empty tree has height 1
	cow    *cowTag
	vals   *valueSpace

	// valsOwned reports that vals (the struct and its slice headers) is
	// exclusively ours to append to. sharedPayload reports that the backing
	// arrays and rows behind those headers may be visible to a snapshot, so
	// stored payloads must be repointed, never overwritten in place. Both
	// flags are conservative: sharedPayload stays set for the PDT's lifetime
	// once any sharing has happened.
	valsOwned     bool
	sharedPayload bool

	nEntries int
	nIns     int
	nDel     int
	nMod     int
	deadIns  int // insert-space rows orphaned by delete-of-insert
}

// New returns an empty PDT for the schema. fanout <= 2 selects DefaultFanout.
func New(schema *types.Schema, fanout int) *PDT {
	if fanout < 3 {
		fanout = DefaultFanout
	}
	if schema.NumCols() > MaxColumns {
		panic(fmt.Sprintf("pdt: %d columns exceeds the 16-bit type field", schema.NumCols()))
	}
	cow := newCowTag()
	return &PDT{
		schema:    schema,
		fanout:    fanout,
		root:      &leaf{cow: cow},
		height:    1,
		cow:       cow,
		vals:      newValueSpace(schema.NumCols()),
		valsOwned: true,
	}
}

// Schema returns the table schema the PDT describes updates against.
func (t *PDT) Schema() *types.Schema { return t.schema }

// Count returns the number of update entries in the tree.
func (t *PDT) Count() int { return t.nEntries }

// Empty reports whether the PDT holds no updates.
func (t *PDT) Empty() bool { return t.nEntries == 0 }

// Counts returns the number of insert, delete and modify entries.
func (t *PDT) Counts() (ins, del, mod int) { return t.nIns, t.nDel, t.nMod }

// Delta returns the net change in table cardinality (#inserts − #deletes).
func (t *PDT) Delta() int64 {
	switch n := t.root.(type) {
	case *inner:
		var d int64
		for _, x := range n.deltas {
			d += x
		}
		return d
	case *leaf:
		var d int64
		for _, k := range n.kinds {
			d += kindShift(k)
		}
		return d
	}
	return 0
}

// MemBytes estimates the PDT's memory footprint using the paper's packed
// entry layout (16 bytes per entry) plus the value-space payload bytes.
func (t *PDT) MemBytes() uint64 {
	total := uint64(t.nEntries) * EncodedEntrySize
	for _, r := range t.vals.ins {
		total += rowBytes(r)
	}
	for _, r := range t.vals.del {
		total += rowBytes(r)
	}
	for _, col := range t.vals.mods {
		for _, v := range col {
			total += valueBytes(v)
		}
	}
	return total
}

func rowBytes(r types.Row) uint64 {
	var n uint64
	for _, v := range r {
		n += valueBytes(v)
	}
	return n
}

func valueBytes(v types.Value) uint64 {
	if w, ok := v.K.FixedWidth(); ok {
		return uint64(w)
	}
	return uint64(len(v.S)) + 4
}

// mutableVals returns the value space prepared for appends, lazily unsharing
// the slice headers if a snapshot still references the struct.
func (t *PDT) mutableVals() *valueSpace {
	if !t.valsOwned {
		t.vals = t.vals.share()
		t.valsOwned = true
	}
	return t.vals
}

// fork returns a PDT sharing t's entire structure without writing a single
// field of t — safe to call on a PDT other goroutines are reading. The fork
// carries a fresh ownership token, so its mutations path-copy away from the
// shared nodes. The contract is one-sided: t itself must never again be
// mutated in place (use Snapshot when the receiver keeps writing).
func (t *PDT) fork() *PDT {
	return &PDT{
		schema:        t.schema,
		fanout:        t.fanout,
		root:          t.root,
		height:        t.height,
		cow:           newCowTag(),
		vals:          t.vals,
		valsOwned:     false,
		sharedPayload: true,
		nEntries:      t.nEntries,
		nIns:          t.nIns,
		nDel:          t.nDel,
		nMod:          t.nMod,
		deadIns:       t.deadIns,
	}
}

// Snapshot returns an O(1) frozen copy of the PDT. The snapshot never
// changes; t remains fully mutable, path-copying shared nodes as it goes.
// Logically a deep copy at none of the cost: no nodes or payloads are copied
// until one side actually diverges.
func (t *PDT) Snapshot() *PDT {
	out := t.fork()
	// Retag the receiver as well: nodes stamped with the old tag are now
	// reachable from the snapshot and must no longer be mutated in place.
	t.cow = newCowTag()
	t.valsOwned = false
	t.sharedPayload = true
	return out
}

// InsertTuple returns the inserted tuple stored at insert-space offset off.
func (t *PDT) insertTuple(off uint64) types.Row { return t.vals.ins[off] }

// deleteKey returns the ghost sort-key values stored at delete-space offset.
func (t *PDT) deleteKey(off uint64) types.Row { return t.vals.del[off] }

// modValue returns the modify-space value for a column at the given offset.
func (t *PDT) modValue(col int, off uint64) types.Value { return t.vals.mods[col][off] }
