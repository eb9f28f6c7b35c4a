// Package vdt implements the paper's baseline: the Value-based Delta Tree.
// Updates are buffered in two sort-key-ordered B-trees — an insert table
// holding full tuples (inserted or modified) and a delete table holding the
// sort keys of deleted or modified stable tuples — and merged into scans by
// comparing sort-key values (MergeUnion/MergeDiff). Every scan must therefore
// read the sort-key columns of the stable table and perform per-tuple key
// comparisons, which is exactly the cost the PDT eliminates.
package vdt

import (
	"fmt"

	"pdtstore/internal/types"
	"pdtstore/internal/vector"
)

// VDT buffers differential updates organized by sort-key value.
type VDT struct {
	schema *types.Schema
	ins    *btree // SK -> full tuple (inserted and modified tuples)
	del    *btree // SK -> nil (deleted or modified stable tuples)
}

// New returns an empty VDT for the schema.
func New(schema *types.Schema) *VDT {
	return &VDT{schema: schema, ins: newBTree(), del: newBTree()}
}

// Schema returns the table schema.
func (v *VDT) Schema() *types.Schema { return v.schema }

// Counts returns the sizes of the insert and delete tables.
func (v *VDT) Counts() (ins, del int) { return v.ins.Len(), v.del.Len() }

// Empty reports whether the VDT holds no updates.
func (v *VDT) Empty() bool { return v.ins.Len() == 0 && v.del.Len() == 0 }

// Delta returns the net change in visible cardinality.
func (v *VDT) Delta() int64 { return int64(v.ins.Len()) - int64(v.del.Len()) }

// MemBytes estimates memory consumption: full tuples in the insert table and
// sort keys in the delete table.
func (v *VDT) MemBytes() uint64 {
	var total uint64
	for it := v.ins.iterAll(); it.valid(); it.advance() {
		total += rowBytes(it.value())
	}
	for it := v.del.iterAll(); it.valid(); it.advance() {
		total += rowBytes(it.key())
	}
	return total
}

func rowBytes(r types.Row) uint64 {
	var n uint64
	for _, val := range r {
		if w, ok := val.K.FixedWidth(); ok {
			n += uint64(w)
		} else {
			n += uint64(len(val.S)) + 4
		}
	}
	return n
}

// Insert buffers a newly inserted tuple. The key must not be visible
// (enforced by the table layer); re-inserting a deleted stable key is fine.
func (v *VDT) Insert(row types.Row) error {
	if err := v.schema.ValidateRow(row); err != nil {
		return err
	}
	key := v.schema.KeyOf(row)
	if _, ok := v.ins.get(key); ok {
		return fmt.Errorf("vdt: duplicate insert of key %v", key)
	}
	v.ins.set(key, row.Clone())
	return nil
}

// Delete buffers the deletion of the visible tuple with the given sort key.
// stable reports whether the tuple exists in the stable image (the table
// layer knows); for a freshly inserted tuple the insert is removed outright.
func (v *VDT) Delete(key types.Row, stable bool) {
	inInsert := v.ins.remove(key)
	if stable {
		v.del.set(key, nil)
	} else if !inInsert {
		// neither stable nor buffered: table-layer bug
		panic(fmt.Sprintf("vdt: delete of unknown key %v", key))
	}
}

// Modify buffers a single-column change of the visible tuple current (full
// row as currently visible). stable reports whether the tuple's storage home
// is the stable image, in which case it moves to the delete+insert pair (the
// MonetDB-style representation the paper describes).
func (v *VDT) Modify(current types.Row, col int, val types.Value, stable bool) error {
	if v.schema.IsSortKeyCol(col) {
		return fmt.Errorf("vdt: column %q is a sort-key column; modify must be delete+insert", v.schema.Cols[col].Name)
	}
	if val.K != v.schema.Cols[col].Kind {
		return fmt.Errorf("vdt: column %q expects %v, got %v", v.schema.Cols[col].Name, v.schema.Cols[col].Kind, val.K)
	}
	key := v.schema.KeyOf(current)
	updated := current.Clone()
	updated[col] = val
	if stable {
		v.del.set(key, nil)
	}
	v.ins.set(key, updated)
	return nil
}

// HasInsert reports whether key currently lives in the insert table.
func (v *VDT) HasInsert(key types.Row) (types.Row, bool) { return v.ins.get(key) }

// IsDeleted reports whether the stable tuple with key is deleted.
func (v *VDT) IsDeleted(key types.Row) bool {
	_, ok := v.del.get(key)
	return ok
}

// BatchSource produces rows in key order (same contract as pdt.BatchSource).
type BatchSource interface {
	Next(out *vector.Batch, max int) (int, error)
}

// MergeScan merges a stable scan with the VDT by comparing sort keys: a
// linear MergeUnion with the insert table and MergeDiff with the delete
// table. The source must produce the union of the requested columns and the
// sort-key columns — the defining I/O cost of the value-based approach.
type MergeScan struct {
	v       *VDT
	src     BatchSource
	srcCols []int // schema columns produced by src, in batch order
	outCols []int // requested projection (indexes into the schema)
	outIdx  []int // outCols[i] -> position within srcCols
	keyIdx  []int // sort-key columns -> position within srcCols

	insIt iter
	delIt iter
	hiKey types.Row // inclusive upper bound for draining trailing inserts
	rid   uint64

	buf     *vector.Batch
	bufPos  int
	srcDone bool
	done    bool
}

// NewMergeScan builds a value-based merge. srcCols lists the schema columns
// src produces (must include every sort-key column); outCols is the caller's
// projection. loKey/hiKey optionally bound the key range: iterators seek to
// loKey, and trailing inserts are drained only up to hiKey (inclusive).
// startRID is the RID of the first stable row of the range, already adjusted
// by the caller for preceding deltas (use RangeStartRID).
func NewMergeScan(v *VDT, src BatchSource, srcCols, outCols []int, loKey, hiKey types.Row, startRID uint64) (*MergeScan, error) {
	pos := make(map[int]int, len(srcCols))
	for i, c := range srcCols {
		pos[c] = i
	}
	outIdx := make([]int, len(outCols))
	for i, c := range outCols {
		p, ok := pos[c]
		if !ok {
			return nil, fmt.Errorf("vdt: projected column %d not produced by source", c)
		}
		outIdx[i] = p
	}
	keyIdx := make([]int, len(v.schema.SortKey))
	for i, c := range v.schema.SortKey {
		p, ok := pos[c]
		if !ok {
			return nil, fmt.Errorf("vdt: sort-key column %d not produced by source (value-based merge requires it)", c)
		}
		keyIdx[i] = p
	}
	kinds := make([]types.Kind, len(srcCols))
	for i, c := range srcCols {
		kinds[i] = v.schema.Cols[c].Kind
	}
	m := &MergeScan{
		v:       v,
		src:     src,
		srcCols: append([]int(nil), srcCols...),
		outCols: append([]int(nil), outCols...),
		outIdx:  outIdx,
		keyIdx:  keyIdx,
		hiKey:   hiKey,
		rid:     startRID,
		buf:     vector.NewBatch(kinds, 1024),
	}
	if loKey == nil {
		m.insIt = v.ins.iterAll()
		m.delIt = v.del.iterAll()
	} else {
		m.insIt = v.ins.iterFrom(loKey)
		m.delIt = v.del.iterFrom(loKey)
	}
	return m, nil
}

// RangeStartRID computes the RID of the first visible tuple at or after
// loKey: its stable SID adjusted by the delta-tree entries before it.
func (v *VDT) RangeStartRID(stableSIDsBefore uint64, loKey types.Row) uint64 {
	if loKey == nil {
		return 0
	}
	insBefore := v.ins.countLess(loKey)
	delBefore := v.del.countLess(loKey)
	return uint64(int64(stableSIDsBefore) + int64(insBefore) - int64(delBefore))
}

// stableKey extracts the sort key of buffered stable row i.
func (m *MergeScan) stableKey(i int) types.Row {
	key := make(types.Row, len(m.keyIdx))
	for k, p := range m.keyIdx {
		key[k] = m.buf.Vecs[p].Get(i)
	}
	return key
}

func (m *MergeScan) refill() (bool, error) {
	if m.bufPos < m.buf.Len() {
		return true, nil
	}
	if m.srcDone {
		return false, nil
	}
	m.buf.Reset()
	m.bufPos = 0
	n, err := m.src.Next(m.buf, 1024)
	if err != nil {
		return false, err
	}
	if n == 0 {
		m.srcDone = true
		return false, nil
	}
	return true, nil
}

func (m *MergeScan) emitInsert(out *vector.Batch, row types.Row) {
	for i, c := range m.outCols {
		out.Vecs[i].Append(row[c])
	}
	out.Rids = append(out.Rids, m.rid)
	m.rid++
}

// Next emits up to max merged rows; 0 means done. out must have one vector
// per outCols entry.
func (m *MergeScan) Next(out *vector.Batch, max int) (int, error) {
	if m.done {
		return 0, nil
	}
	produced := 0
	for produced < max {
		ok, err := m.refill()
		if err != nil {
			return produced, err
		}
		if !ok {
			// Stable range exhausted: drain qualifying trailing inserts.
			for produced < max && m.insIt.valid() {
				if m.hiKey != nil && types.CompareRows(m.insIt.key(), m.hiKey) > 0 {
					break
				}
				m.emitInsert(out, m.insIt.value())
				m.insIt.advance()
				produced++
			}
			if produced < max {
				m.done = true
			}
			return produced, nil
		}
		key := m.stableKey(m.bufPos)
		// MergeUnion: inserted tuples with smaller keys come first.
		if m.insIt.valid() && types.CompareRows(m.insIt.key(), key) < 0 {
			m.emitInsert(out, m.insIt.value())
			m.insIt.advance()
			produced++
			continue
		}
		// MergeDiff: skip stable tuples present in the delete table.
		for m.delIt.valid() && types.CompareRows(m.delIt.key(), key) < 0 {
			m.delIt.advance()
		}
		if m.delIt.valid() && types.CompareRows(m.delIt.key(), key) == 0 {
			m.bufPos++
			m.delIt.advance()
			continue
		}
		for i, p := range m.outIdx {
			switch vec := m.buf.Vecs[p]; vec.Kind {
			case types.Float64:
				out.Vecs[i].F = append(out.Vecs[i].F, vec.F[m.bufPos])
			case types.String:
				out.Vecs[i].S = append(out.Vecs[i].S, vec.S[m.bufPos])
			default:
				out.Vecs[i].I = append(out.Vecs[i].I, vec.I[m.bufPos])
			}
		}
		out.Rids = append(out.Rids, m.rid)
		m.rid++
		m.bufPos++
		produced++
	}
	return produced, nil
}
