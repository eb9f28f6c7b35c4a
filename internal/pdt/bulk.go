package pdt

// bulkBuilder constructs a PDT's tree bottom-up from entries supplied in
// (SID, RID) order, used by Fold, Serialize and Rebuild.
// It fills leaves to the fanout and then stacks internal levels, computing
// deltas and separators in one pass.
//
// When the caller knows an upper bound on the entry count (every current
// caller does), reserve() carves all leaves out of contiguous slabs — one
// []leaf plus one backing array per triplet column — so building a tree of n
// entries costs O(1) allocations per level instead of O(n/fanout). Leaves
// keep full three-index slices into the slabs, so later point updates that
// overflow a leaf reallocate that leaf's arrays without disturbing its
// neighbours.
type bulkBuilder struct {
	t      *PDT
	leaves []*leaf
	cur    *leaf

	slab     []leaf
	sidSlab  []uint64
	kindSlab []uint16
	valSlab  []uint64
}

func newBulkBuilder(t *PDT) *bulkBuilder {
	return &bulkBuilder{t: t}
}

// reserve pre-allocates leaf slabs for up to n entries. Appending more than
// n entries stays correct: overflow leaves fall back to individual
// allocations.
func (b *bulkBuilder) reserve(n int) {
	if n <= 0 {
		return
	}
	nLeaves := (n + b.t.fanout - 1) / b.t.fanout
	b.slab = make([]leaf, nLeaves)
	b.sidSlab = make([]uint64, nLeaves*b.t.fanout)
	b.kindSlab = make([]uint16, nLeaves*b.t.fanout)
	b.valSlab = make([]uint64, nLeaves*b.t.fanout)
	if cap(b.leaves) < nLeaves {
		b.leaves = make([]*leaf, 0, nLeaves)
	}
}

func (b *bulkBuilder) newLeaf() *leaf {
	if len(b.slab) == 0 {
		return &leaf{cow: b.t.cow}
	}
	lf := &b.slab[0]
	b.slab = b.slab[1:]
	lf.cow = b.t.cow
	f := b.t.fanout
	lf.sids, b.sidSlab = b.sidSlab[:0:f], b.sidSlab[f:]
	lf.kinds, b.kindSlab = b.kindSlab[:0:f], b.kindSlab[f:]
	lf.vals, b.valSlab = b.valSlab[:0:f], b.valSlab[f:]
	return lf
}

func (b *bulkBuilder) append(sid uint64, kind uint16, val uint64) {
	if b.cur == nil || b.cur.count() == b.t.fanout {
		b.cur = b.newLeaf()
		b.leaves = append(b.leaves, b.cur)
	}
	b.cur.sids = append(b.cur.sids, sid)
	b.cur.kinds = append(b.cur.kinds, kind)
	b.cur.vals = append(b.cur.vals, val)
	b.t.nEntries++
	switch kind {
	case KindIns:
		b.t.nIns++
	case KindDel:
		b.t.nDel++
	default:
		b.t.nMod++
	}
}

func (b *bulkBuilder) finish() {
	t := b.t
	if len(b.leaves) == 0 {
		t.root = &leaf{cow: t.cow}
		t.height = 1
		return
	}

	level := make([]node, len(b.leaves))
	mins := make([]uint64, len(b.leaves))
	deltas := make([]int64, len(b.leaves))
	for i, lf := range b.leaves {
		level[i] = lf
		mins[i] = lf.sids[0]
		deltas[i] = lf.localDelta()
	}
	height := 1
	for len(level) > 1 {
		height++
		// One inner slab per level: node structs plus the per-child delta
		// backing array. Children slices alias the level slice itself (full
		// slice expressions, so a later split reallocates instead of
		// clobbering a sibling); separators alias the mins array.
		nNodes := (len(level) + t.fanout - 1) / t.fanout
		inners := make([]inner, nNodes)
		deltaSlab := make([]int64, len(level))
		copy(deltaSlab, deltas)
		sepSlab := make([]uint64, len(level))
		copy(sepSlab, mins)
		nextMins := mins[:0]
		nextDeltas := deltas[:0]
		for k := 0; k < nNodes; k++ {
			i := k * t.fanout
			j := i + t.fanout
			if j > len(level) {
				j = len(level)
			}
			in := &inners[k]
			in.cow = t.cow
			in.children = level[i:j:j]
			in.seps = sepSlab[i+1 : j : j]
			in.deltas = deltaSlab[i:j:j]
			var sum int64
			for _, d := range in.deltas {
				sum += d
			}
			min0 := mins[i]
			nextMins = append(nextMins, min0)
			nextDeltas = append(nextDeltas, sum)
		}
		nextLevel := make([]node, nNodes)
		for k := range inners {
			nextLevel[k] = &inners[k]
		}
		level, mins, deltas = nextLevel, nextMins[:nNodes], nextDeltas[:nNodes]
	}
	t.root = level[0]
	t.height = height
}
