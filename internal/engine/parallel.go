package engine

// Morsel-driven parallel scans. A relation that can slice its positional
// merge pipeline by stable-SID range (PartRelation) is carved into
// block-aligned morsels pulled from a shared atomic queue; each worker runs a
// private copy of the plan's pipeline — own source cursors, own batch, own
// selection vector — over the morsels it claims. PDT layers make this exact:
// every layer cursor seeks to the morsel's start SID carrying the running
// shift in, and only the range's last morsel includes delta entries sitting
// exactly on its end boundary, so each insert, delete and modify is owned by
// exactly one morsel and concatenating morsel outputs in morsel order
// reproduces the serial scan row for row, RID for RID.
//
// Three sinks consume the partitioned pipeline:
//
//   - Run delivers batches to the caller in serial order via sequence-stamped
//     handoff: workers tag each produced batch with its morsel index, a
//     single delivery loop on the caller's goroutine releases them in morsel
//     order, and per-worker fixed slot pools bound memory without deadlock
//     (a worker claims morsels in increasing order, so its outstanding slots
//     always belong to morsels at or before the delivery head).
//   - Collect appends each morsel's survivors into per-worker output batches
//     and stitches the recorded (morsel, start, end) segments back together
//     in morsel order — exact serial output with no handoff at all.
//   - RunPartitioned trades ordering for scheduling freedom: batches arrive
//     tagged with their morsel ("part") index, each part is processed by
//     exactly one worker, and merging per-part partial states in part order
//     afterwards is deterministic regardless of how morsels landed on
//     workers.

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"pdtstore/internal/pdt"
	"pdtstore/internal/types"
	"pdtstore/internal/vector"
)

// Tuning knobs for automatic parallelism. Plans that do not call Parallel go
// parallel only when their relation supports partitioning and the stable SID
// span of the scan is at least ParallelThreshold rows; DefaultWorkers is the
// worker count used then (0 means runtime.GOMAXPROCS(0)). They are variables
// so benchmarks and differential tests can force tiny scans parallel.
var (
	DefaultWorkers    = 0
	ParallelThreshold = 128 << 10
)

// minParallelBatch keeps early-stop plans serial: a plan that asks for very
// small batches means to stop after a handful of rows, so it never
// auto-parallelizes, whatever the table size — fanning workers across the
// whole tail of a table to find one row would invert the optimization. (Key
// probes do not run plans at all; see Seek.)
const minParallelBatch = 256

const (
	morselsPerWorker = 4 // work-stealing granularity of the morsel queue
	slotsPerWorker   = 4 // in-flight batches per worker in the ordered handoff
)

// PartScan is a partitionable scan: the stable-SID bounds of the range, the
// block alignment unit, and a factory opening the merged source for one
// [lo, hi) sub-range. Open must be safe for concurrent calls; last is true
// only for the morsel ending at Hi, which alone includes delta entries
// sitting exactly on its end boundary (every other morsel defers them to the
// neighbour that starts there).
type PartScan struct {
	Lo, Hi uint64
	Unit   int
	// Cuts are hard partition boundaries strictly inside (Lo, Hi): morsels
	// never span a cut, so each Open call's [lo, hi) range falls entirely
	// within one inter-cut segment. A sharded relation places a cut at
	// every shard boundary of its concatenated domain and routes each
	// morsel to the one shard that owns it. Cuts must be ascending.
	Cuts []uint64
	Open func(cols []int, lo, hi uint64, last bool) (pdt.BatchSource, error)
	// Prune, when non-nil, resolves the plan's typed predicates against the
	// relation's zone maps and secondary indexes before any block is opened
	// (see PruneBlocks). Returning nil declines pruning for this scan.
	Prune func(preds []Pred) *PruneResult
}

// PartRelation is a Relation that can open range-clamped slices of its scan
// pipeline. Returning a nil *PartScan (with nil error) declines: the plan
// falls back to the serial path — the VDT mode does this, since a value-based
// merge has no positional slicing.
type PartRelation interface {
	Relation
	PartitionScan(loKey, hiKey types.Row) (*PartScan, error)
}

// Parallel sets the plan's worker count: 1 forces the serial path, n > 1
// forces n workers (when the relation supports partitioning), and 0 restores
// the default — parallel with GOMAXPROCS workers when the scan spans at least
// ParallelThreshold stable rows. Whatever the setting, Run delivers batches
// in exactly the serial order and Collect returns exactly the serial batch.
func (p *Plan) Parallel(n int) *Plan {
	p.workers = n
	return p
}

// accessPlan is the resolved execution strategy of one plan run: the scan's
// partition description, the morsels to execute (covering only the kept
// ranges when the prune pass excluded blocks), the worker count, and the
// prune outcome. A nil accessPlan means the plain serial path.
type accessPlan struct {
	ps      *PartScan
	morsels []morsel
	workers int
	pruned  *PruneResult
}

// resolveAccess picks the plan's access path. With no prunable predicates the
// decision reduces exactly to parallel gating: serial unless the relation
// partitions and the scan is large (or Parallel forced workers). With typed
// predicates and a pruning-capable PartScan the prune pass runs first; if it
// excludes any block, execution covers only the kept ranges — morsel by
// morsel on the caller's goroutine when one worker resolves, in parallel
// otherwise. A prune pass that keeps every block falls back to the unpruned
// paths, so full-keep scans cost exactly what they did before pruning
// existed.
func (p *Plan) resolveAccess() (*accessPlan, error) {
	if p.rel == nil {
		return nil, nil
	}
	pr, ok := p.rel.(PartRelation)
	if !ok {
		return nil, nil
	}
	var preds []Pred
	if PruningEnabled() && !p.noPrune {
		preds = p.typedPreds()
	}
	wantPrune := len(preds) > 0
	if p.workers == 1 && !wantPrune {
		return nil, nil
	}
	if p.workers == 0 && p.batchSize < minParallelBatch && !wantPrune {
		return nil, nil
	}
	ps, err := pr.PartitionScan(p.loKey, p.hiKey)
	if err != nil {
		return nil, err
	}
	if ps == nil || ps.Open == nil {
		return nil, nil
	}
	var pruned *PruneResult
	if wantPrune && ps.Prune != nil {
		if res := ps.Prune(preds); res != nil && res.Kept < res.Total {
			pruned = res
		}
	}
	n := p.workers
	if n == 0 {
		if ps.Hi-ps.Lo < uint64(ParallelThreshold) || p.batchSize < minParallelBatch {
			n = 1
		} else {
			n = DefaultWorkers
			if n <= 0 {
				n = runtime.GOMAXPROCS(0)
			}
		}
	}
	if pruned == nil {
		if n <= 1 {
			return nil, nil
		}
		morsels := morselize(ps.Lo, ps.Hi, ps.Unit, n, ps.Cuts)
		if n > len(morsels) {
			n = len(morsels)
		}
		return &accessPlan{ps: ps, morsels: morsels, workers: n}, nil
	}
	if n < 1 {
		n = 1
	}
	morsels := morselizeRanges(pruned.Ranges, ps, n)
	if n > len(morsels) {
		n = len(morsels)
	}
	if n < 1 {
		n = 1
	}
	return &accessPlan{ps: ps, morsels: morsels, workers: n, pruned: pruned}, nil
}

// morsel is one contiguous stable-SID chunk of a partitioned scan.
type morsel struct {
	lo, hi uint64
	last   bool
}

// morselize splits [lo, hi) into block-aligned chunks sized for the worker
// count. Every boundary except the ends (and the forced cuts) is a multiple
// of unit, so no two morsels share a column block; the final morsel carries
// last=true. Cuts are forced boundaries: chunking restarts at each one, so no
// morsel ever spans a cut — a sharded relation's shard boundaries stay morsel
// boundaries and each Open resolves to exactly one shard. An empty range
// still yields one (empty) last morsel, because a delta layer can hold
// inserts against an empty stable range and some morsel must own them.
func morselize(lo, hi uint64, unit, workers int, cuts []uint64) []morsel {
	if unit <= 0 {
		unit = 1
	}
	span := hi - lo
	target := uint64(workers * morselsPerWorker)
	rows := (span + target - 1) / target
	rows = (rows + uint64(unit) - 1) / uint64(unit) * uint64(unit)
	if rows < uint64(unit) {
		rows = uint64(unit)
	}
	var ms []morsel
	emit := func(a, b uint64) {
		for at := a; at < b; at += rows {
			end := at + rows
			if end > b {
				end = b
			}
			ms = append(ms, morsel{lo: at, hi: end})
		}
	}
	seg := lo
	for _, c := range cuts {
		if c <= seg || c >= hi {
			continue
		}
		emit(seg, c)
		seg = c
	}
	emit(seg, hi)
	if len(ms) == 0 {
		ms = append(ms, morsel{lo: lo, hi: lo})
	}
	ms[len(ms)-1].last = true
	return ms
}

// morselizeRanges is morselize over the kept ranges of a prune pass: each
// range splits into block-aligned chunks sized for the worker count, cuts
// stay hard boundaries, and zero-width ranges (a sharded domain's empty
// slots, which can still hold delta-layer inserts) become zero-width morsels
// so the shard owning them still opens. Only a final morsel ending exactly at
// ps.Hi carries last=true: a delta entry sitting on any other range's end
// boundary would have dirtied the adjacent block and kept it, so a pruned
// range ending strictly below Hi never owns boundary entries.
func morselizeRanges(ranges []SIDRange, ps *PartScan, workers int) []morsel {
	unit := uint64(ps.Unit)
	if unit == 0 {
		unit = 1
	}
	var span uint64
	for _, r := range ranges {
		span += r.Hi - r.Lo
	}
	target := uint64(workers * morselsPerWorker)
	rows := (span + target - 1) / target
	rows = (rows + unit - 1) / unit * unit
	if rows < unit {
		rows = unit
	}
	var ms []morsel
	emit := func(a, b uint64) {
		if a == b {
			ms = append(ms, morsel{lo: a, hi: a})
			return
		}
		for at := a; at < b; at += rows {
			end := at + rows
			if end > b {
				end = b
			}
			ms = append(ms, morsel{lo: at, hi: end})
		}
	}
	for _, r := range ranges {
		seg := r.Lo
		for _, c := range ps.Cuts {
			if c <= seg || c >= r.Hi {
				continue
			}
			emit(seg, c)
			seg = c
		}
		emit(seg, r.Hi)
	}
	// Exactly one morsel may start at any position: a zero-width morsel whose
	// position another morsel also starts at would make a sharded relation
	// open the empty slot twice (its Open matches slots by morsel start).
	// Ranges are ascending, so colliding morsels are adjacent — drop the
	// zero-width one.
	n := 0
	for i, m := range ms {
		if m.lo == m.hi && i+1 < len(ms) && ms[i+1].lo == m.lo {
			continue
		}
		ms[n] = m
		n++
	}
	ms = ms[:n]
	if len(ms) == 0 {
		ms = append(ms, morsel{lo: ps.Lo, hi: ps.Lo})
	}
	if m := &ms[len(ms)-1]; m.hi == ps.Hi {
		m.last = true
	}
	return ms
}

// runMorsels executes an access plan serially: the caller's goroutine walks
// the morsels in order through the plan's filter pipeline — the pruned
// counterpart of runSerial, with no worker machinery. fn receives the morsel
// index (Run wraps it to drop the index).
func (p *Plan) runMorsels(ap *accessPlan, a *analyzed, fn func(part int, b *vector.Batch, sel []uint32) error) error {
	b := vector.NewBatch(a.kinds, p.batchSize)
	sel := vector.GetSelection()
	defer vector.PutSelection(sel)
	for mi, m := range ap.morsels {
		src, err := ap.ps.Open(a.scanCols, m.lo, m.hi, m.last)
		if err != nil {
			return err
		}
		for {
			b.Reset()
			n, err := src.Next(b, p.batchSize)
			if err != nil {
				return err
			}
			if n == 0 {
				break
			}
			sel.All(n)
			for i, f := range p.filters {
				f.apply(b.Vecs[a.slots[i]], sel)
				if sel.Len() == 0 {
					break
				}
			}
			if sel.Len() == 0 {
				continue
			}
			if err := fn(mi, b, sel.Indexes()); err != nil {
				if errors.Is(err, Stop) {
					return nil
				}
				return err
			}
		}
	}
	return nil
}

// collectMorsels is Collect over a serially-executed pruned access plan.
func (p *Plan) collectMorsels(ap *accessPlan, a *analyzed) (*vector.Batch, error) {
	outKinds := a.kinds[:len(p.outCols)]
	out := vector.NewBatch(outKinds, p.batchSize)
	err := p.runMorsels(ap, a, func(_ int, b *vector.Batch, idx []uint32) error {
		for i := range p.outCols {
			out.Vecs[i].AppendSelected(b.Vecs[i], idx)
		}
		if p.needRids && len(b.Rids) > 0 {
			for _, ri := range idx {
				out.Rids = append(out.Rids, b.Rids[ri])
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// pslot is one pooled (batch, selection) pair cycling between a worker and
// the ordered delivery loop.
type pslot struct {
	b   *vector.Batch
	sel *vector.Selection
}

// pitem is one handoff message: a filtered batch of morsel-ordered rows, an
// end-of-morsel marker (slot == nil, eom), or a worker error.
type pitem struct {
	worker int
	morsel int
	slot   *pslot
	eom    bool
	err    error
}

// errCancelled signals a worker that delivery shut down; it never escapes.
var errCancelled = errors.New("engine: parallel scan cancelled")

// batchPools recycles worker batches across plan executions, keyed by the
// (kinds, capacity) shape. sync.Pool shards its freelists per P, so parallel
// workers get and put without contending on one lock.
var batchPools sync.Map // string -> *vector.BatchPool

func poolFor(kinds []types.Kind, capHint int) *vector.BatchPool {
	key := make([]byte, 0, len(kinds)+8)
	for _, k := range kinds {
		key = append(key, byte(k))
	}
	for s := 0; s < 32; s += 8 {
		key = append(key, byte(capHint>>s))
	}
	if p, ok := batchPools.Load(string(key)); ok {
		return p.(*vector.BatchPool)
	}
	p, _ := batchPools.LoadOrStore(string(key), vector.NewBatchPool(kinds, capHint))
	return p.(*vector.BatchPool)
}

// runParallel is the ordered parallel Run: workers pull morsels off a shared
// counter and pipe filtered batches through per-worker slot pools; the
// delivery loop below releases them to fn in morsel order, so fn observes the
// exact serial row sequence.
func (p *Plan) runParallel(ap *accessPlan, a *analyzed, fn func(b *vector.Batch, sel []uint32) error) error {
	ps, morsels, workers := ap.ps, ap.morsels, ap.workers
	pool := poolFor(a.kinds, p.batchSize)
	var next atomic.Int64
	stopc := make(chan struct{})
	results := make(chan pitem, workers*slotsPerWorker)
	free := make([]chan *pslot, workers)
	for w := range free {
		free[w] = make(chan *pslot, slotsPerWorker)
		for i := 0; i < slotsPerWorker; i++ {
			free[w] <- &pslot{b: pool.Get(), sel: vector.GetSelection()}
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				m := int(next.Add(1) - 1)
				if m >= len(morsels) {
					return
				}
				if err := p.produceMorsel(ps, a, morsels[m], w, m, free[w], results, stopc); err != nil {
					if err != errCancelled {
						select {
						case results <- pitem{worker: w, morsel: m, err: err}:
						case <-stopc:
						}
					}
					return
				}
				select {
				case results <- pitem{worker: w, morsel: m, eom: true}:
				case <-stopc:
					return
				}
			}
		}(w)
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Ordered delivery on the caller's goroutine. The loop never blocks on a
	// worker (free channels have capacity for every slot), so it always
	// drains results — which is why the slot cycle cannot deadlock.
	head := 0
	pending := make(map[int][]pitem)
	finished := make(map[int]bool)
	var runErr error
	handle := func(it pitem) error {
		if it.eom {
			finished[it.morsel] = true
			return nil
		}
		err := fn(it.slot.b, it.slot.sel.Indexes())
		free[it.worker] <- it.slot
		return err
	}
	for it := range results {
		if runErr != nil {
			// Shutting down: recycle and discard until the channel closes.
			if it.slot != nil {
				free[it.worker] <- it.slot
			}
			continue
		}
		if it.err != nil {
			runErr = it.err
			close(stopc)
			continue
		}
		if it.morsel != head {
			pending[it.morsel] = append(pending[it.morsel], it)
			continue
		}
		if err := handle(it); err != nil {
			runErr = err
			close(stopc)
			continue
		}
		for finished[head] {
			delete(finished, head)
			head++
			items := pending[head]
			delete(pending, head)
			for _, q := range items {
				if err := handle(q); err != nil {
					runErr = err
					close(stopc)
					break
				}
			}
			if runErr != nil {
				break
			}
		}
		if runErr == nil && head == len(morsels) {
			close(stopc)
			runErr = errCancelled // mark shutdown; cleared below
		}
	}
	// Return every slot's batch/selection to the pools, including those still
	// parked in pending maps after an early shutdown.
	for _, items := range pending {
		for _, q := range items {
			if q.slot != nil {
				free[q.worker] <- q.slot
			}
		}
	}
	for _, fc := range free {
		close(fc)
		for s := range fc {
			pool.Put(s.b)
			vector.PutSelection(s.sel)
		}
	}
	if runErr == errCancelled {
		return nil
	}
	if errors.Is(runErr, Stop) {
		return nil
	}
	return runErr
}

// produceMorsel runs the plan's filter pipeline over one morsel, sending
// surviving batches tagged with the morsel index. Batches with an empty
// selection recycle locally and are never sent, mirroring the serial path.
func (p *Plan) produceMorsel(ps *PartScan, a *analyzed, m morsel, w, mi int, free chan *pslot, results chan<- pitem, stopc <-chan struct{}) error {
	src, err := ps.Open(a.scanCols, m.lo, m.hi, m.last)
	if err != nil {
		return err
	}
	for {
		var slot *pslot
		select {
		case slot = <-free:
		case <-stopc:
			return errCancelled
		}
		slot.b.Reset()
		n, err := src.Next(slot.b, p.batchSize)
		if err != nil || n == 0 {
			free <- slot
			return err
		}
		slot.sel.All(n)
		for i, f := range p.filters {
			f.apply(slot.b.Vecs[a.slots[i]], slot.sel)
			if slot.sel.Len() == 0 {
				break
			}
		}
		if slot.sel.Len() == 0 {
			free <- slot
			continue
		}
		select {
		case results <- pitem{worker: w, morsel: mi, slot: slot}:
		case <-stopc:
			return errCancelled
		}
	}
}

// collectParallel is the order-preserving parallel Collect: each worker
// appends its morsels' survivors into a private output batch and records one
// (morsel, start, end) segment per morsel; stitching segments in morsel order
// afterwards reproduces the serial output exactly.
func (p *Plan) collectParallel(ap *accessPlan, a *analyzed) (*vector.Batch, error) {
	ps, morsels, workers := ap.ps, ap.morsels, ap.workers
	outKinds := a.kinds[:len(p.outCols)]
	fast := len(p.filters) == 0 && len(a.scanCols) == len(p.outCols)
	type seg struct {
		worker, morsel int
		start, end     int
		rstart, rend   int
	}
	outs := make([]*vector.Batch, workers)
	segsByWorker := make([][]seg, workers)
	errs := make([]error, workers)
	var next atomic.Int64
	var stop atomic.Bool
	scratch := poolFor(a.kinds, p.batchSize)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := vector.NewBatch(outKinds, p.batchSize)
			outs[w] = out
			var b *vector.Batch
			var sel *vector.Selection
			if !fast {
				b = scratch.Get()
				defer scratch.Put(b)
				sel = vector.GetSelection()
				defer vector.PutSelection(sel)
			}
			for !stop.Load() {
				m := int(next.Add(1) - 1)
				if m >= len(morsels) {
					return
				}
				s := seg{worker: w, morsel: m, start: out.Len(), rstart: len(out.Rids)}
				src, err := ps.Open(a.scanCols, morsels[m].lo, morsels[m].hi, morsels[m].last)
				if err != nil {
					errs[w] = err
					stop.Store(true)
					return
				}
				for !stop.Load() {
					if fast {
						n, err := src.Next(out, p.batchSize)
						if err != nil {
							errs[w] = err
							stop.Store(true)
							return
						}
						if n == 0 {
							break
						}
						continue
					}
					b.Reset()
					n, err := src.Next(b, p.batchSize)
					if err != nil {
						errs[w] = err
						stop.Store(true)
						return
					}
					if n == 0 {
						break
					}
					sel.All(n)
					for i, f := range p.filters {
						f.apply(b.Vecs[a.slots[i]], sel)
						if sel.Len() == 0 {
							break
						}
					}
					if sel.Len() == 0 {
						continue
					}
					idx := sel.Indexes()
					for i := range p.outCols {
						out.Vecs[i].AppendSelected(b.Vecs[i], idx)
					}
					if p.needRids && len(b.Rids) > 0 {
						for _, ri := range idx {
							out.Rids = append(out.Rids, b.Rids[ri])
						}
					}
				}
				s.end, s.rend = out.Len(), len(out.Rids)
				segsByWorker[w] = append(segsByWorker[w], s)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// Stitch: each morsel was fully processed by exactly one worker, so
	// placing its segment at its morsel index and concatenating restores the
	// serial order.
	byMorsel := make([]seg, len(morsels))
	total, totalRids := 0, 0
	for _, segs := range segsByWorker {
		for _, s := range segs {
			byMorsel[s.morsel] = s
			total += s.end - s.start
			totalRids += s.rend - s.rstart
		}
	}
	final := vector.NewBatch(outKinds, total)
	if p.needRids && totalRids > 0 {
		final.Rids = make([]uint64, 0, totalRids)
	}
	for _, s := range byMorsel {
		src := outs[s.worker]
		for i := range final.Vecs {
			final.Vecs[i].AppendRange(src.Vecs[i], s.start, s.end)
		}
		if p.needRids {
			final.Rids = append(final.Rids, src.Rids[s.rstart:s.rend]...)
		}
	}
	return final, nil
}

// RunPartitioned streams the pipeline like Run, but tags every (batch, sel)
// pair with the index of the partition it came from instead of imposing a
// global order: partitions are processed concurrently, each by exactly one
// worker, and within a partition batches arrive in row order. start runs
// once, before any fn call, with the partition count, so the caller can
// allocate per-partition state up front; folding those partial states
// together in partition order after RunPartitioned returns yields a result
// independent of how partitions were scheduled — the deterministic combine
// step parallel aggregations need. A plan on the plain serial path has
// exactly one partition; a pruned scan resolved to one worker has one
// partition per kept morsel, processed in order on the caller's goroutine.
// fn may be called concurrently for different partitions, never for the same
// one; returning Stop ends the whole run without error.
func (p *Plan) RunPartitioned(start func(parts int) error, fn func(part int, b *vector.Batch, sel []uint32) error) error {
	a, err := p.analyze()
	if err != nil {
		return err
	}
	ap, err := p.resolveAccess()
	if err != nil {
		return err
	}
	if ap == nil {
		if err := start(1); err != nil {
			return err
		}
		return p.runSerial(a, func(b *vector.Batch, sel []uint32) error { return fn(0, b, sel) })
	}
	ps, morsels, workers := ap.ps, ap.morsels, ap.workers
	if err := start(len(morsels)); err != nil {
		return err
	}
	if workers <= 1 {
		return p.runMorsels(ap, a, fn)
	}
	scratch := poolFor(a.kinds, p.batchSize)
	errs := make([]error, workers)
	var next atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			b := scratch.Get()
			defer scratch.Put(b)
			sel := vector.GetSelection()
			defer vector.PutSelection(sel)
			for !stop.Load() {
				m := int(next.Add(1) - 1)
				if m >= len(morsels) {
					return
				}
				src, err := ps.Open(a.scanCols, morsels[m].lo, morsels[m].hi, morsels[m].last)
				if err != nil {
					errs[w] = err
					stop.Store(true)
					return
				}
				for !stop.Load() {
					b.Reset()
					n, err := src.Next(b, p.batchSize)
					if err != nil {
						errs[w] = err
						stop.Store(true)
						return
					}
					if n == 0 {
						break
					}
					sel.All(n)
					for i, f := range p.filters {
						f.apply(b.Vecs[a.slots[i]], sel)
						if sel.Len() == 0 {
							break
						}
					}
					if sel.Len() == 0 {
						continue
					}
					if err := fn(m, b, sel.Indexes()); err != nil {
						if !errors.Is(err, Stop) {
							errs[w] = err
						}
						stop.Store(true)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
