package engine

// The scan executor. The paper's MergeScan is positional, so any stable-SID
// slice [lo, hi) of a relation merges independently of every other slice:
// every layer cursor seeks to the slice's start SID carrying the running
// shift in, and only the slice ending at the range's end includes delta
// entries sitting exactly on its end boundary, so each insert, delete and
// modify is owned by exactly one slice and concatenating slice outputs in
// slice order reproduces the whole scan row for row, RID for RID. A
// whole-range scan is simply the one-slice case.
//
// So there is one way to run a plan: resolveAccess turns it into the
// stable-SID ranges worth reading (one range [Lo, Hi) unless the prune pass
// excluded blocks), morselize cuts those into block-aligned morsels sized for
// the worker count, and execute walks the morsels — claimed off a shared
// counter by that many goroutines, or inline on the caller's goroutine when
// there is one worker — opening each morsel's source and handing it to the
// sink, which pumps it through the plan's filter chain (pump: the one
// read → filter → emit loop). "Serial" is not a path of its own: it is this
// loop with one worker and, unpruned and uncut, one morsel.
//
// A relation that cannot slice its pipeline (no PartRelation, or a VDT table
// declining) is adapted here, once, to a single indivisible morsel whose open
// is the relation's Scan, so the sinks never see the difference.

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"pdtstore/internal/pdt"
	"pdtstore/internal/types"
	"pdtstore/internal/vector"
)

// ParallelThreshold is the stable-SID span at which a plan that did not call
// Parallel goes parallel (with GOMAXPROCS workers), provided its relation
// partitions.
const ParallelThreshold = 128 << 10

// minParallelBatch keeps early-stop plans on one worker: a plan that asks for
// very small batches means to stop after a handful of rows, so it never
// auto-parallelizes, whatever the table size — fanning workers across the
// whole tail of a table to find one row would invert the optimization. (Key
// probes do not run plans at all; see Seek.)
const minParallelBatch = 256

const (
	morselsPerWorker = 4 // work-stealing granularity of the morsel queue
	slotsPerWorker   = 4 // batches per worker in the ordered hand-off
)

// PartScan is a partitionable scan: the stable-SID bounds of the range, the
// block alignment unit, and a factory opening the merged source for one
// [lo, hi) sub-range. Open must be safe for concurrent calls; last is true
// only for the morsel ending at Hi, which alone includes delta entries
// sitting exactly on its end boundary (every other morsel defers them to the
// neighbour that starts there). ahead is true when the morsel is one of
// several being scanned concurrently: Open then charges the morsel's cold
// block reads up front (colstore.Store.Prefetch), so the workers' modeled I/O
// overlaps like queued readahead. A one-worker plan never asks for it — its
// single morsel may span the table, and a sink that stops after one batch
// must not have paid for the rest.
type PartScan struct {
	Lo, Hi uint64
	Unit   int
	// Cuts are hard partition boundaries strictly inside (Lo, Hi): morsels
	// never span a cut, so each Open call's [lo, hi) range falls entirely
	// within one inter-cut segment. A sharded relation places a cut at
	// every shard boundary of its concatenated domain and routes each
	// morsel to the one shard that owns it. Cuts must be ascending.
	Cuts []uint64
	Open func(cols []int, lo, hi uint64, last, ahead bool) (pdt.BatchSource, error)
	// Prune, when non-nil, resolves the plan's typed predicates against the
	// relation's zone maps and secondary indexes before any block is opened
	// (see PruneBlocks). Returning nil declines pruning for this scan.
	Prune func(preds []Pred) *PruneResult
}

// open opens one morsel's source: the engine's only call of a relation's Open.
func (ps *PartScan) open(cols []int, m morsel, ahead bool) (pdt.BatchSource, error) {
	return ps.Open(cols, m.lo, m.hi, m.last, ahead)
}

// OpenAll opens the whole range as one source: each inter-cut segment in
// turn, the final one with last set, concatenated. It is how a relation's
// Scan is its PartitionScan — the pipeline is stated once, in Open.
func (ps *PartScan) OpenAll(cols []int) (pdt.BatchSource, error) {
	ms := morselize([]SIDRange{{ps.Lo, ps.Hi}}, ps, 1)
	srcs := make([]pdt.BatchSource, len(ms))
	for i, m := range ms {
		src, err := ps.open(cols, m, false)
		if err != nil {
			return nil, err
		}
		srcs[i] = src
	}
	return Concat(srcs...), nil
}

// PartRelation is a Relation that can open range-clamped slices of its scan
// pipeline. Returning a nil *PartScan (with nil error) declines: the plan
// runs the relation's Scan as one indivisible morsel — the VDT mode does
// this, since a value-based merge has no positional slicing.
type PartRelation interface {
	Relation
	PartitionScan(loKey, hiKey types.Row) (*PartScan, error)
}

// Parallel sets the plan's worker count: 1 runs the pipeline on the caller's
// goroutine, n > 1 forces n workers (when the relation supports
// partitioning), and 0 restores the default — GOMAXPROCS workers when the
// scan spans at least ParallelThreshold stable rows, one otherwise. Whatever
// the setting, Run delivers the same rows in the same order and Collect
// returns the same batch.
func (p *Plan) Parallel(n int) *Plan {
	p.workers = n
	return p
}

// accessPlan is one execution of a plan: its analysis, the scan's partition
// description, the morsels to read (covering only the kept ranges when the
// prune pass excluded blocks), the worker count, and the two words the
// workers share — the morsel queue's head and the stop flag.
type accessPlan struct {
	plan    *Plan
	a       *analyzed
	ps      *PartScan
	morsels []morsel
	workers int
	pool    *vector.BatchPool // worker batches, recycled across executions; nil with one worker
	next    atomic.Int64
	// stop is raised (halt) by the first worker to fail or be told Stop, or
	// by a sink that has what it needs; every pipeline checks it once per
	// batch. A sink whose workers can sleep — the ordered hand-off, waiting
	// for a free slot — sets wake, which runs once, when stop is raised.
	stop atomic.Bool
	wake func()
}

func (ap *accessPlan) halt() {
	if ap.stop.CompareAndSwap(false, true) && ap.wake != nil {
		ap.wake()
	}
}

// resolveAccess picks the plan's access path: which stable-SID ranges to
// read, cut into which morsels, on how many workers. With typed predicates
// (and no NoPrune) the relation's prune pass runs first; if it excludes any
// block, execution covers only the kept ranges, otherwise the one range
// [Lo, Hi). The worker count is the plan's Parallel setting, or automatic:
// GOMAXPROCS for a scan of at least ParallelThreshold stable rows in batches
// of at least minParallelBatch, else one — and never more than there are
// morsels.
func (p *Plan) resolveAccess() (*accessPlan, error) {
	a, err := p.analyze()
	if err != nil {
		return nil, err
	}
	ps, err := p.partScan()
	if err != nil {
		return nil, err
	}
	ranges := []SIDRange{{ps.Lo, ps.Hi}}
	if !p.noPrune && ps.Prune != nil && len(p.filters) > 0 {
		if res := ps.Prune(p.filters); res != nil && res.Kept < res.Total {
			ranges = res.Ranges
		}
	}
	n := p.workers
	if n == 0 && ps.Hi-ps.Lo >= ParallelThreshold && p.batchSize >= minParallelBatch {
		n = runtime.GOMAXPROCS(0)
	}
	morsels := morselize(ranges, ps, n)
	ap := &accessPlan{plan: p, a: a, ps: ps, morsels: morsels, workers: max(1, min(n, len(morsels)))}
	if ap.workers > 1 {
		ap.pool = poolFor(a.kinds, p.batchSize)
	}
	return ap, nil
}

// partScan asks the relation for its partitionable scan. A relation that has
// none — it is no PartRelation, or it declines — becomes a zero-width range
// whose Open is the relation's whole Scan: morselize yields exactly one
// morsel for it, so it runs on one worker however the plan was configured.
func (p *Plan) partScan() (*PartScan, error) {
	if pr, ok := p.rel.(PartRelation); ok {
		if ps, err := pr.PartitionScan(p.loKey, p.hiKey); err != nil || ps != nil {
			return ps, err
		}
	}
	return &PartScan{Open: func(cols []int, _, _ uint64, _, _ bool) (pdt.BatchSource, error) {
		return p.rel.Scan(cols, p.loKey, p.hiKey)
	}}, nil
}

// morsel is one contiguous stable-SID chunk of a scan.
type morsel struct {
	lo, hi uint64
	last   bool
}

// morselize cuts the ranges to read into morsels. Each range splits into
// chunks sized so the worker count gets morselsPerWorker morsels apiece — one
// worker gains nothing from splitting, so it gets each range whole — and
// every boundary except a range's own ends (and the forced cuts) is a
// multiple of ps.Unit, so no two morsels share a column block. Cuts are hard
// boundaries: chunking restarts at each one, so no morsel ever spans a cut —
// a sharded relation's shard boundaries stay morsel boundaries and each Open
// resolves to exactly one shard. Zero-width ranges (an empty table, or a
// sharded domain's empty slots) become zero-width morsels, because a delta
// layer can hold inserts against an empty stable range and some morsel must
// own them. Only a morsel ending exactly at ps.Hi carries last=true: a delta
// entry sitting on any other range's end boundary would have dirtied the
// adjacent block and kept it, so a pruned range ending strictly below Hi
// never owns boundary entries.
func morselize(ranges []SIDRange, ps *PartScan, workers int) []morsel {
	unit := uint64(max(ps.Unit, 1))
	var span uint64
	for _, r := range ranges {
		span += r.Hi - r.Lo
	}
	target := uint64(1)
	if workers > 1 {
		target = uint64(workers * morselsPerWorker)
	}
	rows := (span + target - 1) / target
	rows = max((rows+unit-1)/unit*unit, unit)
	var ms []morsel
	emit := func(a, b uint64) {
		if a == b {
			ms = append(ms, morsel{lo: a, hi: a})
			return
		}
		for at := a; at < b; at += rows {
			ms = append(ms, morsel{lo: at, hi: min(at+rows, b)})
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
		// Nothing kept at all: one empty morsel, so every sink still runs.
		ms = append(ms, morsel{lo: ps.Lo, hi: ps.Lo})
	}
	if m := &ms[len(ms)-1]; m.hi == ps.Hi {
		m.last = true
	}
	return ms
}

// pipe is one worker's private pipeline instance: the scratch batch its
// sources decode into and the selection vector its filters narrow. The
// scratch is taken the first time the worker pumps (a sink that never
// filters never pays for one) — freshly allocated for a lone worker, from the
// execution's pool when several run.
type pipe struct {
	ap     *accessPlan
	worker int
	b      *vector.Batch
	sel    *vector.Selection
}

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

func (pp *pipe) release() {
	if pp.b == nil {
		return
	}
	if pp.ap.pool != nil {
		pp.ap.pool.Put(pp.b)
	}
	vector.PutSelection(pp.sel)
}

// pump is the pipeline loop: it reads src batch by batch into the pipe's
// scratch, narrows the selection through the plan's filter chain, and hands
// every batch with survivors to emit, tagged with the morsel index. A source
// that can run the chain itself — every positional pipeline, however many
// merges it stacks over the stable scanner — selects as it reads, the empty
// chain included; one that cannot, the VDT merge, is read whole and filtered
// here.
// emit may swap the pipe's scratch for another (the ordered hand-off sends
// the batch away and continues on a free one). Batches where every row is
// filtered out never reach emit. pump returns nil only when src is
// exhausted; it reports an execution stopped under it as Stop.
func (pp *pipe) pump(src pdt.BatchSource, mi int, emit func(pp *pipe, mi int) error) error {
	p, chain := pp.ap.plan, &pp.ap.a.chain
	if pp.b == nil {
		pp.sel = vector.GetSelection()
		if pp.ap.pool != nil {
			pp.b = pp.ap.pool.Get()
		} else {
			pp.b = vector.NewBatch(pp.ap.a.kinds, p.batchSize)
		}
	}
	selector, _ := src.(pdt.Selector)
	for !pp.ap.stop.Load() {
		pp.b.Reset()
		var n int
		var err error
		if selector != nil {
			n, err = selector.Select(pp.b, p.batchSize, chain, pp.sel)
		} else if n, err = src.Next(pp.b, p.batchSize); n > 0 {
			pp.sel.All(n)
			chain.Apply(pp.b, pp.sel)
		}
		if err != nil || n == 0 {
			return err
		}
		if pp.sel.Len() == 0 {
			continue
		}
		if err := emit(pp, mi); err != nil {
			return err
		}
	}
	return Stop
}

// execute is the executor: for each morsel, in queue order, open its source
// and hand it to sink — on ap.workers goroutines, or inline on the caller's
// goroutine when there is one worker. Each morsel is processed by exactly one
// worker, and a worker processes its morsels in increasing order. A sink
// returning Stop ends the whole execution without error; any other error
// ends it and is returned (the lowest-numbered worker's, when several fail).
func (ap *accessPlan) execute(sink func(pp *pipe, mi int, src pdt.BatchSource) error) error {
	if ap.workers == 1 {
		return ap.work(0, sink)
	}
	errs := make([]error, ap.workers)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = ap.work(w, sink)
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

// pumpAll is the plain sink: every morsel pumped straight into emit.
func (ap *accessPlan) pumpAll(emit func(pp *pipe, mi int) error) error {
	return ap.execute(func(pp *pipe, mi int, src pdt.BatchSource) error {
		return pp.pump(src, mi, emit)
	})
}

// work is one worker's share of an execution: claim the next morsel, open
// it, sink it, until the queue is empty or the execution halts.
func (ap *accessPlan) work(w int, sink func(pp *pipe, mi int, src pdt.BatchSource) error) error {
	pp := &pipe{ap: ap, worker: w}
	defer pp.release()
	for !ap.stop.Load() {
		mi := int(ap.next.Add(1) - 1)
		if mi >= len(ap.morsels) {
			break
		}
		src, err := ap.ps.open(ap.a.scanCols, ap.morsels[mi], ap.workers > 1)
		if err == nil {
			err = sink(pp, mi, src)
		}
		if err != nil {
			ap.halt()
			if errors.Is(err, Stop) {
				break
			}
			return err
		}
	}
	return nil
}

// slot is one (batch, selection) pair travelling between a worker and the
// ordered delivery loop.
type slot struct {
	worker int
	b      *vector.Batch
	sel    *vector.Selection
}

// runOrdered is Run's sink when several workers execute: it delivers their
// batches to fn in morsel order, so fn observes exactly the one-worker row
// sequence. Worker w owns slotsPerWorker (batch, selection) slots — the one
// its pipe is filling, the rest waiting in free[w]. A filled slot goes to its
// morsel's channel out[m], which the worker closes when the morsel is
// exhausted; the delivery loop, on the caller's goroutine, drains out[0],
// out[1], … in turn and returns each slot to its owner. Every channel holds
// slotsPerWorker, all the slots one worker has, so neither a hand-off nor a
// return ever blocks; the only wait is a worker out of slots, and that cannot
// deadlock: a worker claims morsels in increasing order, so the slots of the
// worker on the delivery head's morsel all sit in morsels at or before the
// head — the ones being drained.
func (ap *accessPlan) runOrdered(fn func(b *vector.Batch, sel []uint32) error) error {
	pool := ap.pool
	out := make([]chan slot, len(ap.morsels))
	for m := range out {
		out[m] = make(chan slot, slotsPerWorker)
	}
	free := make([]chan slot, ap.workers)
	for w := range free {
		free[w] = make(chan slot, slotsPerWorker)
		for i := 1; i < slotsPerWorker; i++ {
			free[w] <- slot{worker: w, b: pool.Get(), sel: vector.GetSelection()}
		}
	}
	stopc := make(chan struct{}) // wakes workers waiting for a slot when the execution halts
	ap.wake = func() { close(stopc) }
	handOff := func(pp *pipe, mi int) error {
		out[mi] <- slot{worker: pp.worker, b: pp.b, sel: pp.sel}
		select {
		case s := <-free[pp.worker]:
			pp.b, pp.sel = s.b, s.sel
			return nil
		case <-stopc:
			pp.b, pp.sel = nil, nil
			return Stop
		}
	}
	done := make(chan error, 1)
	go func() {
		done <- ap.execute(func(pp *pipe, mi int, src pdt.BatchSource) error {
			err := pp.pump(src, mi, handOff)
			if err == nil {
				close(out[mi])
			}
			return err
		})
	}()

	// A worker failure surfaces through done while some out[m] may never
	// close, so the loop watches both. done yielding nil means every morsel
	// is complete and closed: delivery just drains what is left.
	var err error
	workers := done
	for m := 0; m < len(out) && err == nil; {
		select {
		case s, ok := <-out[m]:
			if !ok {
				m++
				continue
			}
			err = fn(s.b, s.sel.Indexes())
			free[s.worker] <- s
		case err = <-workers:
			workers = nil
		}
	}
	ap.halt()
	if workers != nil {
		if werr := <-done; err == nil {
			err = werr
		}
	}
	// Every worker has exited: recycle the slots still parked in either
	// direction (an early end leaves undelivered batches behind).
	for _, c := range append(out, free...) {
		for len(c) > 0 {
			s := <-c
			pool.Put(s.b)
			vector.PutSelection(s.sel)
		}
	}
	if errors.Is(err, Stop) {
		return nil
	}
	return err
}
