package main

// The read set: five query classes, each checked against the oracle, and the
// per-round statistics drawn from them.

import (
	"time"

	"pdtstore"
)

// snapshot begins a read transaction and captures what it must see: the
// oracle is read under the lock writers hold across Commit, then the clock
// starts, then Begin pins the snapshot.
func (b *bench) snapshot(c *client, parent int, expect func(o *oracle)) (pdtstore.Tx, time.Time) {
	if b.spec.dropCaches {
		b.dev.DropCaches()
	}
	b.mu.Lock()
	expect(b.or)
	t0 := time.Now()
	tx := c.begin(parent)
	b.mu.Unlock()
	return tx, t0
}

func (b *bench) opQ6(c *client, parent int) float64 {
	sp := c.tr.begin("q6", parent)
	var want aggs
	tx, t0 := b.snapshot(c, sp, func(o *oracle) { want = o.agg })
	sum, n, err := c.q6(tx, sp)
	c.abort(tx, sp)
	d := since(t0)
	c.tr.end(sp)
	c.attempted++
	if err != nil || !want.q6Equal(sum, n) {
		c.fail("q6: got (%v, %d) want (%v, %d) err=%v", sum, n, want.q6sum, want.q6n, err)
	}
	return d
}

func (b *bench) opQ1(c *client, parent int) float64 {
	sp := c.tr.begin("q1", parent)
	var want aggs
	tx, t0 := b.snapshot(c, sp, func(o *oracle) { want = o.agg })
	got, err := c.q1(tx, sp)
	c.abort(tx, sp)
	d := since(t0)
	c.tr.end(sp)
	c.attempted++
	if err != nil || !want.q1Equal(&got) {
		c.fail("q1: got %+v want %+v err=%v", got, want.q1, err)
	}
	return d
}

// opWide returns the scan's time and its row count.
func (b *bench) opWide(c *client, parent int) (ms float64, rows int64) {
	sp := c.tr.begin("wide", parent)
	var want int64
	tx, t0 := b.snapshot(c, sp, func(o *oracle) { want = o.agg.rows })
	rows, strBytes, err := c.wide(tx, sp)
	c.abort(tx, sp)
	ms = since(t0)
	c.tr.end(sp)
	c.attempted++
	if err != nil || rows != want || strBytes == 0 {
		c.fail("wide: got %d rows want %d err=%v", rows, want, err)
	}
	return ms, rows
}

func (b *bench) opRange(c *client, parent int) float64 {
	sp := c.tr.begin("range", parent)
	var (
		lo, hi  int64
		wantN   int64
		wantQty float64
	)
	tx, t0 := b.snapshot(c, sp, func(o *oracle) {
		lo = o.pickLive(c.rng, 0, o.nbase).ok
		hi = lo + rangeSpan(o.nbase)
		wantN, wantQty = o.rangeExpect(lo, hi)
	})
	n, qty, err := c.keyRange(tx, lo, hi, sp)
	c.abort(tx, sp)
	d := since(t0)
	c.tr.end(sp)
	c.attempted++
	if err != nil || n != wantN || !closeTo(qty, wantQty) {
		c.fail("range [%d,%d]: got (%d, %v) want (%d, %v) err=%v", lo, hi, n, qty, wantN, wantQty, err)
	}
	return d
}

// opLookup returns microseconds.
func (b *bench) opLookup(c *client, parent int) float64 {
	sp := c.tr.begin("lookup", parent)
	var (
		k    key
		want uint64
	)
	tx, t0 := b.snapshot(c, sp, func(o *oracle) {
		k = o.pickLive(c.rng, 0, len(o.keys))
		rc := o.rows[k]
		want = rc.hash()
	})
	row, found, err := c.find(tx, k, sp)
	c.abort(tx, sp)
	d := since(t0) * 1e3
	c.tr.end(sp)
	c.attempted++
	if err != nil || !found || hashRow(row) != want {
		c.fail("lookup %v: found=%v err=%v", k, found, err)
	}
	return d
}

// readCounts is the read set's op counts per round: the configured ones, or
// the workload's own.
func (b *bench) readCounts() readCounts {
	switch {
	case b.cfg.reads != (readCounts{}):
		return b.cfg.reads
	case b.spec.concurrent:
		return hybridReads
	}
	return serialReads
}

// classSample is what one round measured for one read class.
type classSample struct {
	lat  []float64 // wall time of each op
	slow float64   // the box's slowdown while they ran
	rows int64     // rows scanned (wide only)
}

// readRound is one round's samples by class.
type readRound map[string]*classSample

// meanSlow is the slowdown over the whole round.
func (r readRound) meanSlow() float64 {
	sum := 0.0
	for _, cs := range r {
		sum += cs.slow
	}
	return sum / float64(len(r))
}

// readPass runs every read class n times and appends what it measured to
// round. A serial workload passes its clock, which laps at every class
// boundary. The hybrid scanner passes none — the writer is running beside it —
// and the caller stamps the round's slowdown once both have stopped.
func (b *bench) readPass(c *client, n readCounts, parent int, clk *refClock, round readRound) {
	class := func(name string, count int, op func(cs *classSample) float64) {
		cs := round[name]
		if cs == nil {
			cs = &classSample{}
			round[name] = cs
		}
		for i := 0; i < count; i++ {
			cs.lat = append(cs.lat, op(cs))
		}
		if clk != nil {
			cs.slow = clk.lap()
		}
	}
	class("q6_ms", n.q6, func(*classSample) float64 { return b.opQ6(c, parent) })
	class("q1_ms", n.q1, func(*classSample) float64 { return b.opQ1(c, parent) })
	class("wide_ms", n.wide, func(cs *classSample) float64 {
		ms, rows := b.opWide(c, parent)
		cs.rows += rows
		return ms
	})
	class("range_ms", n.rng, func(*classSample) float64 { return b.opRange(c, parent) })
	class("lookup_us", n.lookup, func(*classSample) float64 { return b.opLookup(c, parent) })
}

// closeReadRound turns one round's latencies into its per-round statistics:
// the p50 of each class, and for the wide scan rows over time.
func (s *samples) closeReadRound(round readRound) {
	for name, cs := range round {
		s.all[name] = append(s.all[name], cs.lat...)
		if name == "wide_ms" {
			total := 0.0
			for _, x := range cs.lat {
				total += x
			}
			s.add("wide_mrows_per_s", float64(cs.rows)/total/1e3, cs.slow, true)
			continue
		}
		s.add(name+"_p50", median(cs.lat), cs.slow, false)
	}
}
