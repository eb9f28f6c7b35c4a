package main

// The measured phases: how rounds are laid out in the window.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// serialPhase runs read rounds on the one driver goroutine until the window
// closes, with the cfg.writeRounds write rounds spread evenly between them
// (the k-th is due k/writeRounds into the window), so every op class samples
// the whole window and a noisy stretch cannot land on one class alone. The
// number of write rounds is fixed, so every run leaves the same delta behind
// for checkpoint_ms, open_ms and disk_bytes_per_row; the last one is due as
// the window closes, and a machine too slow to fit the others in finishes
// them after it. In clean every write round but that last one is followed by
// an untimed checkpoint, so every read round finds the PDTs empty.
func (b *bench) serialPhase(window time.Duration) error {
	start := time.Now()
	c := b.main
	for r, wrote := 0, 0; ; r++ {
		open := time.Since(start) < window
		if !open && r >= minRounds && wrote == b.cfg.writeRounds {
			break
		}
		runtime.GC()
		b.clk.lap()
		if open || r < minRounds {
			reads, _ := b.roundSinks(r)
			sp := c.tr.begin("read-round", -1)
			round := readRound{}
			t0 := time.Now()
			b.readPass(c, b.readCounts(), sp, b.clk, round)
			wall := since(t0)
			c.tr.end(sp)
			reads.closeReadRound(round)
			reads.add("pass_ms", wall, round.meanSlow(), false)
		}
		due := start.Add(window * time.Duration(wrote+1) / time.Duration(b.cfg.writeRounds))
		if wrote < b.cfg.writeRounds && !time.Now().Before(due) {
			_, writes := b.roundSinks(wrote) // write rounds alternate on their own count
			kops := b.writeRound(c, writes)
			writes.add("write_kops_per_s", kops, b.clk.lap(), true)
			wrote++
			if b.spec.checkpointWrites && wrote < b.cfg.writeRounds {
				if err := b.checkpoint(); err != nil {
					return err
				}
				b.warm()
			}
		}
	}
	b.roundSinks(0)
	return nil
}

// roundSinks returns where the r-th round's samples are filed. An untraced
// run never traces. A traced run switches spans on for even rounds and off
// for odd ones and files the two kinds apart: the untraced rounds feed the
// same estimator as ever, and the gap between the two is the tracing overhead.
func (b *bench) roundSinks(r int) (reads, writes *samples) {
	if !b.cfg.trace {
		return b.reads, b.writes
	}
	on := r%2 == 0
	b.main.tr.enable(on)
	if b.scan != nil {
		b.scan.tr.enable(on)
	}
	if on {
		return b.tracedReads, b.tracedWrites
	}
	return b.reads, b.writes
}

// hybridPhase runs writer-paced rounds until the window closes: the writer
// commits txnsPerRound transactions on this goroutine while a scanner
// goroutine loops the read set beside it, finishing the pass it is in once
// the writer is done. The reference clock is sampled between rounds only,
// when both have stopped, so what the two — and the collector and the
// background checkpoints they cause — cost each other stays in the numbers.
func (b *bench) hybridPhase(window time.Duration) {
	gen0 := b.db.Stats().Generation
	deadline := time.Now().Add(window)
	for r := 0; r < minRounds || time.Now().Before(deadline); r++ {
		runtime.GC()
		reads, writes := b.roundSinks(r)
		b.clk.lap()
		var (
			stop   atomic.Bool
			wg     sync.WaitGroup
			round  = readRound{}
			passes []float64
		)
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := b.scan
			sp := c.tr.begin("read-round", -1)
			defer c.tr.end(sp)
			for first := true; first || !stop.Load(); first = false {
				t0 := time.Now()
				b.readPass(c, b.readCounts(), sp, nil, round)
				passes = append(passes, since(t0))
			}
		}()
		kops := b.writeRound(b.main, writes)
		stop.Store(true)
		wg.Wait()
		slow := b.clk.lap()
		for _, cs := range round {
			cs.slow = slow
		}
		reads.closeReadRound(round)
		reads.add("pass_ms", median(passes), slow, false)
		writes.add("write_kops_per_s", kops, slow, true)
	}
	b.roundSinks(0)
	b.autoCkpts = int(b.db.Stats().Generation - gen0)
}

// warm runs the read set once, untimed, so the buffer pool holds every block
// and lazy set-up is done before anything is timed.
func (b *bench) warm() {
	was := b.main.tr.enable(false)
	b.readPass(b.main, readCounts{q6: 1, q1: 1, wide: 1, rng: 4, lookup: 8}, -1, nil, readRound{})
	b.main.tr.enable(was)
}

// fixedTail commits n more txns in the workload's shape, untimed, so the
// snapshot that open_ms and checkpoint_ms run on always holds the same tail.
func (b *bench) fixedTail(n int) {
	for i := 0; i < n; i++ {
		b.txn(b.main, b.planTxn(b.main), b.spec.send, -1)
	}
}
