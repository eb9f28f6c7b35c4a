package engine

// White-box test of the morselizer: the invariants every sink relies on —
// morsels cover exactly the ranges they were given, in order; interior
// boundaries are block-aligned; cuts are never straddled; zero-width slots
// survive unless another morsel starts there; and only a morsel ending at
// the scan's own end carries last=true.

import (
	"reflect"
	"testing"
)

func TestMorselize(t *testing.T) {
	type tc struct {
		name    string
		ps      *PartScan
		ranges  []SIDRange
		workers int
		want    []morsel // exact expectation; nil = the invariants below only
	}
	// whole is the unpruned scan: the one range [lo, hi).
	whole := func(name string, workers int, want []morsel, lo, hi uint64, unit int, cuts ...uint64) tc {
		return tc{name, &PartScan{Lo: lo, Hi: hi, Unit: unit, Cuts: cuts}, []SIDRange{{lo, hi}}, workers, want}
	}
	cases := []tc{
		whole("whole/4 workers", 4, nil, 0, 100_000, 4096),
		whole("whole/1 worker is one morsel", 1, []morsel{{0, 100_000, true}}, 0, 100_000, 4096),
		whole("whole/narrower than a block", 8, []morsel{{0, 1, true}}, 0, 1, 4096),
		whole("whole/mid-table range", 3, nil, 8192, 50_000, 4096),
		whole("whole/exactly one block", 4, []morsel{{0, 4096, true}}, 0, 4096, 4096),
		whole("whole/small unit", 8, nil, 0, 65536, 16),
		whole("whole/unit <= 0 falls back to 1", 2, nil, 0, 10, 0),
		// An empty stable range still yields one (empty) last morsel: a
		// delta layer can hold inserts against an empty table, and some
		// morsel must own them.
		whole("whole/empty range", 4, []morsel{{0, 0, true}}, 0, 0, 4096),
		// Cuts are hard boundaries, inside a whole range or a kept one.
		whole("cut/1 worker: one morsel per segment", 1, []morsel{{0, 40, false}, {40, 64, true}}, 0, 64, 16, 40),
		whole("cut/2 workers", 2, nil, 0, 64, 16, 40),
		// Kept ranges of a prune pass: covered exactly, in order; only the
		// morsel reaching the true scan end carries last=true.
		{"kept/head and tail", &PartScan{Lo: 0, Hi: 128, Unit: 16},
			[]SIDRange{{0, 32}, {96, 128}}, 1, []morsel{{0, 32, false}, {96, 128, true}}},
		{"kept/head and tail, 2 workers", &PartScan{Lo: 0, Hi: 128, Unit: 16},
			[]SIDRange{{0, 32}, {96, 128}}, 2, nil},
		{"kept/cut inside a kept range", &PartScan{Lo: 0, Hi: 64, Unit: 16, Cuts: []uint64{40}},
			[]SIDRange{{16, 64}}, 2, nil},
		// A pruned-away tail must not flag its final morsel as last: no
		// morsel reaches ps.Hi, so none may claim the append boundary.
		{"kept/pruned tail has no last", &PartScan{Lo: 0, Hi: 128, Unit: 16},
			[]SIDRange{{0, 32}}, 1, []morsel{{0, 32, false}}},
		// Zero-width ranges survive as zero-width morsels (empty shard slots
		// must still be opened) — unless another morsel already starts there.
		{"kept/zero-width slots and the start collision", &PartScan{Lo: 0, Hi: 40, Unit: 16},
			[]SIDRange{{0, 16}, {16, 16}, {16, 32}, {40, 40}}, 1,
			[]morsel{{0, 16, false}, {16, 32, false}, {40, 40, true}}},
		// Nothing kept at all: one zero-width fallback at the scan start.
		{"kept/nothing", &PartScan{Lo: 0, Hi: 128, Unit: 16}, nil, 2, []morsel{{0, 0, false}}},
	}
	for _, c := range cases {
		ms := morselize(c.ranges, c.ps, c.workers)
		if c.want != nil && !reflect.DeepEqual(ms, c.want) {
			t.Errorf("%s: morsels = %v, want %v", c.name, ms, c.want)
			continue
		}
		if len(ms) == 0 {
			t.Errorf("%s: no morsels", c.name)
			continue
		}
		unit := uint64(max(c.ps.Unit, 1))
		edge := map[uint64]bool{} // range ends and cuts
		for _, r := range c.ranges {
			edge[r.Lo], edge[r.Hi] = true, true
		}
		for _, cut := range c.ps.Cuts {
			edge[cut] = true
		}
		var covered []SIDRange
		starts := map[uint64]bool{}
		for i, m := range ms {
			if m.hi < m.lo || (i > 0 && m.lo < ms[i-1].hi) {
				t.Errorf("%s: morsel %d = %v out of order in %v", c.name, i, m, ms)
			}
			if starts[m.lo] {
				t.Errorf("%s: two morsels start at %d: %v", c.name, m.lo, ms)
			}
			starts[m.lo] = true
			// Chunking restarts at every range start and cut (a shard's
			// blocks are aligned from its own start), so a morsel's end is
			// either such an edge or whole blocks past the morsel's start.
			if !edge[m.hi] && (m.hi-m.lo)%unit != 0 {
				t.Errorf("%s: morsel %v ends neither block-aligned nor at a range end or cut", c.name, m)
			}
			for _, cut := range c.ps.Cuts {
				if m.lo < cut && cut < m.hi {
					t.Errorf("%s: morsel %v straddles the cut at %d", c.name, m, cut)
				}
			}
			if wantLast := i == len(ms)-1 && m.hi == c.ps.Hi; m.last != wantLast {
				t.Errorf("%s: morsel %d = %v: last=%v, want %v", c.name, i, m, m.last, wantLast)
			}
			if m.lo == m.hi {
				continue
			}
			if n := len(covered); n > 0 && covered[n-1].Hi == m.lo && !edge[m.lo] {
				covered[n-1].Hi = m.hi
			} else {
				covered = append(covered, SIDRange{m.lo, m.hi})
			}
		}
		// Re-joining the morsels at every boundary that is not a range end or
		// cut must give back the non-empty ranges, split at the cuts.
		var want []SIDRange
		for _, r := range c.ranges {
			lo := r.Lo
			for _, cut := range c.ps.Cuts {
				if lo < cut && cut < r.Hi {
					want = append(want, SIDRange{lo, cut})
					lo = cut
				}
			}
			if lo < r.Hi {
				want = append(want, SIDRange{lo, r.Hi})
			}
		}
		if !reflect.DeepEqual(covered, want) {
			t.Errorf("%s: morsels cover %v, want %v (morsels %v)", c.name, covered, want, ms)
		}
		if limit := max(c.workers, 1)*morselsPerWorker + len(want); len(ms) > limit {
			t.Errorf("%s: %d morsels for %d workers over %d segments", c.name, len(ms), c.workers, len(want))
		}
	}
}
