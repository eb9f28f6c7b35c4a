package colstore

// Benchmark and regression guard for the point-probe tail decode: a scanner
// entering a block mid-way materializes only the tail from its entry offset,
// so a probe near the end of a big block does a fraction of the decode work a
// full-block decode does. The device still fetches (and charges) the whole
// encoded block — partial decode changes CPU and allocation, not I/O.

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"pdtstore/internal/types"
	"pdtstore/internal/vector"
)

// BenchmarkPositionProbe measures a 16-row probe landing near the tail of a
// late block — the shape a key probe's window takes once it has doubled past
// a run of deletes or of inserts at one SID.
func BenchmarkPositionProbe(b *testing.B) {
	const blockRows = 8192
	const n = blockRows * 8
	for _, compressed := range []bool{false, true} {
		b.Run(fmt.Sprintf("compressed=%v", compressed), func(b *testing.B) {
			s := buildStore(b, n, blockRows, compressed)
			cols := []int{0, 1}
			kinds := []types.Kind{types.Int64, types.String}
			out := vector.NewBatch(kinds, 16)
			probe := uint64(n - 17) // 16 rows from the end of the last block
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sc := s.NewScanner(cols, probe, uint64(n))
				out.Reset()
				if _, err := sc.Next(out, 16); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// allocBytes reports the heap bytes fn allocates per call, averaged over
// rounds, with the collector paused so TotalAlloc deltas are exact.
func allocBytes(fn func(), rounds int) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	fn() // warm caches and one-time setup
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(rounds)
}

// TestPositionProbeDecodesTail is the alloc guard: a probe entering a block
// 16 rows from its end must allocate far less than one entering at the block
// start, which decodes all blockRows values.
func TestPositionProbeDecodesTail(t *testing.T) {
	const blockRows = 8192
	const n = blockRows * 2
	s := buildStore(t, n, blockRows, false)
	cols := []int{0, 1} // int64 + string: both decode paths
	kinds := []types.Kind{types.Int64, types.String}
	out := vector.NewBatch(kinds, 16)

	probeAt := func(sid uint64) func() {
		return func() {
			sc := s.NewScanner(cols, sid, uint64(n))
			out.Reset()
			if _, err := sc.Next(out, 16); err != nil {
				t.Fatal(err)
			}
		}
	}
	head := allocBytes(probeAt(blockRows), 50)      // block start: full decode
	tail := allocBytes(probeAt(2*blockRows-17), 50) // 16 rows before the end
	if tail*8 > head {
		t.Errorf("tail probe allocates %d bytes, head probe %d: partial decode regressed", tail, head)
	}
}
