package colstore

// Device accounting under concurrent scanners: the parallel scan engine runs
// many Scanner instances against one device at once, so the pool and the
// byte/read counters must stay exact — every cold block charged exactly once
// however many workers race to fetch it.

import (
	"sync"
	"testing"

	"pdtstore/internal/types"
	"pdtstore/internal/vector"
)

func parallelTestStore(t *testing.T, n int) (*Store, *Device) {
	t.Helper()
	schema := types.MustSchema([]types.Column{
		{Name: "k", Kind: types.Int64},
		{Name: "a", Kind: types.Int64},
		{Name: "b", Kind: types.Float64},
	}, []int{0})
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.Int(int64(i)), types.Int(int64(i) % 13), types.Float(float64(i))}
	}
	dev := NewDevice()
	s, err := BulkLoad(schema, dev, 64, false, rows)
	if err != nil {
		t.Fatal(err)
	}
	return s, dev
}

func drainStore(t *testing.T, s *Store, cols []int) {
	t.Helper()
	kinds := make([]types.Kind, len(cols))
	for i, c := range cols {
		kinds[i] = s.Schema().Cols[c].Kind
	}
	sc := s.NewScanner(cols, 0, s.NRows())
	b := vector.NewBatch(kinds, 256)
	for {
		b.Reset()
		n, err := sc.Next(b, 256)
		if err != nil {
			t.Error(err)
			return
		}
		if n == 0 {
			return
		}
	}
}

func TestDeviceStatsConcurrentScanners(t *testing.T) {
	s, dev := parallelTestStore(t, 5000)
	cols := []int{0, 1, 2}
	wantBytes := s.EncodedSize(-1)
	wantReads := uint64(s.NumBlocks() * len(cols))

	for round := 0; round < 3; round++ {
		dev.DropCaches()
		dev.ResetStats()
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				drainStore(t, s, cols)
			}()
		}
		wg.Wait()
		gotBytes, gotReads := dev.Stats()
		if gotBytes != wantBytes || gotReads != wantReads {
			t.Fatalf("round %d: 8 concurrent cold scans charged %d bytes / %d reads, want %d / %d (charge-once)",
				round, gotBytes, gotReads, wantBytes, wantReads)
		}
		if got := dev.PoolBlocks(); got != int(wantReads) {
			t.Fatalf("round %d: pool holds %d blocks, want %d", round, got, wantReads)
		}
		// Warm rescans charge nothing.
		var wg2 sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg2.Add(1)
			go func() {
				defer wg2.Done()
				drainStore(t, s, cols)
			}()
		}
		wg2.Wait()
		if gotBytes2, gotReads2 := dev.Stats(); gotBytes2 != wantBytes || gotReads2 != wantReads {
			t.Fatalf("round %d: warm rescans charged extra: %d bytes / %d reads", round, gotBytes2, gotReads2)
		}
	}
}

func TestPrefetchChargesRangeOnce(t *testing.T) {
	// Prefetch charges a range exactly once, a warm scan recharges nothing,
	// and empty or inverted ranges are no-ops.
	s, dev := parallelTestStore(t, 1000)

	dev.DropCaches()
	dev.ResetStats()
	if err := s.Prefetch([]int{0, 1}, 0, s.NRows()); err != nil {
		t.Fatal(err)
	}
	bytes1, reads1 := dev.Stats()
	if reads1 != uint64(2*s.NumBlocks()) {
		t.Fatalf("prefetch charged %d reads, want %d", reads1, 2*s.NumBlocks())
	}
	// Hot: a scan after prefetch charges nothing more.
	drainStore(t, s, []int{0, 1})
	if bytes2, reads2 := dev.Stats(); bytes2 != bytes1 || reads2 != reads1 {
		t.Fatalf("post-prefetch scan recharged: %d/%d -> %d/%d", bytes1, reads1, bytes2, reads2)
	}
	// Prefetch of an empty or inverted range is a no-op.
	if err := s.Prefetch([]int{0}, 5, 5); err != nil {
		t.Fatal(err)
	}
	if err := s.Prefetch([]int{0}, s.NRows(), s.NRows()+10); err != nil {
		t.Fatal(err)
	}
	if _, reads3 := dev.Stats(); reads3 != reads1 {
		t.Fatal("empty prefetch charged reads")
	}
}
