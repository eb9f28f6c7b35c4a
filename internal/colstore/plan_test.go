package colstore

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"pdtstore/internal/storage"
)

// FuzzProbePlan holds planStage to its contract over random segment layouts
// (blocks with holes between some, paged or not) and random wanted units per
// stage: every wanted unit is read, every read is a union of whole units that
// follow each other without a hole, no unit is read twice across the stages,
// and no bridged gap exceeds bridgeGap.
func FuzzProbePlan(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, 3, 42} {
		f.Add(seed, uint8(12), uint8(3))
	}
	f.Fuzz(func(t *testing.T, seed int64, nblocks, stages uint8) {
		rng := rand.New(rand.NewSource(seed))
		blocks := make([]storage.BlockSpan, 1+int(nblocks)%40)
		off := int64(8)
		for i := range blocks {
			if rng.Intn(4) == 0 {
				off += int64(1 + rng.Intn(3*storage.PageSize)) // a hole
			}
			n := 1 + rng.Intn(storage.PageSize)
			if rng.Intn(2) == 0 {
				n = storage.PageSize + 1 + rng.Intn(6*storage.PageSize)
			}
			blocks[i] = storage.BlockSpan{Off: off, Len: n, Col: i, Paged: n > storage.PageSize}
			off += int64(n)
		}
		unitOf := func(i int, at int64) [2]int64 { // the file range of the unit of block i holding byte at
			b := blocks[i]
			u := unitCover(b, int(at-b.Off), int(at-b.Off)+1)
			return [2]int64{b.Off + int64(u.Lo), b.Off + int64(u.Hi)}
		}
		var done []fileRange
		read := map[[2]int64]bool{} // units read so far, by file range
		for stage := 0; stage < 1+int(stages)%5; stage++ {
			var wants []want
			for k := rng.Intn(8); k > 0; k-- {
				i := rng.Intn(len(blocks))
				lo := rng.Intn(blocks[i].Len)
				u := unitCover(blocks[i], lo, lo+1+rng.Intn(blocks[i].Len-lo))
				wants = append(wants, want{0, i, u.Lo, u.Hi})
			}
			wanted := append([]want(nil), wants...)
			reads, units := planStage(blocks, wants, done, nil, nil)
			for ri, r := range reads {
				if ri > 0 && r.lo < reads[ri-1].hi {
					t.Fatalf("stage %d: read %d [%d, %d) overlaps the one before", stage, ri, r.lo, r.hi)
				}
				at, gap := r.lo, int64(0)
				for _, u := range units[r.u0:r.u1] {
					b := blocks[u.Col]
					lo, hi := b.Off+int64(u.Lo), b.Off+int64(u.Hi)
					if lo != at || unitOf(u.Col, lo)[0] != lo || (hi != b.Off+int64(b.Len) && unitOf(u.Col, hi-1)[1] != hi) {
						t.Fatalf("stage %d: read [%d, %d): unit %+v is not whole units from %d", stage, r.lo, r.hi, u, at)
					}
					for p := lo; p < hi; p = unitOf(u.Col, p)[1] {
						k := unitOf(u.Col, p)
						if read[k] {
							t.Fatalf("stage %d: unit [%d, %d) read twice", stage, k[0], k[1])
						}
						read[k] = true
						isWanted := false
						for _, w := range wanted {
							wb := blocks[w.i]
							isWanted = isWanted || w.i == u.Col && wb.Off+int64(w.lo) <= k[0] && k[1] <= wb.Off+int64(w.hi)
						}
						if isWanted {
							gap = 0
						} else if gap += k[1] - k[0]; gap > bridgeGap {
							t.Fatalf("stage %d: read [%d, %d) bridges more than %d bytes", stage, r.lo, r.hi, bridgeGap)
						}
					}
					at = hi
				}
				if at != r.hi {
					t.Fatalf("stage %d: read [%d, %d) has units to %d", stage, r.lo, r.hi, at)
				}
			}
			for _, w := range wanted {
				b := blocks[w.i]
				for p := b.Off + int64(w.lo); p < b.Off+int64(w.hi); p = unitOf(w.i, p)[1] {
					if !read[unitOf(w.i, p)] {
						t.Fatalf("stage %d: wanted unit at %d of block %d never read", stage, p, w.i)
					}
				}
			}
			done = addDone(done, reads)
		}
	})
}

// BenchmarkBridgeGap measures what bridgeGap is set from: two 4 KB reads a
// gap apart in a file in the OS cache, read apart (two preads) or as one
// read through the gap, each page of what was read checksummed. One read
// wins while the gap costs less to copy and checksum than a pread costs.
func BenchmarkBridgeGap(b *testing.B) {
	path := filepath.Join(b.TempDir(), "f")
	data := make([]byte, 16<<20)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		b.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	const page = storage.PageSize
	buf := make([]byte, 1<<20)
	var sink uint32
	for _, g := range []int{0, page, 2 * page, 3 * page, 4 * page} {
		b.Run(fmt.Sprintf("apart/gap=%d", g), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				off := int64(i%1000) * 65536
				f.ReadAt(buf[:page], off)
				f.ReadAt(buf[page+g:2*page+g], off+int64(page+g))
				sink += crc32.ChecksumIEEE(buf[:page]) + crc32.ChecksumIEEE(buf[page+g:2*page+g])
			}
		})
		b.Run(fmt.Sprintf("bridged/gap=%d", g), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				off := int64(i%1000) * 65536
				f.ReadAt(buf[:2*page+g], off)
				for p := 0; p < 2*page+g; p += page {
					sink += crc32.ChecksumIEEE(buf[p : p+page])
				}
			}
		})
	}
	_ = sink
}
