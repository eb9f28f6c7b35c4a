package txn

// Recovery moves each WAL record down by the size rule that committed it
// (pdt.Apply, as pdt.FoldSnap from validateLocked: a bulk Fold for a large
// record, Algorithm 7's pdt.Propagate for a small one), so a replayed manager
// must hold, record for record, the delta its live twin holds and the
// entries an all-Propagate replay builds — and a tail with a record that
// cannot be applied, or whose LSNs do not ascend, must leave the manager
// exactly where Recover found it.

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"pdtstore/internal/pdt"
	"pdtstore/internal/types"
	"pdtstore/internal/wal"
)

// committedDelta is everything m has committed, as one layer over the stable
// image: Read-PDT ∘ Write-PDT. Background folds move entries from the second
// to the first; the composition is what replay has to reproduce.
func committedDelta(t *testing.T, m *Manager) []pdt.RebuildEntry {
	t.Helper()
	if err := m.WaitMaintenance(); err != nil {
		t.Fatal(err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	d, err := pdt.Fold(m.cur.readPDT, m.writePDT)
	if err != nil {
		t.Fatal(err)
	}
	return d.Dump()
}

func TestRecoverReplaysCommitPath(t *testing.T) {
	const stableRows = 40
	for _, tc := range []struct {
		name   string
		budget uint64 // 0: the default, far above this history — no freeze
	}{{"one-write-layer", 0}, {"commits-after-freeze", 1 << 10}} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			live := newManager(t, stableRows, Options{Log: wal.NewWriter(&buf), WriteBudget: tc.budget})
			rng := rand.New(rand.NewSource(20))

			// The model: every visible key, and which of them an earlier
			// record inserted or modified (per column).
			var keys []int64
			for i := 1; i <= stableRows; i++ {
				keys = append(keys, int64(i*10))
			}
			inserted := map[int64]bool{}
			modified := map[[2]int64]bool{}
			nextKey := int64(5)
			var multi, modOfInsert, delOfInsert, remodify, afterFreeze int

			for commit := 0; commit < 160; commit++ {
				if !live.ReadPDT().Empty() {
					afterFreeze++
				}
				tx := live.Begin()
				nOps := 1 + rng.Intn(5)
				if nOps > 1 {
					multi++
				}
				touched := map[int64]bool{}
				for op := 0; op < nOps; op++ {
					i := rng.Intn(len(keys))
					k := keys[i]
					switch r := rng.Intn(10); {
					case r < 4 || len(keys) < 8:
						nextKey += 10 * int64(1+rng.Intn(3))
						k = nextKey
						if err := tx.Insert(types.Row{types.Int(k), types.Int(-k), types.Str("ins")}); err != nil {
							t.Fatal(err)
						}
						keys = append(keys, k)
						inserted[k] = true
					case touched[k]:
						continue
					case r < 8:
						col := int64(1 + rng.Intn(2))
						val := types.Int(rng.Int63n(1000))
						if col == 2 {
							val = types.Str("mod")
						}
						if ok, err := tx.UpdateByKey(types.Row{types.Int(k)}, int(col), val); err != nil || !ok {
							t.Fatalf("update %d: %v, %v", k, ok, err)
						}
						if inserted[k] {
							modOfInsert++
						}
						if modified[[2]int64{k, col}] {
							remodify++
						}
						modified[[2]int64{k, col}] = true
					default:
						if ok, err := tx.DeleteByKey(types.Row{types.Int(k)}); err != nil || !ok {
							t.Fatalf("delete %d: %v, %v", k, ok, err)
						}
						if inserted[k] {
							delOfInsert++
						}
						keys[i] = keys[len(keys)-1]
						keys = keys[:len(keys)-1]
					}
					touched[k] = true
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				if commit%8 == 7 {
					// Let a background fold land now and then, so later
					// commits meet both an in-flight frozen layer and a
					// refilled Read-PDT whatever the scheduler does.
					if err := live.WaitMaintenance(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if multi == 0 || modOfInsert == 0 || delOfInsert == 0 || remodify == 0 {
				t.Fatalf("history too thin: multi=%d modOfInsert=%d delOfInsert=%d remodify=%d",
					multi, modOfInsert, delOfInsert, remodify)
			}
			want := committedDelta(t, live)
			if froze := !live.ReadPDT().Empty(); froze != (tc.budget != 0) || froze != (afterFreeze > 0) {
				t.Fatalf("budget %d: froze=%v, %d commits after a freeze", tc.budget, froze, afterFreeze)
			}

			records, err := wal.Replay(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			twin := newManager(t, stableRows, Options{})
			for i := range records {
				if err := twin.Recover(records[i : i+1]); err != nil {
					t.Fatalf("record %d: %v", i, err)
				}
				if err := twin.writePDT.Validate(); err != nil {
					t.Fatalf("Write-PDT invalid after record %d: %v", i, err)
				}
			}
			if tc.budget == 0 {
				// Nothing was folded away: the Write-PDTs themselves agree.
				if got, want := twin.writePDT.Dump(), live.WritePDT().Dump(); !reflect.DeepEqual(got, want) {
					t.Fatalf("replayed Write-PDT differs from the live one\n got %v\nwant %v", got, want)
				}
			}
			if got := committedDelta(t, twin); !reflect.DeepEqual(got, want) {
				t.Fatalf("replayed delta differs from the live one\n got %v\nwant %v", got, want)
			}
			if twin.LSN() != live.LSN() {
				t.Fatalf("replayed LSN %d, live %d", twin.LSN(), live.LSN())
			}
			tx := twin.Begin()
			if err := tx.Insert(types.Row{types.Int(1), types.Int(0), types.Str("next")}); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			if tx.CommitLSN() != live.LSN()+1 {
				t.Fatalf("first commit after replay got LSN %d, want %d", tx.CommitLSN(), live.LSN()+1)
			}
		})
	}
}

// TestRecoverRejectsBadTailWhole replays a good record followed by one whose
// second entry fails Algorithm 7's validation (a modify value of the wrong
// kind; pdt.Rebuild checks structure, not value kinds): everything before the
// bad entry has been applied to the snapshot by then, and none of it may show.
func TestRecoverRejectsBadTailWhole(t *testing.T) {
	m := newManager(t, 64, Options{})
	base, good := tailRecords(32, 1)
	if err := m.Recover([]wal.Record{base}); err != nil {
		t.Fatal(err)
	}
	before := stateOf(m)
	bad := wal.Record{LSN: 3, Entries: []pdt.RebuildEntry{
		{SID: 40, Kind: 1, Mod: types.Int(1)},
		{SID: 41, Kind: 1, Mod: types.Str("wrong kind")},
	}}
	if err := m.Recover([]wal.Record{good[0], bad}); err == nil {
		t.Fatal("record with a mistyped modify value replayed cleanly")
	}
	if after := stateOf(m); !reflect.DeepEqual(after, before) {
		t.Fatalf("failed replay moved the manager\n got %+v\nwant %+v", after, before)
	}
}

// scriptedLog commits one transaction per entry of sizes, of that many ops,
// to a fresh manager over stable rows and returns the log its commits wrote.
// Ops are inserts of unused keys, and modifies and deletes of visible keys
// that favour keys an earlier commit inserted; while they last, every commit
// also inserts one key between the first two stable rows, so records of
// several commits insert at one SID. It reports how many ops modified or
// deleted a key an earlier commit inserted, and how many commits inserted
// at that SID.
func scriptedLog(t testing.TB, stable int, sizes []int, seed int64) (recs []wal.Record, modIns, delIns, sameSID int) {
	t.Helper()
	var buf bytes.Buffer
	live := mustManager(t, stable, Options{Log: wal.NewWriter(&buf), WriteBudget: 1 << 30})
	rng := rand.New(rand.NewSource(seed))
	var keys []int64              // visible keys
	insertedAt := map[int64]int{} // key → the commit that inserted it
	used := map[int64]bool{}      // keys ever visible
	for i := 1; i <= stable; i++ {
		keys = append(keys, int64(i*10))
		used[int64(i*10)] = true
	}
	nextSame := int64(11) // keys 11..19 all insert at SID 1
	for k := nextSame; k < 20; k++ {
		used[k] = true
	}
	insert := func(tx *Txn, k int64, commit int) {
		if err := tx.Insert(types.Row{types.Int(k), types.Int(-k), types.Str(fmt.Sprintf("i%d", k))}); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
		keys = append(keys, k)
		used[k] = true
		insertedAt[k] = commit
	}
	// pick returns the index of a visible key not touched by this commit,
	// favouring keys an earlier commit inserted.
	pick := func(touched map[int64]bool, commit int) (int, bool) {
		for try := 0; try < 64; try++ {
			i := rng.Intn(len(keys))
			k := keys[i]
			if touched[k] {
				continue
			}
			if c, ok := insertedAt[k]; (ok && c < commit) || try >= 8 {
				return i, true
			}
		}
		return 0, false
	}
	for commit, n := range sizes {
		tx := live.Begin()
		touched := map[int64]bool{}
		if nextSame < 20 {
			insert(tx, nextSame, commit)
			touched[nextSame] = true
			nextSame++
			sameSID++
		}
		for try := 0; len(touched) < n && try < 100*n; try++ {
			r := rng.Intn(10)
			if r < 4 {
				k := int64(10*(1+rng.Intn(stable)) + 1 + rng.Intn(9))
				if used[k] {
					continue
				}
				insert(tx, k, commit)
				touched[k] = true
				continue
			}
			i, ok := pick(touched, commit)
			if !ok {
				continue
			}
			k := keys[i]
			c, earlier := insertedAt[k]
			earlier = earlier && c < commit
			if r < 8 {
				col, val := 1, types.Int(rng.Int63n(1000))
				if r < 6 {
					col, val = 2, types.Str(fmt.Sprintf("m%d", rng.Intn(1000)))
				}
				if ok, err := tx.UpdateByKey(types.Row{types.Int(k)}, col, val); err != nil || !ok {
					t.Fatalf("update %d: %v, %v", k, ok, err)
				}
				if earlier {
					modIns++
				}
			} else {
				if ok, err := tx.DeleteByKey(types.Row{types.Int(k)}); err != nil || !ok {
					t.Fatalf("delete %d: %v, %v", k, ok, err)
				}
				if earlier {
					delIns++
				}
				keys[i] = keys[len(keys)-1]
				keys = keys[:len(keys)-1]
				delete(insertedAt, k)
			}
			touched[k] = true
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := wal.Replay(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(sizes) {
		t.Fatalf("%d commits logged %d records", len(sizes), len(recs))
	}
	return recs, modIns, delIns, sameSID
}

// propagateReplay is recovery as it was before the size rule: every record
// propagated entry by entry (Algorithm 7) into one snapshot of m's
// Write-PDT. It returns the resulting entries and how many records the size
// rule would have bulk-folded instead.
func propagateReplay(t *testing.T, m *Manager, records []wal.Record) (entries []pdt.RebuildEntry, folds int) {
	t.Helper()
	w := m.WritePDT().Snapshot()
	ruled := m.WritePDT().Snapshot()
	for _, rec := range records {
		p, err := pdt.Rebuild(m.schema, 0, rec.Entries)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Propagate(p); err != nil {
			t.Fatal(err)
		}
		next, err := pdt.Apply(ruled, p)
		if err != nil {
			t.Fatal(err)
		}
		if next != ruled {
			folds++
		}
		ruled = next
	}
	return w.Dump(), folds
}

// TestRecoverMatchesPropagateReplay is the size rule's differential: Recover
// must build, entry for entry, the Write-PDT an all-Propagate replay of the
// same tail builds, whichever records it bulk-folds.
func TestRecoverMatchesPropagateReplay(t *testing.T) {
	ones := func(n, size int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = size
		}
		return out
	}
	for _, tc := range []struct {
		name  string
		sizes []int
	}{
		{"large-after-small", slices.Concat(ones(30, 1), []int{300}, ones(10, 1))},
		{"small-after-large", slices.Concat([]int{300}, ones(40, 1), ones(10, 3))},
		{"alternating", slices.Concat(ones(3, 1), []int{200}, ones(2, 2), []int{150}, ones(3, 3), []int{400}, ones(8, 1))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const stable = 200
			records, modIns, delIns, sameSID := scriptedLog(t, stable, tc.sizes, int64(len(tc.sizes)))
			if modIns == 0 || delIns == 0 || sameSID < 2 {
				t.Fatalf("history too thin: %d modifies and %d deletes of earlier inserts, %d records inserting at SID 1",
					modIns, delIns, sameSID)
			}
			ref := newManager(t, stable, Options{})
			want, folds := propagateReplay(t, ref, records)
			if folds == 0 || folds == len(records) {
				t.Fatalf("the size rule folds %d of %d records; the case needs both branches", folds, len(records))
			}
			// Decode the tail again, so the replay under test owns rows
			// the reference never saw.
			again := make([]wal.Record, len(records))
			for i, rec := range records {
				again[i] = decodeAgain(t, rec)
			}
			m := newManager(t, stable, Options{})
			if err := m.Recover(again); err != nil {
				t.Fatal(err)
			}
			if err := m.WritePDT().Validate(); err != nil {
				t.Fatal(err)
			}
			if got := m.WritePDT().Dump(); !reflect.DeepEqual(got, want) {
				t.Fatalf("Recover and the all-Propagate replay differ\n got %v\nwant %v", got, want)
			}
			if m.LSN() != records[len(records)-1].LSN {
				t.Fatalf("LSN %d after replaying up to %d", m.LSN(), records[len(records)-1].LSN)
			}
		})
	}
}

// decodeAgain round-trips rec through the WAL codec: a copy that shares no
// row with rec.
func decodeAgain(t *testing.T, rec wal.Record) wal.Record {
	t.Helper()
	var buf bytes.Buffer
	w := wal.NewWriter(&buf)
	if err := w.AppendGroup([]wal.GroupRecord{{LSN: rec.LSN, Table: rec.Table, Shard: rec.Shard, Parts: rec.Parts, Entries: rec.Entries}}); err != nil {
		t.Fatal(err)
	}
	out, err := wal.Replay(&buf)
	if err != nil || len(out) != 1 {
		t.Fatalf("round trip = %d records, %v", len(out), err)
	}
	return out[0]
}

// deepDump is m's Write-PDT dump with every row copied, so a later write
// through a shared row shows as a difference.
func deepDump(m *Manager) []pdt.RebuildEntry {
	d := m.WritePDT().Dump()
	for i := range d {
		if d[i].Ins != nil {
			d[i].Ins = d[i].Ins.Clone()
		}
		if d[i].Del != nil {
			d[i].Del = d[i].Del.Clone()
		}
	}
	return d
}

// TestRecoverFailureKeepsPriorWritePDT replays, onto a Write-PDT of inserts,
// a tail whose large record is bulk-folded, whose small records then modify
// rows of that fold's output in place, and which fails in its middle. The
// Fold output shares its rows with the prior Write-PDT, so only repointing
// keeps the failed replay from writing through them.
func TestRecoverFailureKeepsPriorWritePDT(t *testing.T) {
	const stable = 100
	sizes := []int{120, 60}
	for i := 0; i < 30; i++ {
		sizes = append(sizes, 1)
	}
	records, modIns, _, _ := scriptedLog(t, stable, sizes, 7)
	if modIns == 0 {
		t.Fatal("no record modifies an earlier insert")
	}
	m := newManager(t, stable, Options{})
	if err := m.Recover(records[:1]); err != nil {
		t.Fatal(err)
	}
	before, lsn := deepDump(m), m.LSN()
	// The bad record sits between the small ones; those after it move up
	// one LSN so the tail still ascends.
	tail := slices.Clone(records[1:])
	cut := len(tail) - 5
	bad := wal.Record{LSN: tail[cut].LSN, Entries: []pdt.RebuildEntry{{SID: 3, Kind: 1, Mod: types.Str("wrong kind")}}}
	for i := cut; i < len(tail); i++ {
		tail[i].LSN++
	}
	tail = slices.Insert(tail, cut, bad)
	if err := m.Recover(tail); err == nil {
		t.Fatal("a tail with a mistyped record replayed cleanly")
	}
	if got := m.WritePDT().Dump(); !reflect.DeepEqual(got, before) {
		t.Fatalf("failed replay changed the prior Write-PDT\n got %v\nwant %v", got, before)
	}
	if m.LSN() != lsn {
		t.Fatalf("failed replay moved the LSN %d → %d", lsn, m.LSN())
	}
	// The same tail without the bad record goes in whole.
	if err := m.Recover(records[1:]); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverRejectsLSNsThatDoNotAscend: a CRC-valid record replayed twice,
// or one whose LSN is below its predecessor's, is an error that leaves the
// manager — Write-PDT, LSN, clock — where Recover found it.
func TestRecoverRejectsLSNsThatDoNotAscend(t *testing.T) {
	records, _, _, _ := scriptedLog(t, 40, []int{2, 1, 3, 1}, 3)
	for _, tc := range []struct {
		name string
		tail []wal.Record
	}{
		{"duplicate", []wal.Record{records[1], records[2], records[2], records[3]}},
		{"lower", []wal.Record{records[1], records[3], records[2]}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newManager(t, 40, Options{})
			if err := m.Recover(records[:1]); err != nil {
				t.Fatal(err)
			}
			before, clock := stateOf(m), m.clock.Load()
			err := m.Recover(tc.tail)
			if err == nil || !strings.Contains(err.Error(), "ascend") {
				t.Fatalf("Recover = %v; want an LSN-order error", err)
			}
			if after := stateOf(m); !reflect.DeepEqual(after, before) || m.clock.Load() != clock {
				t.Fatalf("rejected tail moved the manager\n got %+v\nwant %+v", after, before)
			}
		})
	}
}
