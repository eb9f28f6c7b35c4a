package txn

// Recovery replays a WAL record with Algorithm 7 (pdt.Propagate), the
// per-entry half of the fold that committed it (pdt.FoldSnap from
// validateLocked), so a replayed manager must hold, record for record, the
// delta its live twin holds — and a tail with a record that cannot be applied
// must leave the manager exactly where Recover found it.

import (
	"bytes"
	"math/rand"
	"reflect"
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
