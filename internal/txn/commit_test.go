package txn

// The commit pipeline is written once — validateLocked, then installLocked —
// and reached two ways: through the sequencer (Txn.Commit) and through the
// cross-shard hold (prepareCommit / preparedCommit.install). These tests hold
// the two entries to the same outcome and the one-shard coordinator to the
// bare manager's Begin cost.

import (
	"errors"
	"reflect"
	"testing"

	"pdtstore/internal/pdt"
	"pdtstore/internal/types"
)

// tzEntry is one TZ member, by value.
type tzEntry struct {
	LSN     uint64
	Refs    int
	Entries []pdt.RebuildEntry
}

// commitState is everything a commit's install leaves behind on its manager.
type commitState struct {
	LSN       uint64
	WritePDT  []pdt.RebuildEntry
	TZ        []tzEntry
	Running   int
	SnapCache bool
	Held      bool
	Parked    int
}

func stateOf(m *Manager) commitState {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := commitState{LSN: m.lsn, WritePDT: m.writePDT.Dump(), Running: len(m.running),
		SnapCache: m.snapCache != nil, Held: m.held, Parked: len(m.pending)}
	for _, c := range m.committed {
		st.TZ = append(st.TZ, tzEntry{LSN: c.commitLSN, Refs: c.refcnt, Entries: c.serialized.Dump()})
	}
	return st
}

func TestSequencedAndPreparedCommitsInstallIdentically(t *testing.T) {
	key := func(k int64) types.Row { return types.Row{types.Int(k)} }
	ins := func(t *testing.T, tx *Txn, k int64) {
		t.Helper()
		if err := tx.Insert(types.Row{types.Int(k), types.Int(-k), types.Str("new")}); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
	}
	upd := func(t *testing.T, tx *Txn, k int64, col int, v types.Value) {
		t.Helper()
		if ok, err := tx.UpdateByKey(key(k), col, v); err != nil || !ok {
			t.Fatalf("update %d: %v, %v", k, ok, err)
		}
	}
	del := func(t *testing.T, tx *Txn, k int64) {
		t.Helper()
		if ok, err := tx.DeleteByKey(key(k)); err != nil || !ok {
			t.Fatalf("delete %d: %v, %v", k, ok, err)
		}
	}
	cases := []struct {
		name string
		// history commits before the transaction under test begins; overlap
		// commits after it began (so Commit must serialize against the TZ).
		history, overlap func(t *testing.T, tx *Txn)
		delta            func(t *testing.T, tx *Txn)
		conflict         bool
	}{
		{name: "insert into an empty write layer",
			delta: func(t *testing.T, tx *Txn) { ins(t, tx, 55) }},
		{name: "modify and delete over committed history",
			history: func(t *testing.T, tx *Txn) { ins(t, tx, 15); ins(t, tx, 395) },
			delta: func(t *testing.T, tx *Txn) {
				ins(t, tx, 205)
				upd(t, tx, 100, 1, types.Int(7))
				del(t, tx, 300)
			}},
		{name: "serialized against an overlapping commit",
			history: func(t *testing.T, tx *Txn) { ins(t, tx, 25) },
			overlap: func(t *testing.T, tx *Txn) { ins(t, tx, 35); del(t, tx, 50) },
			delta: func(t *testing.T, tx *Txn) {
				ins(t, tx, 305)
				upd(t, tx, 200, 2, types.Str("moved"))
			}},
		{name: "write-write conflict with an overlapping commit",
			overlap:  func(t *testing.T, tx *Txn) { upd(t, tx, 200, 1, types.Int(1)) },
			delta:    func(t *testing.T, tx *Txn) { upd(t, tx, 200, 1, types.Int(2)) },
			conflict: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// drive runs the scenario on a fresh manager and commits the
			// transaction under test through the given entry.
			drive := func(commit func(m *Manager, tx *Txn) error) commitState {
				m := newManager(t, 40, Options{})
				if tc.history != nil {
					tx := m.Begin()
					tc.history(t, tx)
					if err := tx.Commit(); err != nil {
						t.Fatal(err)
					}
				}
				reader := m.Begin() // keeps every later commit in the TZ set
				defer reader.Abort()
				tx := m.Begin()
				tc.delta(t, tx)
				if tc.overlap != nil {
					other := m.Begin()
					tc.overlap(t, other)
					if err := other.Commit(); err != nil {
						t.Fatal(err)
					}
				}
				m.Begin().Abort() // a cached snapshot the install must drop
				err := commit(m, tx)
				if tc.conflict != errors.Is(err, ErrConflict) || (!tc.conflict && err != nil) {
					t.Fatalf("commit = %v, conflict expected: %v", err, tc.conflict)
				}
				return stateOf(m)
			}
			sequenced := drive(func(m *Manager, tx *Txn) error { return tx.Commit() })
			prepared := drive(func(m *Manager, tx *Txn) error {
				pc, err := m.prepareCommit(tx)
				if err != nil {
					return err
				}
				pc.install(m.clock.Add(1))
				return nil
			})
			if !reflect.DeepEqual(sequenced, prepared) {
				t.Fatalf("the two commit entries diverged:\nsequencer: %+v\nprepared:  %+v", sequenced, prepared)
			}
			if sequenced.SnapCache != tc.conflict || sequenced.Held || sequenced.Parked != 0 || sequenced.Running != 1 {
				t.Fatalf("state after commit = %+v", sequenced)
			}
			wantTZ := 0 // the reader pins every commit made after it began
			if tc.overlap != nil {
				wantTZ++
			}
			if !tc.conflict {
				wantTZ++
			}
			if len(sequenced.TZ) != wantTZ {
				t.Fatalf("TZ holds %d members, want %d", len(sequenced.TZ), wantTZ)
			}
		})
	}
}

// TestOneShardBeginCostsWhatManagerBeginCosts is the guard that lets every
// store go through the coordinator: on one shard, Sharded.Begin + Abort is
// Manager.Begin + Abort plus the STxn and its one-element vector.
func TestOneShardBeginCostsWhatManagerBeginCosts(t *testing.T) {
	m := newManager(t, 64, Options{})
	s := newSharded(t, 64, 1, Options{}, nil)
	bare := testing.AllocsPerRun(200, func() {
		if err := m.Begin().Abort(); err != nil {
			t.Fatal(err)
		}
	})
	coordinated := testing.AllocsPerRun(200, func() {
		if err := s.Begin().Abort(); err != nil {
			t.Fatal(err)
		}
	})
	if coordinated > bare+3 {
		t.Errorf("Begin+Abort allocates %v through a one-shard coordinator, %v on the bare manager", coordinated, bare)
	}
}
