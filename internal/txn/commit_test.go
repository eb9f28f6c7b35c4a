package txn

// The commit pipeline is written once — commit enqueues (validateLocked),
// a leader makes the batch durable, installLocked makes it visible — and a
// commit takes it as a single-shard commit or as one member of a cross-shard
// commit. These tests hold the two kinds to the same outcome on a shard and
// the one-shard coordinator to the bare manager's Begin cost.

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
	Parked    int
}

func stateOf(m *Manager) commitState {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := commitState{LSN: m.lsn, WritePDT: m.writePDT.Dump(), Running: len(m.running),
		SnapCache: m.snapCache != nil, Parked: len(m.pending)}
	for _, c := range m.committed {
		st.TZ = append(st.TZ, tzEntry{LSN: c.commitLSN, Refs: c.refcnt, Entries: c.serialized.Dump()})
	}
	return st
}

// TestSequencedAndPreparedCommitsInstallIdentically commits the transaction
// under test on shard 0 of a two-shard table two ways: sequenced alone on
// shard 0's queue, and prepared on both shards at enqueue as a cross-shard
// member (the same writes plus one insert on shard 1). Shard 0 must end in
// the same state either way — LSN, Write-PDT, TZ set, running set, snapshot
// cache and queue — and the member must reach shard 1 at the same LSN.
func TestSequencedAndPreparedCommitsInstallIdentically(t *testing.T) {
	key := func(k int64) types.Row { return types.Row{types.Int(k)} }
	ins := func(t *testing.T, tx *STxn, k int64) {
		t.Helper()
		if err := tx.Insert(types.Row{types.Int(k), types.Int(-k), types.Str("new")}); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
	}
	upd := func(t *testing.T, tx *STxn, k int64, col int, v types.Value) {
		t.Helper()
		if ok, err := tx.UpdateByKey(key(k), col, v); err != nil || !ok {
			t.Fatalf("update %d: %v, %v", k, ok, err)
		}
	}
	del := func(t *testing.T, tx *STxn, k int64) {
		t.Helper()
		if ok, err := tx.DeleteByKey(key(k)); err != nil || !ok {
			t.Fatalf("delete %d: %v, %v", k, ok, err)
		}
	}
	cases := []struct {
		name string
		// history commits before the transaction under test begins; overlap
		// commits after it began (so Commit must serialize against the TZ).
		history, overlap func(t *testing.T, tx *STxn)
		delta            func(t *testing.T, tx *STxn)
		conflict         bool
	}{
		{name: "insert into an empty write layer",
			delta: func(t *testing.T, tx *STxn) { ins(t, tx, 55) }},
		{name: "modify and delete over committed history",
			history: func(t *testing.T, tx *STxn) { ins(t, tx, 15); ins(t, tx, 395) },
			delta: func(t *testing.T, tx *STxn) {
				ins(t, tx, 205)
				upd(t, tx, 100, 1, types.Int(7))
				del(t, tx, 300)
			}},
		{name: "serialized against an overlapping commit",
			history: func(t *testing.T, tx *STxn) { ins(t, tx, 25) },
			overlap: func(t *testing.T, tx *STxn) { ins(t, tx, 35); del(t, tx, 50) },
			delta: func(t *testing.T, tx *STxn) {
				ins(t, tx, 305)
				upd(t, tx, 200, 2, types.Str("moved"))
			}},
		{name: "write-write conflict with an overlapping commit",
			overlap:  func(t *testing.T, tx *STxn) { upd(t, tx, 200, 1, types.Int(1)) },
			delta:    func(t *testing.T, tx *STxn) { upd(t, tx, 200, 1, types.Int(2)) },
			conflict: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// drive runs the scenario on a fresh two-shard table (keys
			// 10..400 on shard 0, 410..800 on shard 1) and returns both
			// shards' states after the transaction under test commits.
			drive := func(cross bool) (commitState, commitState) {
				s := newSharded(t, 80, 2, Options{}, nil)
				if s.ShardOf(key(400)) != 0 || s.ShardOf(key(805)) != 1 {
					t.Fatalf("split keys %v do not cut at 410", s.Keys())
				}
				run := func(f func(*testing.T, *STxn)) {
					if f == nil {
						return
					}
					tx := s.Begin()
					f(t, tx)
					if err := tx.Commit(); err != nil {
						t.Fatal(err)
					}
				}
				run(tc.history)
				reader := s.Begin() // keeps every later commit in the TZ set
				defer reader.Abort()
				tx := s.Begin()
				tc.delta(t, tx)
				if cross {
					ins(t, tx, 805)
				}
				run(tc.overlap)
				s.Begin().Abort() // a cached snapshot the install must drop
				err := tx.Commit()
				if tc.conflict != errors.Is(err, ErrConflict) || (!tc.conflict && err != nil) {
					t.Fatalf("commit = %v, conflict expected: %v", err, tc.conflict)
				}
				return stateOf(s.Shard(0)), stateOf(s.Shard(1))
			}
			sequenced, _ := drive(false)
			prepared, other := drive(true)
			if !reflect.DeepEqual(sequenced, prepared) {
				t.Fatalf("the two commit kinds diverged on shard 0:\nsingle-shard: %+v\ncross-shard:  %+v", sequenced, prepared)
			}
			if sequenced.SnapCache != tc.conflict || sequenced.Parked != 0 || sequenced.Running != 1 {
				t.Fatalf("state after commit = %+v", sequenced)
			}
			if !tc.conflict && (other.LSN != prepared.LSN || len(other.WritePDT) != 1) {
				t.Fatalf("shard 1 after the cross-shard commit at LSN %d: %+v", prepared.LSN, other)
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
