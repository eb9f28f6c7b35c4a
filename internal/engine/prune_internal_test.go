package engine

// White-box test for the pre-scan pruning primitive: the zone exclusion rules
// (including the truncated-string edge). The morselizer that turns kept
// ranges into morsels is tested in morsel_test.go.

import (
	"testing"

	"pdtstore/internal/storage"
)

func TestZoneExcludes(t *testing.T) {
	intZone := storage.Zone{Kind: storage.ZoneInt, MinI: 10, MaxI: 20}
	floatZone := storage.Zone{Kind: storage.ZoneFloat, MinF: 1.5, MaxF: 2.5}
	strZone := storage.Zone{Kind: storage.ZoneString, MinS: "dog", MaxS: "fox"}
	truncZone := storage.Zone{Kind: storage.ZoneString, MinS: "aa", MaxS: "zz", MaxSTrunc: true}
	cases := []struct {
		name string
		z    storage.Zone
		p    Pred
		want bool
	}{
		{"int below", intZone, Pred{Op: PredInt64Range, ILo: 0, IHi: 9}, true},
		{"int above", intZone, Pred{Op: PredInt64Range, ILo: 21, IHi: 30}, true},
		{"int overlap lo", intZone, Pred{Op: PredInt64Range, ILo: 5, IHi: 10}, false},
		{"int overlap hi", intZone, Pred{Op: PredInt64Range, ILo: 20, IHi: 99}, false},
		{"int inside", intZone, Pred{Op: PredInt64Range, ILo: 12, IHi: 13}, false},
		{"none kind never skips", storage.Zone{}, Pred{Op: PredInt64Range, ILo: 0, IHi: 0}, false},
		{"float below", floatZone, Pred{Op: PredFloat64Range, FLo: 0, FHi: 1.4}, true},
		{"float above", floatZone, Pred{Op: PredFloat64Range, FLo: 2.6, FHi: 3}, true},
		{"float overlap", floatZone, Pred{Op: PredFloat64Range, FLo: 2.5, FHi: 3}, false},
		{"float lt strict at min", floatZone, Pred{Op: PredFloat64Lt, FHi: 1.5}, true},
		{"float lt above min", floatZone, Pred{Op: PredFloat64Lt, FHi: 1.6}, false},
		{"str eq below min", strZone, Pred{Op: PredStrEq, Strs: []string{"cat"}}, true},
		{"str eq above max", strZone, Pred{Op: PredStrEq, Strs: []string{"goat"}}, true},
		{"str eq inside", strZone, Pred{Op: PredStrEq, Strs: []string{"elk"}}, false},
		{"str in all outside", strZone, Pred{Op: PredStrIn, Strs: []string{"ant", "yak"}}, true},
		{"str in one inside", strZone, Pred{Op: PredStrIn, Strs: []string{"ant", "emu"}}, false},
		{"prefix below", strZone, Pred{Op: PredStrPrefix, Strs: []string{"ca"}}, true},
		{"prefix above", strZone, Pred{Op: PredStrPrefix, Strs: []string{"go"}}, true},
		{"prefix of min", strZone, Pred{Op: PredStrPrefix, Strs: []string{"do"}}, false},
		{"prefix of max", strZone, Pred{Op: PredStrPrefix, Strs: []string{"fox"}}, false},
		// A truncated max is only a prefix of the true max: anything extending
		// it may still be in the block, so the upper bound cannot exclude.
		{"trunc max extension kept", truncZone, Pred{Op: PredStrEq, Strs: []string{"zzz"}}, false},
		{"trunc min still excludes", truncZone, Pred{Op: PredStrEq, Strs: []string{"a"}}, true},
		{"contains never skips", strZone, Pred{Op: PredStrContains, Strs: []string{"o"}}, false},
	}
	for _, c := range cases {
		if got := zoneExcludes(c.z, c.p); got != c.want {
			t.Errorf("%s: zoneExcludes = %v, want %v", c.name, got, c.want)
		}
	}
}
