package pipeline

import "testing"

// TestFailedMutationsLeaveVersion: an insert the table rejects and a
// delete that removes nothing are not mutations. Neither may bump the
// version (which would invalidate every VM memo cache) or drop the
// exact-table read snapshot (which would force a rebuild on the data
// path).
func TestFailedMutationsLeaveVersion(t *testing.T) {
	exact := NewTable("exact", []KeySpec{{Width: 8, Kind: MatchExact}, {Width: 8, Kind: MatchExact}},
		[]FieldRef{"out"}, []Value{B(8, 0)})
	wide := NewTable("wide", make([]KeySpec, MaxPackedKeys+1), []FieldRef{"out"}, []Value{B(8, 0)})
	tcam := NewTable("tcam", []KeySpec{{Width: 8, Kind: MatchTernary}}, []FieldRef{"out"}, []Value{B(8, 0)})
	wideKeys := func(v uint64) []KeyMatch {
		k := make([]KeyMatch, MaxPackedKeys+1)
		for i := range k {
			k[i] = ExactKey(v)
		}
		return k
	}

	for _, tc := range []struct {
		tbl     *Table
		present []KeyMatch
		absent  []KeyMatch
		bad     []Entry
	}{
		{
			tbl:     exact,
			present: []KeyMatch{ExactKey(1), ExactKey(2)},
			absent:  []KeyMatch{ExactKey(2), ExactKey(1)},
			bad: []Entry{
				{Keys: []KeyMatch{ExactKey(1), AnyKey()}, Action: []Value{B(8, 1)}},
				{Keys: []KeyMatch{ExactKey(1)}, Action: []Value{B(8, 1)}},
				{Keys: []KeyMatch{ExactKey(1), ExactKey(3)}},
			},
		},
		{
			tbl:     wide,
			present: wideKeys(1),
			absent:  wideKeys(2),
			bad: []Entry{
				{Keys: append(wideKeys(1)[:MaxPackedKeys], AnyKey()), Action: []Value{B(8, 1)}},
			},
		},
		{
			tbl:     tcam,
			present: []KeyMatch{TernaryKey(1, 0xff)},
			absent:  []KeyMatch{TernaryKey(1, 0x0f)},
			bad: []Entry{
				{Keys: []KeyMatch{AnyKey(), AnyKey()}, Action: []Value{B(8, 1)}},
			},
		},
	} {
		tbl := tc.tbl
		if err := tbl.Insert(Entry{Keys: tc.present, Action: []Value{B(8, 7)}}); err != nil {
			t.Fatal(err)
		}
		tbl.WarmSnapshot()
		v, snap := tbl.Version(), tbl.snap.Load()
		if tbl.packed != nil && snap == nil {
			t.Fatalf("%s: no snapshot after WarmSnapshot", tbl.Name)
		}
		unchanged := func(what string) {
			t.Helper()
			if got := tbl.Version(); got != v {
				t.Errorf("%s: %s moved the version %d -> %d", tbl.Name, what, v, got)
			}
			if tbl.snap.Load() != snap {
				t.Errorf("%s: %s replaced the read snapshot", tbl.Name, what)
			}
		}
		for _, e := range tc.bad {
			if err := tbl.Insert(e); err == nil {
				t.Fatalf("%s: bad entry %+v accepted", tbl.Name, e)
			}
			unchanged("rejected insert")
		}
		if n := tbl.Delete(tc.absent); n != 0 {
			t.Fatalf("%s: deleting an absent key removed %d", tbl.Name, n)
		}
		unchanged("empty delete")
		if tbl.Len() != 1 {
			t.Fatalf("%s: len %d after failed mutations, want 1", tbl.Name, tbl.Len())
		}

		if n := tbl.Delete(tc.present); n != 1 {
			t.Fatalf("%s: deleting the present key removed %d", tbl.Name, n)
		}
		if tbl.Version() == v {
			t.Errorf("%s: a real delete left the version at %d", tbl.Name, v)
		}
		if tbl.snap.Load() != nil {
			t.Errorf("%s: a real delete kept the stale snapshot", tbl.Name)
		}
	}
}
