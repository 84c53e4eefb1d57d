package pipeline_test

import (
	"testing"

	"repro/internal/compiler"
	"repro/internal/pipeline"
)

// TestLinkedLiveInstall pins live control-plane writes against the
// per-hop executor: an Install or Delete on an exact (packed-key) or a
// ternary/range (cached TCAM) table between two Runtime.RunBlocks calls
// must be visible to the second call, even with the executor's caches
// warm from earlier hops on the same pooled contexts. Per-hop execution
// runs on the bytecode VM; the test keeps the name it had when it ran
// on the linked-closure executor the VM replaced.
func TestLinkedLiveInstall(t *testing.T) {
	fx := pipeline.Field{Ref: "hdr.x", Width: 32}
	fy := pipeline.Field{Ref: "hdr.y", Width: 16}
	prog := &pipeline.Program{
		Name: "live-install",
		Tables: []pipeline.TableSpec{
			{
				Name:    "t_exact",
				Keys:    []pipeline.KeySpec{{Name: "x", Width: 32}, {Name: "y", Width: 16}},
				Outputs: []pipeline.FieldRef{"ctrl.ex_out"}, OutputWidths: []int{16},
				Default: []pipeline.Value{pipeline.B(16, 0x0BEE)},
			},
			{
				Name: "t_acl",
				Keys: []pipeline.KeySpec{
					{Name: "x", Width: 32, Kind: pipeline.MatchTernary},
					{Name: "y", Width: 16, Kind: pipeline.MatchRange},
				},
				Outputs: []pipeline.FieldRef{"ctrl.acl"}, OutputWidths: []int{8},
				Default: []pipeline.Value{pipeline.B(8, 0)},
			},
		},
		HeaderBindings: map[string]string{"x": "hdr.x", "y": "hdr.y"},
		Checker: []pipeline.Op{
			pipeline.ApplyOp{Table: "t_exact", Keys: []pipeline.Expr{fx, fy}},
			pipeline.ApplyOp{Table: "t_acl", Keys: []pipeline.Expr{fx, fy}},
			pipeline.ReportOp{Args: []pipeline.Expr{pipeline.Field{Ref: "ctrl.acl", Width: 8}, pipeline.Field{Ref: "ctrl.ex_out", Width: 16}}},
		},
	}
	st := prog.NewState()
	for _, ins := range []struct {
		table string
		e     pipeline.Entry
	}{
		{"t_exact", pipeline.Entry{Keys: []pipeline.KeyMatch{pipeline.ExactKey(10), pipeline.ExactKey(20)}, Action: []pipeline.Value{pipeline.B(16, 200)}}},
		{"t_acl", pipeline.Entry{Keys: []pipeline.KeyMatch{pipeline.TernaryKey(8, 0xC), pipeline.RangeKey(15, 30)}, Priority: 10, Action: []pipeline.Value{pipeline.B(8, 2)}}},
		{"t_acl", pipeline.Entry{Keys: []pipeline.KeyMatch{pipeline.AnyKey(), pipeline.RangeKey(0, 1000)}, Priority: 1, Action: []pipeline.Value{pipeline.B(8, 7)}}},
	} {
		if err := st.Tables[ins.table].Insert(ins.e); err != nil {
			t.Fatalf("insert into %s: %v", ins.table, err)
		}
	}

	rt := &compiler.Runtime{Prog: prog}
	if rt.VM() == nil {
		t.Fatal("program failed to compile to bytecode")
	}
	env := compiler.HopEnv{State: st, SwitchID: 1, PacketLen: 100,
		Headers: map[string]pipeline.Value{"hdr.x": pipeline.B(32, 100), "hdr.y": pipeline.B(16, 500)}}
	run := func() (acl, ex uint64) {
		res, err := rt.RunBlocks(nil, env, compiler.BlockSet{Checker: true}, true, true)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Reports) != 1 || len(res.Reports[0].Args) != 2 {
			t.Fatalf("reports %+v, want one with two args", res.Reports)
		}
		return res.Reports[0].Args[0].V, res.Reports[0].Args[1].V
	}

	if acl, ex := run(); acl != 7 || ex != 0x0BEE {
		t.Fatalf("pre-install: acl=%d ex=%#x, want 7 and 0xbee", acl, ex)
	}
	// Run twice so the TCAM cache is warm before the table changes.
	run()

	aclTbl := st.Tables["t_acl"]
	v0 := aclTbl.Version()
	if err := aclTbl.Insert(pipeline.Entry{
		Keys:     []pipeline.KeyMatch{pipeline.TernaryKey(100, 0xFFFF), pipeline.RangeKey(400, 600)},
		Priority: 50, Action: []pipeline.Value{pipeline.B(8, 42)},
	}); err != nil {
		t.Fatal(err)
	}
	if aclTbl.Version() == v0 {
		t.Fatal("Insert did not bump the table version")
	}
	if err := st.Tables["t_exact"].Insert(pipeline.Entry{
		Keys: []pipeline.KeyMatch{pipeline.ExactKey(100), pipeline.ExactKey(500)}, Action: []pipeline.Value{pipeline.B(16, 777)},
	}); err != nil {
		t.Fatal(err)
	}

	if acl, ex := run(); acl != 42 || ex != 777 {
		t.Fatalf("post-install: acl=%d ex=%d, want 42 and 777 (stale cache?)", acl, ex)
	}

	if n := aclTbl.Delete([]pipeline.KeyMatch{pipeline.TernaryKey(100, 0xFFFF), pipeline.RangeKey(400, 600)}); n != 1 {
		t.Fatalf("Delete removed %d entries, want 1", n)
	}
	if acl, _ := run(); acl != 7 {
		t.Fatalf("post-delete: acl=%d, want 7 (stale cache after delete?)", acl)
	}
}
