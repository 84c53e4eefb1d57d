package bytecode_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/checkers"
	"repro/internal/compiler"
	"repro/internal/indus/parser"
	"repro/internal/indus/types"
	"repro/internal/pipeline"
)

// f is a width-annotated field read.
func f(ref string, w int) pipeline.Field {
	return pipeline.Field{Ref: pipeline.FieldRef(ref), Width: w}
}

func c(w int, v uint64) pipeline.Const { return pipeline.C(w, v) }

func bin(op pipeline.OpCode, x, y pipeline.Expr) pipeline.Expr {
	return pipeline.Bin{Op: op, X: x, Y: y}
}

// tortureProgram exercises every IR construct and the semantic edge
// cases the VM must preserve bit-for-bit: telemetry scalars and
// arrays, scratch arrays with shift-eviction and out-of-range slot
// writes, width-defaulted reads of never-written fields, eager
// compilation of short-circuit operators over division by zero,
// oversized shifts, two's-complement abs/neg, mux, exact, TCAM and
// wide (more than MaxPackedKeys columns) tables, registers, and nested
// control flow.
func tortureProgram() *pipeline.Program {
	hopsF := pipeline.Field{Ref: pipeline.FieldHops, Width: 8}
	h0 := f("hdr.x.h0", 8)
	return &pipeline.Program{
		Name: "torture",
		Tables: []pipeline.TableSpec{
			{
				Name:         "exact_t",
				Keys:         []pipeline.KeySpec{{Name: "k", Width: 8, Kind: pipeline.MatchExact}},
				Outputs:      []pipeline.FieldRef{"exact_t.out"},
				OutputWidths: []int{16},
				Default:      []pipeline.Value{pipeline.B(16, 7)},
			},
			{
				Name:         "tcam_t",
				Keys:         []pipeline.KeySpec{{Name: "k", Width: 8, Kind: pipeline.MatchTernary}},
				Outputs:      []pipeline.FieldRef{"tcam_t.out"},
				OutputWidths: []int{8},
				Default:      []pipeline.Value{pipeline.B(8, 9)},
			},
			{
				Name: "wide_t",
				Keys: []pipeline.KeySpec{
					{Width: 8}, {Width: 8}, {Width: 8}, {Width: 8}, {Width: 12},
				},
				Outputs:      []pipeline.FieldRef{"wide_t.out"},
				OutputWidths: []int{8},
				Default:      []pipeline.Value{pipeline.B(8, 3)},
			},
		},
		Registers: []pipeline.RegisterSpec{{Name: "reg", Width: 16, Size: 4}},
		Tele: []pipeline.TeleField{
			{Name: "t_scalar", Width: 12},
			{Name: "t_arr", Width: 5, IsArray: true, Cap: 3},
		},
		HeaderBindings: map[string]string{"h0": "hdr.x.h0"},
		Init: []pipeline.Op{
			pipeline.AssignOp{Dst: "t_scalar", DstWidth: 12, Src: c(12, 1)},
		},
		Telemetry: []pipeline.Op{
			// Accumulating telemetry scalar (wraps at 12 bits).
			pipeline.AssignOp{Dst: "t_scalar", DstWidth: 12, Src: bin(pipeline.OpAdd,
				f("t_scalar", 12), bin(pipeline.OpMul, h0, c(12, 3)))},
			// Telemetry array: evicts oldest once 3 hops have pushed.
			pipeline.PushOp{Base: "t_arr", ElemWidth: 5, Cap: 3, Src: hopsF},
			// Scratch array, reset every hop.
			pipeline.PushOp{Base: "s_arr", ElemWidth: 7, Cap: 2, Src: h0},
			pipeline.PushOp{Base: "s_arr", ElemWidth: 7, Cap: 2, Src: bin(pipeline.OpBXor, h0, c(7, 0x55))},
			pipeline.PushOp{Base: "s_arr", ElemWidth: 7, Cap: 2, Src: c(7, 1)}, // evicts
			// Slot write, out of range when h0 >= 4.
			pipeline.SetSlotOp{Base: "s2", ElemWidth: 9, Cap: 4, Index: h0, Src: bin(pipeline.OpAdd, h0, c(9, 100))},
			// TCAM apply keyed by the header.
			pipeline.ApplyOp{Table: "tcam_t", Keys: []pipeline.Expr{h0}},
			// Register accumulation: reg[1] += h0 + tcam hit flag.
			pipeline.RegReadOp{Reg: "reg", Index: c(2, 1), Dst: "regv", Width: 16},
			pipeline.RegWriteOp{Reg: "reg", Index: c(2, 1), Src: bin(pipeline.OpAdd,
				f("regv", 16), bin(pipeline.OpAdd, h0, f("tcam_t.$hit", 1)))},
		},
		Checker: []pipeline.Op{
			// Exact apply keyed by the scalar's low byte.
			pipeline.ApplyOp{Table: "exact_t", Keys: []pipeline.Expr{bin(pipeline.OpBAnd, f("t_scalar", 12), c(12, 0xFF))}},
			// Eager || and && over division by a possibly-zero header.
			pipeline.AssignOp{Dst: "lazy", DstWidth: 1, Src: bin(pipeline.OpLOr,
				bin(pipeline.OpEq, h0, c(8, 0)),
				bin(pipeline.OpEq, bin(pipeline.OpDiv, c(8, 8), h0), c(8, 2)))},
			pipeline.AssignOp{Dst: "lazy2", DstWidth: 1, Src: bin(pipeline.OpLAnd,
				bin(pipeline.OpNe, h0, c(8, 0)),
				bin(pipeline.OpGt, bin(pipeline.OpMod, c(8, 200), h0), c(8, 1)))},
			// Oversized shift amounts yield zero.
			pipeline.AssignOp{Dst: "bigshift", DstWidth: 8, Src: c(8, 200)},
			pipeline.AssignOp{Dst: "sh", DstWidth: 16, Src: bin(pipeline.OpShl, c(16, 3), f("bigshift", 8))},
			// Two's-complement abs/neg, max/min, mux on the TCAM hit.
			pipeline.AssignOp{Dst: "absv", DstWidth: 8, Src: pipeline.Unary{Op: pipeline.OpAbs,
				X: bin(pipeline.OpSub, h0, c(8, 9))}},
			pipeline.AssignOp{Dst: "mm", DstWidth: 12, Src: bin(pipeline.OpMax,
				f("t_scalar", 12), bin(pipeline.OpMin, f("absv", 8), c(12, 6)))},
			pipeline.AssignOp{Dst: "muxv", DstWidth: 8, Src: pipeline.Mux{
				Cond: f("tcam_t.$hit", 1),
				X:    f("tcam_t.out", 8),
				Y:    pipeline.Unary{Op: pipeline.OpNeg, X: h0},
			}},
			// Nested control flow raising width-sensitive reports:
			// "unwritten.field" is never assigned, so its report arg must
			// carry the declared 9-bit width with value zero.
			pipeline.IfOp{
				Cond: bin(pipeline.OpGt, f("regv", 16), c(16, 3)),
				Then: []pipeline.Op{
					pipeline.IfOp{
						Cond: f("lazy", 1),
						Then: []pipeline.Op{pipeline.ReportOp{Args: []pipeline.Expr{
							f("regv", 16), f("unwritten.field", 9), f("t_arr.$count", 8),
							f("s_arr.1", 7), f("mm", 12),
						}}},
						Else: []pipeline.Op{pipeline.ReportOp{Args: []pipeline.Expr{f("muxv", 8), f("sh", 16)}}},
					},
				},
				Else: []pipeline.Op{
					pipeline.AssignOp{Dst: "mm", DstWidth: 12, Src: c(12, 0xFFF)},
				},
			},
			// Wide apply (generic slice-key path), reporting on a hit.
			pipeline.ApplyOp{Table: "wide_t", Keys: []pipeline.Expr{
				h0, c(8, 1), c(8, 2), c(8, 3), f("t_scalar", 12)}},
			pipeline.IfOp{
				Cond: f("wide_t.$hit", 1),
				Then: []pipeline.Op{pipeline.ReportOp{Args: []pipeline.Expr{f("wide_t.out", 8), h0}}},
			},
			// Reject when the trace ran 3+ hops and the exact table hit.
			pipeline.AssignOp{Dst: pipeline.FieldReject, DstWidth: 1, Src: bin(pipeline.OpLAnd,
				bin(pipeline.OpGe, hopsF, c(8, 3)), f("exact_t.$hit", 1))},
		},
	}
}

// installTorture populates one switch state with table entries for the
// torture program.
func installTorture(t *testing.T, st *pipeline.State) {
	t.Helper()
	// 1*… accumulations land on a few of these exact keys depending on
	// the header sequence; cover hit and miss.
	for _, k := range []uint64{1, 13, 25, 52, 61, 97} {
		if err := st.Tables["exact_t"].Insert(pipeline.Entry{
			Keys:   []pipeline.KeyMatch{pipeline.ExactKey(k)},
			Action: []pipeline.Value{pipeline.B(16, 1000+k)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Wide: hit when the last hop's header is 0 and the scalar reads 4
	// (the {1, 0} trace).
	if err := st.Tables["wide_t"].Insert(pipeline.Entry{
		Keys: []pipeline.KeyMatch{pipeline.ExactKey(0), pipeline.ExactKey(1), pipeline.ExactKey(2),
			pipeline.ExactKey(3), pipeline.ExactKey(4)},
		Action: []pipeline.Value{pipeline.B(8, 66)},
	}); err != nil {
		t.Fatal(err)
	}
	// Ternary: match any key with low bit set, higher priority for 0x03.
	if err := st.Tables["tcam_t"].Insert(pipeline.Entry{
		Keys:     []pipeline.KeyMatch{pipeline.TernaryKey(0x01, 0x01)},
		Priority: 1,
		Action:   []pipeline.Value{pipeline.B(8, 21)},
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Tables["tcam_t"].Insert(pipeline.Entry{
		Keys:     []pipeline.KeyMatch{pipeline.TernaryKey(0x03, 0x03)},
		Priority: 2,
		Action:   []pipeline.Value{pipeline.B(8, 42)},
	}); err != nil {
		t.Fatal(err)
	}
}

// tortureTraces covers one-hop, mid-length and eviction-length traces
// with header values hitting the div-by-zero, out-of-range-slot, and
// TCAM priority paths.
func tortureTraces() [][]uint64 {
	return [][]uint64{
		{0},
		{4},
		{1, 0},
		{3, 7, 2},
		{0, 1, 2, 3, 4},
		{9, 5, 250, 0, 1, 6, 7},
	}
}

// TestVMPerHopParity threads the per-hop blob roundtrip through the
// map-based reference interpreter and the bytecode VM and demands
// identical HopResults — blob bytes, verdicts, reports, and performance
// counters — at every hop.
func TestVMPerHopParity(t *testing.T) {
	prog := tortureProgram()
	rtRef := &compiler.Runtime{Prog: prog, NoLink: true}
	rtVM := &compiler.Runtime{Prog: prog}
	if rtVM.VM() == nil {
		t.Fatal("bytecode backend unavailable")
	}

	for ti, headers := range tortureTraces() {
		stRef, stVM := prog.NewState(), prog.NewState()
		installTorture(t, stRef)
		installTorture(t, stVM)

		var blobRef, blobVM []byte
		for i, hv := range headers {
			first, last := i == 0, i == len(headers)-1
			hdr := map[string]pipeline.Value{"hdr.x.h0": pipeline.B(8, hv)}
			hrRef, err := rtRef.RunHop(blobRef, compiler.HopEnv{State: stRef, SwitchID: uint32(i%3 + 1), Headers: hdr, PacketLen: 100}, first, last)
			if err != nil {
				t.Fatalf("trace %d hop %d map: %v", ti, i, err)
			}
			hrVM, err := rtVM.RunHop(blobVM, compiler.HopEnv{State: stVM, SwitchID: uint32(i%3 + 1), Headers: hdr, PacketLen: 100}, first, last)
			if err != nil {
				t.Fatalf("trace %d hop %d vm: %v", ti, i, err)
			}
			if !bytes.Equal(hrRef.Blob, hrVM.Blob) {
				t.Fatalf("trace %d hop %d blob: map %x vm %x", ti, i, hrRef.Blob, hrVM.Blob)
			}
			if hrRef.Reject != hrVM.Reject {
				t.Fatalf("trace %d hop %d reject: map %v vm %v", ti, i, hrRef.Reject, hrVM.Reject)
			}
			if !reflect.DeepEqual(hrRef.Reports, hrVM.Reports) {
				t.Fatalf("trace %d hop %d reports: map %+v vm %+v", ti, i, hrRef.Reports, hrVM.Reports)
			}
			if hrRef.TableApplies != hrVM.TableApplies || hrRef.OpsExecuted != hrVM.OpsExecuted {
				t.Fatalf("trace %d hop %d counters: map (%d,%d) vm (%d,%d)", ti, i,
					hrRef.TableApplies, hrRef.OpsExecuted, hrVM.TableApplies, hrVM.OpsExecuted)
			}
			blobRef, blobVM = hrRef.Blob, hrVM.Blob
		}

		// Register state converged identically.
		for i := 0; i < 4; i++ {
			if a, b := stRef.Registers["reg"].Read(i), stVM.Registers["reg"].Read(i); a != b {
				t.Fatalf("trace %d reg[%d]: map %d vm %d", ti, i, a, b)
			}
		}
	}
}

// TestVMResidentTraceParity pins the key batching lemma: whole-trace
// resident-PHV execution (no per-hop codec) is byte-equivalent to the
// per-hop blob roundtrip.
func TestVMResidentTraceParity(t *testing.T) {
	prog := tortureProgram()
	rt := &compiler.Runtime{Prog: prog}
	for ti, headers := range tortureTraces() {
		stHop, stRes := prog.NewState(), prog.NewState()
		installTorture(t, stHop)
		installTorture(t, stRes)

		hopEnvs := make([]compiler.HopEnv, len(headers))
		resEnvs := make([]compiler.HopEnv, len(headers))
		for i, hv := range headers {
			hdr := map[string]pipeline.Value{"hdr.x.h0": pipeline.B(8, hv)}
			hopEnvs[i] = compiler.HopEnv{State: stHop, SwitchID: uint32(i%3 + 1), Headers: hdr, PacketLen: 64}
			resEnvs[i] = compiler.HopEnv{State: stRes, SwitchID: uint32(i%3 + 1), Headers: hdr, PacketLen: 64}
		}
		want, err := rt.RunTrace(hopEnvs)
		if err != nil {
			t.Fatalf("trace %d per-hop: %v", ti, err)
		}
		got, err := rt.RunTraceVM(resEnvs)
		if err != nil {
			t.Fatalf("trace %d resident: %v", ti, err)
		}
		if want.Reject != got.Reject {
			t.Fatalf("trace %d reject: per-hop %v resident %v", ti, want.Reject, got.Reject)
		}
		if !bytes.Equal(want.FinalBlob, got.FinalBlob) {
			t.Fatalf("trace %d final blob: per-hop %x resident %x", ti, want.FinalBlob, got.FinalBlob)
		}
		if !reflect.DeepEqual(want.Reports, got.Reports) {
			t.Fatalf("trace %d reports: per-hop %+v resident %+v", ti, want.Reports, got.Reports)
		}
	}
}

// TestCorpusCompiles compiles every corpus checker to bytecode.
func TestCorpusCompiles(t *testing.T) {
	for _, p := range checkers.All {
		prog, err := parser.Parse(p.Key, p.Source)
		if err != nil {
			t.Fatalf("%s: parse: %v", p.Key, err)
		}
		info, err := types.Check(prog)
		if err != nil {
			t.Fatalf("%s: types: %v", p.Key, err)
		}
		compiled, err := compiler.Compile(info, compiler.Options{Name: p.Key})
		if err != nil {
			t.Fatalf("%s: compile: %v", p.Key, err)
		}
		vp, err := bytecode.Compile(compiled)
		if err != nil {
			t.Fatalf("%s: bytecode: %v", p.Key, err)
		}
		if vp.NumInstrs() == 0 {
			t.Fatalf("%s: empty bytecode", p.Key)
		}
		if vp.NumSlots() == 0 {
			t.Fatalf("%s: empty PHV", p.Key)
		}
	}
}

// TestBatchCacheRevalidation pins the TCAM cache freshness contract:
// within a trust-caches window (BeginBatch) installs may be invisible,
// but the next BeginBatch must observe them. Per-hop execution
// (Runtime.RunBlocks) never trusts its caches, so an install between
// two calls must be visible to the second.
func TestBatchCacheRevalidation(t *testing.T) {
	prog := tortureProgram()
	vp, err := bytecode.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	st := prog.NewState()
	installTorture(t, st)

	slot, ok := vp.SlotOf("tcam_t.out")
	if !ok {
		t.Fatal("tcam_t.out not interned")
	}
	run := func(c *bytecode.Ctx, h0 uint64) uint64 {
		vp.BeginHop(c, st, 1, 100, true, true)
		vp.BindHeaderMap(c.PHV, map[string]pipeline.Value{"hdr.x.h0": pipeline.B(8, h0)})
		vp.ExecInit(c)
		vp.ExecTelemetry(c)
		return c.PHV[slot].V
	}

	c := vp.AcquireCtx()
	defer vp.ReleaseCtx(c)

	vp.BeginBatch(c)
	if got := run(c, 0x04); got != 9 { // miss -> default
		t.Fatalf("pre-install lookup = %d, want default 9", got)
	}
	// Install a higher-priority entry matching 0x04 mid-batch: the
	// trusted cache may serve the stale default…
	if err := st.Tables["tcam_t"].Insert(pipeline.Entry{
		Keys:     []pipeline.KeyMatch{pipeline.TernaryKey(0x04, 0x04)},
		Priority: 3,
		Action:   []pipeline.Value{pipeline.B(8, 77)},
	}); err != nil {
		t.Fatal(err)
	}
	if got := run(c, 0x04); got != 9 {
		t.Fatalf("mid-batch lookup = %d, want stale 9 (trusted cache)", got)
	}
	// …but the next batch boundary must see it.
	vp.BeginBatch(c)
	if got := run(c, 0x04); got != 77 {
		t.Fatalf("post-BeginBatch lookup = %d, want 77", got)
	}

	// Per-hop: the telemetry block adds h0 plus the tcam_t hit flag to
	// reg[1], so the register delta of one RunBlocks call shows whether
	// the lookup hit. Run twice before each change so a pooled context's
	// cache is warm when the table moves underneath it.
	rt := &compiler.Runtime{Prog: prog}
	hopSt := prog.NewState()
	installTorture(t, hopSt)
	env := compiler.HopEnv{State: hopSt, SwitchID: 1, PacketLen: 100,
		Headers: map[string]pipeline.Value{"hdr.x.h0": pipeline.B(8, 0x08)}}
	hit := func() uint64 {
		before := hopSt.Registers["reg"].Read(1)
		if _, err := rt.RunBlocks(nil, env, compiler.BlockSet{Telemetry: true}, true, true); err != nil {
			t.Fatal(err)
		}
		return hopSt.Registers["reg"].Read(1) - before - 0x08
	}
	tcam := hopSt.Tables["tcam_t"]
	key := []pipeline.KeyMatch{pipeline.TernaryKey(0x08, 0x08)}
	for phase, want := range []uint64{0, 1, 0} {
		switch phase {
		case 1:
			if err := tcam.Insert(pipeline.Entry{Keys: key, Priority: 5, Action: []pipeline.Value{pipeline.B(8, 55)}}); err != nil {
				t.Fatal(err)
			}
		case 2:
			if n := tcam.Delete(key); n != 1 {
				t.Fatalf("Delete removed %d entries, want 1", n)
			}
		}
		for i := 0; i < 2; i++ {
			if got := hit(); got != want {
				t.Fatalf("per-hop phase %d run %d: tcam hit = %d, want %d (stale cache?)", phase, i, got, want)
			}
		}
	}
}

// TestVMSteadyStateAllocs drives whole-trace executions with ephemeral
// reports through a persistent context and requires zero allocations
// per trace at steady state — the property the engine's batch path is
// built on.
func TestVMSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	prog := tortureProgram()
	vp, err := bytecode.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	st := prog.NewState()
	installTorture(t, st)

	headers := []pipeline.Value{
		pipeline.B(8, 9), pipeline.B(8, 5), pipeline.B(8, 250), pipeline.B(8, 1),
	}
	c := vp.AcquireCtx()
	defer vp.ReleaseCtx(c)

	var sink int
	trace := func() {
		c.BeginEphemeralReports()
		vp.BeginTrace(c)
		for i, hv := range headers {
			vp.BeginHop(c, st, uint32(i%3+1), 100, i == 0, i == len(headers)-1)
			vp.BindHeaderSlots(c.PHV, headers[i:i+1])
			_ = hv
			if i == 0 {
				vp.ExecInit(c)
			}
			vp.ExecTelemetry(c)
			if i == len(headers)-1 {
				vp.ExecChecker(c)
			}
		}
		sink += len(c.Reports)
		if vp.Reject(c) {
			sink++
		}
	}
	vp.BeginBatch(c)
	for i := 0; i < 10; i++ { // warmup: caches, arena, report buffer
		trace()
	}
	if n := testing.AllocsPerRun(200, trace); n > 0 {
		t.Fatalf("steady-state trace allocates %v times, want 0 (sink %d)", n, sink)
	}
}

// reportingProgram raises one digest per checker run carrying the
// switch ID and the bound header, so tests can tell reports apart.
func reportingProgram() *pipeline.Program {
	return &pipeline.Program{
		Name:           "reporting",
		HeaderBindings: map[string]string{"h0": "hdr.x.h0"},
		Checker: []pipeline.Op{
			pipeline.ReportOp{Args: []pipeline.Expr{f(string(pipeline.FieldSwitch), 32), f("hdr.x.h0", 8)}},
		},
	}
}

// reportHop runs one first-and-last hop of reportingProgram on c and
// checks the single digest it raises.
func reportHop(t *testing.T, vp *bytecode.Prog, c *bytecode.Ctx, swID uint32) {
	t.Helper()
	vp.SetHopMeta(c.PHV, swID, 100, true, true)
	vp.BindHeaderSlots(c.PHV, []pipeline.Value{pipeline.B(8, 0x5A)})
	vp.ExecChecker(c)
	if len(c.Reports) != 1 || c.Reports[0].Args[0].V != uint64(swID) {
		t.Fatalf("hop on switch %d: reports %+v, want one carrying the switch", swID, c.Reports)
	}
}

// TestPooledCtxReportIsolation pins the AcquireCtx/ReleaseCtx contract
// that Runtime.RunBlocks' HopResult depends on: report slices (and the
// Args inside them) escape to the caller at release time, so a context
// coming back out of the pool must start with no reports, zeroed
// counters, and a template PHV, and nothing a reused context does may
// clobber a previously escaped digest.
func TestPooledCtxReportIsolation(t *testing.T) {
	vp := bytecode.MustCompile(reportingProgram())
	c0 := vp.AcquireCtx()
	fresh := append([]pipeline.Value(nil), c0.PHV...)
	vp.ReleaseCtx(c0)

	acquire := func() *bytecode.Ctx {
		c := vp.AcquireCtx()
		if len(c.Reports) != 0 || c.OpsExecuted != 0 || c.TableApplies != 0 {
			t.Fatalf("pooled ctx not clean: %d reports, ops=%d applies=%d",
				len(c.Reports), c.OpsExecuted, c.TableApplies)
		}
		if !reflect.DeepEqual(c.PHV, fresh) {
			t.Fatal("pooled ctx PHV has a stale value")
		}
		return c
	}

	// First packet: raise a digest, let it escape, release the context.
	c1 := acquire()
	reportHop(t, vp, c1, 2)
	escaped := c1.Reports
	vp.ReleaseCtx(c1)

	// Cycle the pool with different inputs; sync.Pool gives no identity
	// guarantee, so keep going until c1 has demonstrably been reused.
	reused := false
	for i := 0; i < 64; i++ {
		c := acquire()
		reportHop(t, vp, c, uint32(100+i))
		reused = reused || c == c1
		vp.ReleaseCtx(c)
	}
	if !reused {
		t.Skip("pool never returned the original context; isolation unobservable")
	}

	// The escaped digest must be exactly what hop one raised: reuse of
	// its birth context may not have rewritten its Args in place.
	if len(escaped) != 1 || escaped[0].Args[0].V != 2 {
		t.Fatalf("escaped report was clobbered by context reuse: %+v", escaped)
	}
}

// TestEphemeralReportsArena pins the opt-in zero-allocation report path
// (BeginEphemeralReports): raising a report in ephemeral mode allocates
// nothing at steady state on a persistent context, and a context
// released from ephemeral mode comes back in the default
// detach-on-release mode.
func TestEphemeralReportsArena(t *testing.T) {
	vp := bytecode.MustCompile(reportingProgram())

	// A single pinned context, so sync.Pool churn can't attribute a
	// different (cold) context's arena growth to the steady state.
	c := vp.AcquireCtx()
	hop := func() {
		c.BeginEphemeralReports()
		reportHop(t, vp, c, 7)
	}
	hop() // warm: the first run grows the arena and report slice
	if !raceEnabled {
		if n := testing.AllocsPerRun(200, hop); n > 0 {
			t.Errorf("ephemeral report raise: %.1f allocs/run, want 0", n)
		}
	}
	vp.ReleaseCtx(c)

	// After a release from ephemeral mode, a report raised without
	// BeginEphemeralReports survives its context's release and any
	// later ephemeral reuse untouched.
	c2 := vp.AcquireCtx()
	reportHop(t, vp, c2, 42)
	escaped := c2.Reports
	vp.ReleaseCtx(c2)
	for i := 0; i < 8; i++ {
		c3 := vp.AcquireCtx()
		c3.BeginEphemeralReports()
		reportHop(t, vp, c3, uint32(200+i))
		vp.ReleaseCtx(c3)
	}
	if len(escaped) != 1 || escaped[0].Args[0].V != 42 {
		t.Fatalf("detached report was clobbered by later ephemeral reuse: %+v", escaped)
	}
}

// TestDecodeErrors pins the truncated-blob error parity with the
// map-based reference codec (Program.EncodeTele/DecodeTele).
func TestDecodeErrors(t *testing.T) {
	prog := tortureProgram()
	vp, err := bytecode.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := vp.TeleWireBytes(), (prog.TeleWireBits()+7)/8; got != want {
		t.Fatalf("TeleWireBytes: vm %d map %d", got, want)
	}
	phv := make([]pipeline.Value, vp.NumSlots())
	short := make([]byte, vp.TeleWireBytes()-1)
	if err := vp.DecodeTele(short, phv); err == nil {
		t.Fatal("short blob: want error")
	}
	if err := prog.DecodeTele(short, pipeline.PHV{}); err == nil {
		t.Fatal("short blob: map codec accepted it")
	}
	if err := vp.DecodeTele(nil, phv); err != nil {
		t.Fatalf("empty blob: %v", err)
	}
}

// TestCompileUndeclaredResources mirrors the link-time rejection of
// programs touching undeclared state.
func TestCompileUndeclaredResources(t *testing.T) {
	bad := &pipeline.Program{
		Name:    "bad",
		Checker: []pipeline.Op{pipeline.ApplyOp{Table: "nope"}},
	}
	if _, err := bytecode.Compile(bad); err == nil {
		t.Fatal("undeclared table: want error")
	}
	bad2 := &pipeline.Program{
		Name:    "bad2",
		Checker: []pipeline.Op{pipeline.RegReadOp{Reg: "nope", Index: c(1, 0), Dst: "d", Width: 8}},
	}
	if _, err := bytecode.Compile(bad2); err == nil {
		t.Fatal("undeclared register: want error")
	}
}

var benchSink uint64

// BenchmarkBytecodeDispatch measures raw dispatch-loop throughput on
// the torture program's telemetry block (hot per-hop shape: scratch
// reset, bind, exec).
func BenchmarkBytecodeDispatch(b *testing.B) {
	prog := tortureProgram()
	vp, err := bytecode.Compile(prog)
	if err != nil {
		b.Fatal(err)
	}
	st := prog.NewState()
	for _, k := range []uint64{1, 13, 25} {
		if err := st.Tables["exact_t"].Insert(pipeline.Entry{
			Keys:   []pipeline.KeyMatch{pipeline.ExactKey(k)},
			Action: []pipeline.Value{pipeline.B(16, 1000+k)},
		}); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.Tables["tcam_t"].Insert(pipeline.Entry{
		Keys:     []pipeline.KeyMatch{pipeline.TernaryKey(0x01, 0x01)},
		Priority: 1,
		Action:   []pipeline.Value{pipeline.B(8, 21)},
	}); err != nil {
		b.Fatal(err)
	}
	hdr := []pipeline.Value{pipeline.B(8, 9)}
	c := vp.AcquireCtx()
	defer vp.ReleaseCtx(c)
	c.BeginEphemeralReports()
	vp.BeginBatch(c)
	vp.BeginTrace(c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vp.BeginHop(c, st, 1, 100, false, false)
		vp.BindHeaderSlots(c.PHV, hdr)
		vp.ExecTelemetry(c)
		benchSink += c.PHV[0].V
	}
}

func ExampleProg_NumInstrs() {
	prog := tortureProgram()
	vp := bytecode.MustCompile(prog)
	fmt.Println(vp.NumInstrs() > 0)
	// Output: true
}
