package difftest_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/checkers"
	"repro/internal/compiler"
	"repro/internal/difftest"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/indus/ast"
	"repro/internal/pipeline"
	"repro/internal/symexec"
)

// TestLinkedScratchAliasing poisons the VM's per-hop shape: RunTrace,
// which calls Runtime.RunBlocks hop by hop with a blob roundtrip
// through pooled contexts, the path every netsim switch and NIC runs.
// The test keeps the name it had when that path ran on the
// linked-closure executor, which the bytecode VM replaced.
func TestLinkedScratchAliasing(t *testing.T) { checkScratchAliasing(t, 0) }

// TestVMScratchAliasing poisons the VM's resident shape: RunTraceVM,
// which keeps one PHV for the whole trace.
func TestVMScratchAliasing(t *testing.T) { checkScratchAliasing(t, 1) }

// checkScratchAliasing runs every corpus checker's golden traces
// through one of the bytecode VM's two shapes — 0 is RunTrace
// (per-hop), 1 is RunTraceVM (resident) — on a pristine runtime and on
// a runtime whose pooled VM contexts are scribbled with all-ones
// slots, stale reports, and bumped counters between traces, with
// foreign dirt traces in both shapes (ephemeral report arenas on)
// interleaved so the per-site table caches hold another packet's
// entries. Outcomes must be byte-identical to a pristine runtime: the
// per-trace template restore plus the per-hop reset runs must erase
// every poisoned slot an execution could observe.
func checkScratchAliasing(t *testing.T, shape int) {
	for _, gt := range goldenTraces {
		gt := gt
		t.Run(gt.key, func(t *testing.T) {
			comp, err := difftest.CompileCorpus(gt.key)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			model := checkers.SymModelFor(gt.key)

			envs := func(trace []difftest.HopSpec, states map[uint32]*pipeline.State, dirt bool) []compiler.HopEnv {
				out := make([]compiler.HopEnv, len(trace))
				for i, hs := range trace {
					pktLen := hs.PktLen
					if pktLen == 0 {
						pktLen = 100
					}
					headers := map[string]pipeline.Value{}
					for name, v := range hs.Headers {
						w := 1
						if bt, ok := comp.Info.Decls[name].Type.(ast.BitType); ok {
							w = bt.Width
						}
						if dirt {
							v = ^v // different flow, same shape
						}
						headers[comp.Prog.HeaderBindings[name]] = pipeline.B(w, v)
					}
					out[i] = compiler.HopEnv{
						State:            states[hs.SW],
						SwitchID:         hs.SW,
						Headers:          headers,
						PacketLen:        pktLen,
						EphemeralReports: dirt,
					}
				}
				return out
			}

			// shapes are the VM's two execution entry points; both draw
			// their contexts from the same pool.
			shapes := []struct {
				name string
				run  func(*compiler.Runtime, []compiler.HopEnv) (compiler.TraceResult, error)
			}{
				{"per-hop", (*compiler.Runtime).RunTrace},
				{"resident", (*compiler.Runtime).RunTraceVM},
			}

			run := func(rt *compiler.Runtime, shape int, trace []difftest.HopSpec, dirt bool) compiler.TraceResult {
				states, err := symexec.BuildStates(comp.Prog, model)
				if err != nil {
					t.Fatalf("build states: %v", err)
				}
				res, err := shapes[shape].run(rt, envs(trace, states, dirt))
				if err != nil {
					t.Fatalf("%s run: %v", shapes[shape].name, err)
				}
				return res
			}

			scribble := func(vp *bytecode.Prog) {
				ctxs := make([]*bytecode.Ctx, 4)
				for i := range ctxs {
					c := vp.AcquireCtx()
					for s := range c.PHV {
						c.PHV[s] = pipeline.B(64, ^uint64(0))
					}
					c.Reports = append(c.Reports, pipeline.Report{
						Args: []pipeline.Value{pipeline.B(64, 0xbadbadbadbad)},
					})
					c.OpsExecuted += 997
					c.TableApplies += 31
					ctxs[i] = c
				}
				for _, c := range ctxs {
					vp.ReleaseCtx(c)
				}
			}

			clean := &compiler.Runtime{Prog: comp.Prog}
			dirty := &compiler.Runtime{Prog: comp.Prog}
			vp := dirty.VM()
			if vp == nil {
				t.Fatal("program failed to compile to bytecode")
			}

			for _, tc := range []struct {
				label string
				trace []difftest.HopSpec
			}{{"conform", gt.conform}, {"violate", gt.violate}} {
				label := shapes[shape].name + " " + tc.label
				want := run(clean, shape, tc.trace, false)
				// Dirt in both shapes: each leaves its own residue
				// (resident PHV, per-hop arenas) in the shared pool.
				scribble(vp)
				run(dirty, 0, gt.violate, true)
				scribble(vp)
				run(dirty, 1, gt.conform, true)
				scribble(vp)
				got := run(dirty, shape, tc.trace, false)

				if got.Reject != want.Reject {
					t.Errorf("%s: reject %v on dirty runtime, %v on clean", label, got.Reject, want.Reject)
				}
				if !bytes.Equal(got.FinalBlob, want.FinalBlob) {
					t.Errorf("%s: final blob %x on dirty runtime, %x on clean", label, got.FinalBlob, want.FinalBlob)
				}
				if !reflect.DeepEqual(got.Reports, want.Reports) {
					t.Errorf("%s: reports %+v on dirty runtime, %+v on clean", label, got.Reports, want.Reports)
				}
			}
		})
	}
}

// TestVMBatchArenaAliasing poisons the engine's persistent batch-VM
// arenas between every packet. The batched path acquires one context
// per checker at construction and reuses it for every packet — there
// is no per-trace template copy, only BeginTrace's telemetry reset and
// BeginHop's reset runs — so this is the strongest aliasing surface in
// the system: any slot the reset analysis wrongly prunes leaks a
// poisoned value straight into the next packet's verdict. A clean and
// a poisoned engine replay the same campus mix (with looped paths
// spliced in so real rejects and reports are at stake) and must agree
// on every verdict, count, and report byte.
func TestVMBatchArenaAliasing(t *testing.T) {
	build := func() (*engine.Sequential, []engine.Verdict, []engine.Packet, error) {
		chks, err := experiments.CorpusCheckers()
		if err != nil {
			return nil, nil, nil, err
		}
		pkts, pairs := experiments.CampusEnginePackets(192, 13)
		// Every 8th packet revisits its ingress switch: a forwarding
		// loop the loop-freedom checker must flag.
		for i := 0; i < len(pkts); i += 8 {
			h := pkts[i].Hops
			pkts[i].Hops = append(append([]engine.Hop{}, h...), h[0])
		}
		verdicts := make([]engine.Verdict, len(pkts))
		seq := engine.NewSequential(engine.Config{
			Checkers:    chks,
			Verdicts:    verdicts,
			KeepReports: true,
		})
		if err := experiments.ConfigureReplayEngine(seq.Install, pairs); err != nil {
			return nil, nil, nil, err
		}
		return seq, verdicts, pkts, nil
	}

	clean, cleanV, pkts, err := build()
	if err != nil {
		t.Fatal(err)
	}
	for i := range pkts {
		clean.ProcessBatch(pkts[i : i+1])
	}

	dirty, dirtyV, pkts2, err := build()
	if err != nil {
		t.Fatal(err)
	}
	for i := range pkts2 {
		// Poison every slot the VM can write — the worst dirt a previous
		// packet could leave. Constant and read-only field slots are
		// excluded: nothing writes them, so a context can never carry
		// stale values there (DirtySlots documents this contract).
		dirty.VMContexts(func(vp *bytecode.Prog, c *bytecode.Ctx) {
			for _, s := range vp.DirtySlots() {
				c.PHV[s] = pipeline.B(64, ^uint64(0))
			}
			c.Reports = append(c.Reports, pipeline.Report{
				Args: []pipeline.Value{pipeline.B(64, 0xbadbadbadbad)},
			})
			c.OpsExecuted += 997
			c.TableApplies += 31
		})
		dirty.ProcessBatch(pkts2[i : i+1])
	}

	if c := clean.Counts(); c.Rejected == 0 || c.Reports == 0 {
		t.Fatalf("vacuous workload: counts %+v must include rejects and reports", c)
	}
	if !reflect.DeepEqual(clean.Counts(), dirty.Counts()) {
		t.Errorf("counts diverge:\nclean %+v\ndirty %+v", clean.Counts(), dirty.Counts())
	}
	if !reflect.DeepEqual(cleanV, dirtyV) {
		for i := range cleanV {
			if cleanV[i] != dirtyV[i] {
				t.Errorf("packet %d verdict: clean %+v dirty %+v", i, cleanV[i], dirtyV[i])
			}
		}
	}
	if !reflect.DeepEqual(clean.Reports(), dirty.Reports()) {
		t.Errorf("reports diverge: clean %d dirty %d", len(clean.Reports()), len(dirty.Reports()))
	}
}
