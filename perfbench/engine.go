package main

import (
	"reflect"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/bytecode"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/pipeline"
	"repro/internal/reportbus"
)

// tracePackets is the campus trace length: one pass of the trace is the
// unit the workloads loop over, and the firewall seed covers its pairs.
const tracePackets = 50_000

// skipSeedEvery withholds every 16th unique pair from the firewall seed,
// so about 6% of packets raise digests.
const skipSeedEvery = 16

// replaySwitchCount is the replay fabric's switch count (2 leaves, 2
// spines), the number of firewall replicas ConfigureReplayEngine seeds.
var replaySwitchCount = len(experiments.ReplaySwitchInfos())

// campus is one seeded campus trace as engine work units.
type campus struct {
	pkts      []engine.Packet
	pairs     [][2]uint32
	seedPairs [][2]uint32
}

func newCampus(seed int64) campus {
	pkts, pairs := experiments.CampusEnginePackets(tracePackets, seed)
	kept, _ := fleet.FilterSeedPairs(pairs, skipSeedEvery)
	return campus{pkts: pkts, pairs: pairs, seedPairs: kept}
}

// alertExporter is the arrival point of campus-engine alerts: it stamps
// every aggregate the bus exports with its arrival time, the time from
// its first raise (alert latency) and from its last raise (export
// delay).
type alertExporter struct {
	mu     sync.Mutex
	alerts []alert
}

type alert struct {
	at               time.Time
	latMs, exportDMs float64
}

func (e *alertExporter) ExportAggregates(aggs []reportbus.Aggregate) {
	now := time.Now()
	ns := now.UnixNano()
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range aggs {
		e.alerts = append(e.alerts, alert{
			at:        now,
			latMs:     float64(ns-aggs[i].FirstAt) / 1e6,
			exportDMs: float64(ns-aggs[i].LastAt) / 1e6,
		})
	}
}

func (e *alertExporter) samples() []alert {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]alert(nil), e.alerts...)
}

// engineRig is one set-up campus-engine instance: the sharded engine
// with all corpus checkers and a wall-clock report bus whose collector
// is running.
type engineRig struct {
	chks    []engine.Checker
	eng     *engine.Engine
	bus     *reportbus.Bus
	exp     *alertExporter
	setup   time.Duration
	install time.Duration
	warm    time.Duration
}

func setupEngine(c *campus, shards int, tr *tracer) (*engineRig, error) {
	// Set-up runs on the client goroutine alone, so it is timed on the
	// thread CPU clock (see threadCPU).
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	r := &engineRig{exp: &alertExporter{}}
	start := threadCPU()
	var err error
	tr.do(lCompiler, func() { r.chks, err = experiments.CorpusCheckers() })
	if err != nil {
		return nil, err
	}
	tr.do(lReportbus, func() {
		r.bus = reportbus.New(reportbus.Config{Exporters: []reportbus.Exporter{r.exp}})
	})
	tr.do(lEngine, func() {
		r.eng = engine.New(engine.Config{Shards: shards, Checkers: r.chks, ReportBus: r.bus})
	})
	r.install = tr.do(lPipeline, func() { err = experiments.ConfigureReplayEngine(r.eng.Install, c.seedPairs) })
	if err != nil {
		r.eng.Drain()
		return nil, err
	}
	r.warm = tr.do(lEngine, r.eng.Warm)
	tr.do(lReportbus, r.bus.Start)
	r.setup = threadCPU() - start
	return r, nil
}

// close drains the engine and stops the bus.
func (r *engineRig) close() {
	r.eng.Drain()
	r.bus.Close()
}

// submitFor replays the trace in a closed loop (Submit blocks on a full
// shard queue) until the deadline passes, starting at trace position
// *pos; it returns the packets submitted. With tracing on, every Submit
// is a span, and the time spent inside Submit is returned as wait.
func submitFor(eng *engine.Engine, pkts []engine.Packet, pos *int, deadline time.Time, tr *tracer) (n int64, wait time.Duration) {
	traced := tr != nil
	for {
		for i := 0; i < 1024; i++ {
			p := &pkts[*pos]
			if traced {
				id := tr.begin(lEngine)
				t0 := time.Now()
				eng.Submit(*p)
				wait += time.Since(t0)
				tr.end(id)
			} else {
				eng.Submit(*p)
			}
			n++
			if *pos++; *pos == len(pkts) {
				*pos = 0
			}
		}
		if time.Now().After(deadline) {
			return n, wait
		}
	}
}

// sequentialReference runs the first n packets of the looped trace
// through the single-state reference executor, batched like the engine
// shards. It returns the counts and the VM's instruction and table
// counters over the first trace pass.
func sequentialReference(chks []engine.Checker, c *campus, n int64) (engine.Counts, vmCounts, error) {
	seq := engine.NewSequential(engine.Config{Checkers: chks})
	if err := experiments.ConfigureReplayEngine(seq.Install, c.seedPairs); err != nil {
		return engine.Counts{}, vmCounts{}, err
	}
	seq.Warm()
	var first vmCounts
	passes := 0
	forPrefix(c.pkts, n, func(pass []engine.Packet) {
		processBatches(seq, pass, engineBatch)
		if passes++; passes == 1 && len(pass) == len(c.pkts) {
			first = readVM(seq, int64(len(pass)))
		}
	})
	return seq.Counts(), first, nil
}

// engineBatch is the engine's default dispatch batch.
const engineBatch = 64

// forPrefix calls f on successive passes of the looped trace, n packets
// in all (the last pass may be partial).
func forPrefix(pkts []engine.Packet, n int64, f func(pass []engine.Packet)) {
	for done := int64(0); done < n; {
		m := min(int64(len(pkts)), n-done)
		f(pkts[:m])
		done += m
	}
}

func processBatches(seq *engine.Sequential, pkts []engine.Packet, batch int) {
	for lo := 0; lo < len(pkts); lo += batch {
		seq.ProcessBatch(pkts[lo:min(lo+batch, len(pkts))])
	}
}

// vmCounts are the bytecode VM's deterministic per-packet counters.
type vmCounts struct {
	opsPerPkt, appliesPerPkt float64
}

func readVM(seq *engine.Sequential, pkts int64) vmCounts {
	var ops, applies int
	seq.VMContexts(func(_ *bytecode.Prog, c *bytecode.Ctx) {
		ops += c.OpsExecuted
		applies += c.TableApplies
	})
	return vmCounts{opsPerPkt: float64(ops) / float64(pkts), appliesPerPkt: float64(applies) / float64(pkts)}
}

// checkCounts compares the engine's merged counts with the reference.
func checkCounts(l *ledger, got, want engine.Counts) {
	l.failDiff("engine.packets", got.Packets, want.Packets)
	l.failDiff("engine.forwarded", got.Forwarded, want.Forwarded)
	l.failDiff("engine.rejected", got.Rejected, want.Rejected)
	l.failDiff("engine.reports", got.Reports, want.Reports)
	l.fail("engine.errors", int64(got.Errors))
	if !reflect.DeepEqual(got.PerChecker, want.PerChecker) {
		for i := range want.PerChecker {
			if i >= len(got.PerChecker) {
				l.fail("engine.per_checker", int64(want.PerChecker[i].Reports+want.PerChecker[i].Rejected))
				continue
			}
			l.failDiff("engine.per_checker", got.PerChecker[i].Reports, want.PerChecker[i].Reports)
			l.failDiff("engine.per_checker", got.PerChecker[i].Rejected, want.PerChecker[i].Rejected)
		}
	}
}

// checkBus applies the report-bus conservation oracle.
func checkBus(l *ledger, m reportbus.Metrics) {
	l.fail("reportbus.dropped", int64(m.Dropped))
	if u := m.Unaccounted(); u != 0 {
		if u < 0 {
			u = -u
		}
		l.fail("reportbus.unaccounted", u)
	}
}

func runEngine(cfg *config, l *ledger) (*e2e, error) {
	c := newCampus(cfg.seed)
	res := &e2e{named: metricSet{}}
	var rig *engineRig
	for i := 0; i < setupReplicas; i++ {
		if rig != nil {
			rig.close()
			rig = nil
		}
		if err := res.beginReplica(); err != nil {
			return nil, err
		}
		var err error
		if rig, err = setupEngine(&c, cfg.nproc, nil); err != nil {
			return nil, err
		}
		if err := res.endReplica(rig.setup); err != nil {
			return nil, err
		}
	}
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	pos := 0
	sl, warm := runSlices(cfg.window, func(deadline time.Time, s *slice) {
		s.ops, _ = submitFor(rig.eng, c.pkts, &pos, deadline, nil)
	})
	counts := rig.eng.Drain()
	rig.bus.Close()
	if err := res.peakRSS(); err != nil {
		return nil, err
	}
	// Aggregates exported after the window (the final flush) carry
	// drain time and count toward no stretch.
	for _, a := range rig.exp.samples() {
		if i := sliceAt(sl, a.at); i >= 0 {
			sl[i].lat = append(sl[i].lat, a.latMs)
		}
	}
	res.fill(sl)
	n := warm + res.ops
	l.attempted += n

	ref, _, err := sequentialReference(rig.chks, &c, n)
	if err != nil {
		return nil, err
	}
	checkCounts(l, counts, ref)
	checkBus(l, rig.bus.Metrics())
	res.named.set("pkts_per_s", res.rate, "1/s")
	res.named.set("cpu_ns_per_pkt", res.cpuNsPerOp, "ns")
	res.named.set("alert_p50_ms", res.latP50, "ms")
	res.named.set("alert_p99_ms", res.latP99, "ms")
	res.named.set("pkts_per_s_over_350k", res.rate/paperPPS, "ratio")
	res.named.set("digests_raised", float64(counts.Reports), "count")
	return res, nil
}

// probeEngine is the traced campus-engine run; as the chosen workload
// it interleaves untraced stretches on the same engine (see interleave).
func probeEngine(cfg *config, tr *tracer, secs time.Duration, primary bool, m metricSet, l *ledger) error {
	c := newCampus(cfg.seed)
	rig, err := setupEngine(&c, cfg.nproc, tr)
	if err != nil {
		return err
	}
	entries := len(c.seedPairs) * 2 * replaySwitchCount * rig.eng.Shards()
	m.set("pipeline.seed_entries", float64(entries), "count")
	m.set("pipeline.install_ms", durMs(rig.install), "ms")
	m.set("pipeline.install_ns_per_entry", float64(rig.install)/float64(entries), "ns")
	m.set("engine.warm_ms", durMs(rig.warm), "ms")

	shardPkts := make([]float64, rig.eng.Shards())
	tr.do(lEngine, func() {
		for i := range c.pkts {
			shardPkts[rig.eng.ShardOf(c.pkts[i].Key)]++
		}
	})
	m.set("engine.shard_skew", slices.Max(shardPkts)/mean(shardPkts), "ratio")

	settle()
	pos := 0
	var wait, tracedWall time.Duration
	step := func(deadline time.Time, traced bool) int64 {
		if !traced {
			n, _ := submitFor(rig.eng, c.pkts, &pos, deadline, nil)
			return n
		}
		start := time.Now()
		n, w := submitFor(rig.eng, c.pkts, &pos, deadline, tr)
		wait += w
		tracedWall += time.Since(start)
		return n
	}
	var total int64
	if primary {
		untraced, traced := interleave(secs, m, step)
		total = untraced + traced
	} else {
		total = step(time.Now().Add(secs), true)
	}
	var counts engine.Counts
	drain := tr.do(lEngine, func() { counts = rig.eng.Drain() })
	tr.do(lReportbus, rig.bus.Close)
	m.set("engine.submit_wait_share", wait.Seconds()/tracedWall.Seconds(), "share")
	m.set("engine.drain_ms", durMs(drain), "ms")
	l.attempted += total

	bm := rig.bus.Metrics()
	m.set("reportbus.published", float64(bm.Published), "count")
	m.set("reportbus.dropped", float64(bm.Dropped), "count")
	m.set("reportbus.unaccounted", float64(bm.Unaccounted()), "count")
	var delays []float64
	for _, a := range rig.exp.samples() {
		delays = append(delays, a.exportDMs)
	}
	m.set("reportbus.export_delay_p99_ms", quantile(delays, 0.99), "ms")
	checkBus(l, bm)

	ref, refVM, err := sequentialReference(rig.chks, &c, total)
	if err != nil {
		return err
	}
	checkCounts(l, counts, ref)
	return probeBytecode(&c, tr, m, l, refVM)
}

// probeBytecode times single-checker Sequential.ProcessBatch passes over
// one trace pass, plus one pass with every checker. The all-checker
// pass also yields the VM's per-packet counters, which must equal the
// reference run's.
func probeBytecode(c *campus, tr *tracer, m metricSet, l *ledger, refVM vmCounts) error {
	chks, err := experiments.CorpusCheckers()
	if err != nil {
		return err
	}
	pass := func(sel []engine.Checker) (time.Duration, *engine.Sequential, error) {
		seq := engine.NewSequential(engine.Config{Checkers: sel})
		install := func(checker string, sw uint32, fn func(*pipeline.State) error) error {
			for _, ck := range sel {
				if ck.Name == checker {
					return seq.Install(checker, sw, fn)
				}
			}
			return nil
		}
		if err := experiments.ConfigureReplayEngine(install, c.seedPairs); err != nil {
			return 0, nil, err
		}
		seq.Warm()
		settle()
		d := tr.do(lBytecode, func() { processBatches(seq, c.pkts, engineBatch) })
		return d, seq, nil
	}
	d, seq, err := pass(chks)
	if err != nil {
		return err
	}
	n := float64(len(c.pkts))
	m.set("bytecode.ns_per_pkt.all", float64(d)/n, "ns")
	vm := readVM(seq, int64(len(c.pkts)))
	m.set("bytecode.ops_per_pkt", vm.opsPerPkt, "count")
	m.set("pipeline.table_applies_per_pkt", vm.appliesPerPkt, "count")
	if refVM != (vmCounts{}) && refVM != vm {
		l.fail("bytecode.counters_differ_between_runs", 1)
	}
	for i := range chks {
		d, _, err := pass(chks[i : i+1])
		if err != nil {
			return err
		}
		m.set("bytecode.ns_per_pkt."+chks[i].Name, float64(d)/n, "ns")
	}
	return nil
}
