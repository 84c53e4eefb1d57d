package main

import (
	"runtime"
	"time"

	"repro/internal/dataplane"
	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/trafficgen"
)

// wireCountPackets is the prefix of the trace the deterministic wire
// counts are taken over, and the length of the P=1/P=2 passes.
const wireCountPackets = 20_000

// wireReplicas is how many times campus-wire sets up; its set-up takes
// a fraction of a second, so it takes more samples for the median.
const wireReplicas = 15

// wireTrace is the campus trace as trafficgen records, each decoded to
// the packet the replay host sends, with its unique (src, dst) pairs in
// first-occurrence order. Decoding up front keeps the trace's garbage
// out of the timed loop, where its collection would land on the
// program's packets.
type wireTrace struct {
	pkts    []trafficgen.Packet
	decoded []*dataplane.Decoded
	pairs   [][2]uint32
}

func newWireTrace(seed int64) wireTrace {
	gen := trafficgen.NewCampus(trafficgen.CampusConfig{Seed: seed})
	t := wireTrace{pkts: make([]trafficgen.Packet, tracePackets), decoded: make([]*dataplane.Decoded, tracePackets)}
	seen := map[[2]uint32]bool{}
	for i := range t.pkts {
		t.pkts[i] = gen.Next()
		t.decoded[i] = t.pkts[i].Decode()
		pair := [2]uint32{uint32(t.pkts[i].Src), uint32(t.pkts[i].Dst)}
		if !seen[pair] {
			seen[pair] = true
			t.pairs = append(t.pairs, pair)
		}
	}
	return t
}

// wireRig is RunWireReplay's fabric: a 2x2 leaf-spine whose first leaf
// spreads the replay host's traffic over both spines to a sink on the
// second leaf, with every corpus checker attached to every switch and
// the firewall allowing every pair of the trace.
type wireRig struct {
	sim         *netsim.Simulator
	ls          *netsim.LeafSpine
	src, sink   *netsim.Host
	atts        map[string][]*netsim.HydraAttachment
	at          netsim.Time
	sent        int64
	rawBytes    uint64
	setup       time.Duration
	fabric      time.Duration
	allow       time.Duration
	counts      *wireCounts // snapshot after wireCountPackets
	forwardNs   int64
	forwardHops int64
}

func setupWire(t *wireTrace, tr *tracer) (*wireRig, error) {
	// Set-up runs on the client goroutine alone, so it is timed on the
	// thread CPU clock (see threadCPU).
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	r := &wireRig{}
	start := threadCPU()
	var err error
	r.fabric = tr.do(lNetsim, func() {
		r.sim = netsim.NewSimulator()
		r.ls = netsim.BuildLeafSpine(r.sim, netsim.LeafSpineConfig{
			Leaves: 2, Spines: 2, HostsPerLeaf: 2,
			LinkBps: 100_000_000_000,
		})
		for l, leaf := range r.ls.Leaves {
			p := &netsim.L3Program{}
			if l == 0 {
				p.AddRoute(0, 0, 1, 2)
			} else {
				p.AddRoute(0, 0, 3)
			}
			leaf.Forwarding = p
		}
		for _, spine := range r.ls.Spines {
			p := &netsim.L3Program{}
			p.AddRoute(0, 0, 2)
			spine.Forwarding = p
		}
		r.atts, err = experiments.AttachAllCheckers(r.ls)
	})
	if err != nil {
		return nil, err
	}
	r.allow = tr.do(lControlplane, func() { err = experiments.AllowFlows(r.atts, t.pairs) })
	if err != nil {
		return nil, err
	}
	r.src, r.sink = r.ls.Host(0, 0), r.ls.Host(1, 0)
	r.setup = threadCPU() - start
	return r, nil
}

func (r *wireRig) delivered() uint64 { return r.sink.RxUDP + r.sink.RxTCP }

// wireCounts are the wire path's deterministic counters.
type wireCounts struct {
	events, fastTx, slowTx, checked, linkBytes, rawBytes uint64
	packets                                              int64
}

func (r *wireRig) snapshot() *wireCounts {
	c := &wireCounts{events: r.sim.Stats().EventsRun, rawBytes: r.rawBytes, packets: r.sent}
	for _, sw := range r.ls.AllSwitches() {
		c.fastTx += sw.FastTxFrames
		c.slowTx += sw.SlowTxFrames
	}
	for _, list := range r.atts {
		for _, att := range list {
			c.checked += att.Checked
		}
	}
	for _, links := range append(append([][]*netsim.Link{}, r.ls.Up...), r.ls.Down...) {
		for _, lk := range links {
			c.linkBytes += lk.Bytes
		}
	}
	return c
}

// sendFor replays the trace in a closed loop of one packet: each packet
// is scheduled on the replay host and the simulator runs until it has
// been delivered, so the packet's latency is the time of that run, on
// the client thread's CPU clock (see threadCPU). Sending only reads the
// decoded packet, so each is reused on every loop of the trace.
func (r *wireRig) sendFor(t *wireTrace, pos *int, deadline time.Time, tr *tracer, l *ledger, latMs *[]float64) (n int64, busy time.Duration) {
	for {
		for i := 0; i < 64; i++ {
			tp, pkt := &t.pkts[*pos], t.decoded[*pos]
			if *pos++; *pos == len(t.pkts) {
				*pos = 0
			}
			r.at += tp.Gap
			before := r.delivered()
			id := tr.begin(lNetsim)
			t0 := threadCPU()
			r.sim.AtNode(r.src, r.at, func() { r.src.SendPacket(pkt) })
			r.sim.RunAll()
			d := threadCPU() - t0
			tr.end(id)
			busy += d
			if latMs != nil {
				*latMs = append(*latMs, float64(d)/1e6)
			}
			n++
			r.sent++
			r.rawBytes += uint64(tp.Size)
			if r.delivered() != before+1 {
				l.fail("wire.not_delivered", 1)
			}
			if r.sent == wireCountPackets {
				r.counts = r.snapshot()
			}
		}
		if time.Now().After(deadline) {
			return n, busy
		}
	}
}

// checkWire applies the campus-wire oracle: no frame anywhere failed to
// parse, and no checker rejected a packet of the benign trace.
func checkWire(l *ledger, r *wireRig) {
	var parseErrs, rejected uint64
	for _, sw := range r.ls.AllSwitches() {
		parseErrs += sw.ParseErrors
	}
	parseErrs += r.sink.ParseErrs
	for _, list := range r.atts {
		for _, att := range list {
			rejected += att.Rejected
		}
	}
	l.fail("wire.parse_errors", int64(parseErrs))
	l.fail("wire.rejected", int64(rejected))
}

func runWire(cfg *config, l *ledger) (*e2e, error) {
	runtime.LockOSThread() // for threadCPU
	defer runtime.UnlockOSThread()
	t := newWireTrace(cfg.seed)
	res := &e2e{named: metricSet{}}
	var r *wireRig
	for i := 0; i < wireReplicas; i++ {
		r = nil
		if err := res.beginReplica(); err != nil {
			return nil, err
		}
		var err error
		if r, err = setupWire(&t, nil); err != nil {
			return nil, err
		}
		if err := res.endReplica(r.setup); err != nil {
			return nil, err
		}
	}
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	pos := 0
	sl, warm := runSlices(cfg.window, func(deadline time.Time, s *slice) {
		s.ops, s.dur = r.sendFor(&t, &pos, deadline, nil, l, &s.lat)
	})
	if err := res.peakRSS(); err != nil {
		return nil, err
	}
	res.fill(sl)
	l.attempted += warm + res.ops
	checkWire(l, r)
	res.named.set("pkts_per_s", res.rate, "1/s")
	res.named.set("cpu_ns_per_pkt", res.cpuNsPerOp, "ns")
	res.named.set("packet_p50_ms", res.latP50, "ms")
	res.named.set("packet_p99_ms", res.latP99, "ms")
	res.named.set("pkts_per_s_over_350k", res.rate/paperPPS, "ratio")
	return res, nil
}

// timedForwarding wraps a switch's forwarding program and accumulates
// the time spent in it (the traced window's netsim.forward_ns_per_hop).
type timedForwarding struct {
	inner netsim.ForwardingProgram
	r     *wireRig
}

func (f *timedForwarding) Process(sw *netsim.Switch, pkt *dataplane.Decoded, meta *netsim.PacketMeta) []netsim.Egress {
	t0 := time.Now()
	out := f.inner.Process(sw, pkt, meta)
	f.r.forwardNs += int64(time.Since(t0))
	f.r.forwardHops++
	return out
}

func probeWire(cfg *config, tr *tracer, secs time.Duration, primary bool, m metricSet, l *ledger) error {
	runtime.LockOSThread() // for threadCPU
	defer runtime.UnlockOSThread()
	t := newWireTrace(cfg.seed)
	r, err := setupWire(&t, tr)
	if err != nil {
		return err
	}
	m.set("netsim.fabric_ms", durMs(r.fabric), "ms")
	m.set("controlplane.allow_flows_ms", durMs(r.allow), "ms")
	settle()
	pos := 0
	sws := r.ls.AllSwitches()
	step := func(deadline time.Time, traced bool) int64 {
		if !traced {
			n, _ := r.sendFor(&t, &pos, deadline, nil, l, nil)
			return n
		}
		for _, sw := range sws {
			sw.Forwarding = &timedForwarding{inner: sw.Forwarding, r: r}
		}
		n, _ := r.sendFor(&t, &pos, deadline, tr, l, nil)
		for _, sw := range sws {
			sw.Forwarding = sw.Forwarding.(*timedForwarding).inner
		}
		return n
	}
	var n int64
	if primary {
		untraced, traced := interleave(secs, m, step)
		n = untraced + traced
	} else {
		n = step(time.Now().Add(secs), true)
	}
	for r.counts == nil {
		// A short probe on a slow machine: finish the counted prefix.
		k, _ := r.sendFor(&t, &pos, time.Time{}, nil, l, nil)
		n += k
	}
	l.attempted += n
	checkWire(l, r)
	m.set("netsim.forward_ns_per_hop", float64(r.forwardNs)/float64(r.forwardHops), "ns")

	c := r.counts
	pk := float64(c.packets)
	m.set("netsim.events_per_pkt", float64(c.events)/pk, "count")
	m.set("netsim.fast_tx_share", float64(c.fastTx)/float64(c.fastTx+c.slowTx), "share")
	m.set("netsim.checks_per_pkt", float64(c.checked)/pk, "count")
	m.set("netsim.wire_bytes_per_pkt", float64(c.linkBytes)/pk, "B")
	// Each packet crosses four links (host, leaf, spine, leaf, sink);
	// everything beyond four copies of the frame is telemetry.
	m.set("netsim.telemetry_bytes_per_pkt", (float64(c.linkBytes)-4*float64(c.rawBytes))/pk, "B")

	// The open-loop replay, sequential and on two shards: the wall-time
	// ratio and the coordinator's barrier count, and (P-invariance) the
	// same wire counters as the closed loop.
	var p1, p2 experiments.WireReplayResult
	tr.do(lNetsim, func() {
		p1, err = experiments.RunWireReplay(experiments.WireReplayConfig{Packets: wireCountPackets, Seed: cfg.seed})
	})
	if err != nil {
		return err
	}
	tr.do(lNetsim, func() {
		p2, err = experiments.RunWireReplay(experiments.WireReplayConfig{Packets: wireCountPackets, Seed: cfg.seed, SimShards: 2})
	})
	if err != nil {
		return err
	}
	l.attempted += 2 * wireCountPackets
	m.set("netsim.p2_wall_ratio", p1.WallPktsPerSec/p2.WallPktsPerSec, "ratio")
	m.set("netsim.barriers_per_kpkt", float64(p2.Sim.Barriers)/(wireCountPackets/1000), "count")
	for _, p := range []experiments.WireReplayResult{p1, p2} {
		l.failDiff("wire.replay_delivered", p.Delivered, wireCountPackets)
		l.failDiff("wire.replay_fast_tx_differs", p.FastTxFrames, c.fastTx)
		l.failDiff("wire.replay_checks_differ", p.Checked, c.checked)
		l.fail("wire.replay_parse_errors", int64(p.ParseErrors))
	}

	parse, appendNs, bad := probeDataplane(&t, tr)
	l.attempted += wireCountPackets
	l.fail("dataplane.parse_errors", bad)
	m.set("dataplane.parse_ns", parse, "ns")
	m.set("dataplane.append_ns", appendNs, "ns")
	return nil
}

// probeDataplane times AppendTo (serialize) and ParseInto over the
// workload's own frames, as whole passes so no per-call timer is paid.
func probeDataplane(t *wireTrace, tr *tracer) (parseNs, appendNs float64, parseErrs int64) {
	pkts := t.decoded[:wireCountPackets]
	size := 0
	for _, p := range pkts {
		size += p.WireLen()
	}
	// AppendTo grows a short buffer to exactly what it needs, so the
	// arena is sized up front.
	arena := make([]byte, 0, size)
	offs := make([]int, len(pkts)+1)
	for i, p := range pkts {
		arena = p.AppendTo(arena)
		offs[i+1] = len(arena)
	}
	buf := make([]byte, 0, 2048)
	n := float64(len(pkts))
	app := tr.do(lDataplane, func() {
		for _, p := range pkts {
			buf = p.AppendTo(buf[:0])
		}
	})
	var dec dataplane.Decoded
	par := tr.do(lDataplane, func() {
		for i := range pkts {
			if dataplane.ParseInto(&dec, arena[offs[i]:offs[i+1]]) != nil {
				parseErrs++
			}
		}
	})
	return float64(par) / n, float64(app) / n, parseErrs
}
