package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"repro/internal/atoms"
	"repro/internal/dataplane"
	"repro/internal/netsim"
)

// churnK is the fat-tree arity of route-churn: 80 switches, 128 hosts.
const churnK = 8

// churnCountUpdates is the prefix of the churn stream the deterministic
// atom counts (affected_mean, affected_max) are taken over.
const churnCountUpdates = 20_000

// churnReplicas is how many times route-churn sets up; its set-up is
// short, so it takes more samples for the median.
const churnReplicas = 25

// churnRig is one fabric with its forwarding tables watched by an atoms
// verifier that expects every host (v is nil for the unwatched FIB).
type churnRig struct {
	ft     *netsim.FatTree
	v      *atoms.Verifier
	setup  time.Duration
	replay time.Duration
}

func setupChurn(watched bool, tr *tracer) *churnRig {
	// Set-up runs on the client goroutine alone, so it is timed on the
	// thread CPU clock (see threadCPU).
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	r := &churnRig{}
	start := threadCPU()
	tr.do(lNetsim, func() {
		r.ft = netsim.BuildFatTree(netsim.NewSimulator(), netsim.FatTreeConfig{K: churnK, WithRouting: true})
	})
	if watched {
		r.replay = tr.do(lAtoms, func() {
			r.v = atoms.New()
			atoms.WatchFabric(r.v, r.ft.AllSwitches())
			for p := 0; p < churnK; p++ {
				for e := 0; e < churnK/2; e++ {
					for h := 0; h < churnK/2; h++ {
						r.v.ExpectHost(netsim.FatTreeHostIP(p, e, h))
					}
				}
			}
		})
	}
	r.setup = threadCPU() - start
	return r
}

// churnSite is one withdraw/reinstall pair: seven in eight churn a host
// /32 on its edge switch, the eighth a pod /16 on a core switch.
type churnSite struct {
	prog   *netsim.L3Program
	prefix dataplane.IP4
	bits   int
	port   int
}

// churnStream generates the seeded site sequence, as RunAtomsChurn does.
type churnStream struct {
	rng  *rand.Rand
	pair int
}

func newChurnStream(seed int64) *churnStream {
	return &churnStream{rng: rand.New(rand.NewSource(seed))}
}

func (s *churnStream) next(ft *netsim.FatTree) churnSite {
	const half = churnK / 2
	p, e, h := s.rng.Intn(churnK), s.rng.Intn(half), s.rng.Intn(half)
	pair := s.pair
	s.pair++
	if pair%8 == 7 {
		g, j := s.rng.Intn(half), s.rng.Intn(half)
		return churnSite{
			prog:   ft.Core[g][j].Forwarding.(*netsim.L3Program),
			prefix: netsim.FatTreeHostIP(p, 0, 0) &^ 0xffff, bits: 16, port: p + 1,
		}
	}
	return churnSite{
		prog:   ft.Edge[p][e].Forwarding.(*netsim.L3Program),
		prefix: netsim.FatTreeHostIP(p, e, h), bits: 32, port: h + 1,
	}
}

// churnRun is the outcome of one churn window.
type churnRun struct {
	updates int64
	busy    time.Duration
	latMs   []float64
	// byClass also records each update's latency (us) under its prefix
	// class, in host32Us and pod16Us.
	byClass           bool
	host32Us, pod16Us []float64
	// countAffected records the atoms each update rechecked, over the
	// first churnCountUpdates updates, in affected.
	countAffected bool
	affected      []float64
}

// churnFor drives withdraw/reinstall pairs in a closed loop until the
// deadline, timing each RemoveRoute/AddRoute call on the client
// thread's CPU clock (see threadCPU); the call returns after atoms has
// rechecked, when the FIB is watched. Site generation is outside the
// timings.
func churnFor(r *churnRig, st *churnStream, deadline time.Time, tr *tracer, l *ledger, out *churnRun) {
	lay := lNetsim
	if r.v != nil {
		lay = lAtoms
	}
	var rechecks uint64
	if r.v != nil {
		rechecks = r.v.Stats().Rechecks
	}
	record := func(d time.Duration, bits int) {
		us := float64(d) / float64(time.Microsecond)
		out.latMs = append(out.latMs, us/1000)
		if out.byClass {
			if bits == 32 {
				out.host32Us = append(out.host32Us, us)
			} else {
				out.pod16Us = append(out.pod16Us, us)
			}
		}
		out.busy += d
		out.updates++
		if out.countAffected && len(out.affected) < churnCountUpdates {
			now := r.v.Stats().Rechecks
			out.affected = append(out.affected, float64(now-rechecks))
			rechecks = now
		}
	}
	for {
		for i := 0; i < 64; i++ {
			s := st.next(r.ft)
			id := tr.begin(lay)
			t0 := threadCPU()
			ok := s.prog.RemoveRoute(s.prefix, s.bits)
			d := threadCPU() - t0
			tr.end(id)
			if !ok {
				l.fail("churn.remove_missing_route", 1)
			}
			record(d, s.bits)
			id = tr.begin(lay)
			t0 = threadCPU()
			s.prog.AddRoute(s.prefix, s.bits, s.port)
			d = threadCPU() - t0
			tr.end(id)
			record(d, s.bits)
		}
		if time.Now().After(deadline) {
			return
		}
	}
}

// checkChurn applies the route-churn oracle: every withdrawal's
// violation was resolved by its reinstall, and nothing is outstanding.
func checkChurn(l *ledger, v *atoms.Verifier) atoms.Stats {
	st := v.Stats()
	l.failDiff("atoms.raised_vs_resolved", st.Raised, st.Resolved)
	l.fail("atoms.outstanding", int64(st.Outstanding))
	return st
}

func runChurn(cfg *config, l *ledger) (*e2e, error) {
	runtime.LockOSThread() // for threadCPU
	defer runtime.UnlockOSThread()
	res := &e2e{named: metricSet{}}
	var r *churnRig
	for i := 0; i < churnReplicas; i++ {
		r = nil
		if err := res.beginReplica(); err != nil {
			return nil, err
		}
		r = setupChurn(true, nil)
		if err := res.endReplica(r.setup); err != nil {
			return nil, err
		}
	}
	if err := checkClean(r.v); err != nil {
		return nil, err
	}
	st := newChurnStream(cfg.seed)
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	sl, warm := runSlices(cfg.window, func(deadline time.Time, s *slice) {
		run := churnRun{latMs: s.lat}
		churnFor(r, st, deadline, nil, l, &run)
		s.ops, s.dur, s.lat = run.updates, run.busy, run.latMs
	})
	if err := res.peakRSS(); err != nil {
		return nil, err
	}
	res.fill(sl)
	l.attempted += warm + res.ops
	checkChurn(l, r.v)
	res.named.set("updates_per_s", res.rate, "1/s")
	res.named.set("update_p50_us", res.latP50*1000, "us")
	res.named.set("update_p99_us", res.latP99*1000, "us")
	res.named.set("cpu_ns_per_update", res.cpuNsPerOp, "ns")
	return res, nil
}

// checkClean fails when the fabric's routing has violations before any
// churn (a broken fabric, not a measurement).
func checkClean(v *atoms.Verifier) error {
	if out := v.Outstanding(); len(out) != 0 {
		return fmt.Errorf("fat-tree routing is not clean before churn: %v", out[0])
	}
	return nil
}

func probeChurn(cfg *config, tr *tracer, secs time.Duration, primary bool, m metricSet, l *ledger) error {
	runtime.LockOSThread() // for threadCPU
	defer runtime.UnlockOSThread()
	r := setupChurn(true, tr)
	if err := checkClean(r.v); err != nil {
		return err
	}
	m.set("atoms.fib_replay_ms", durMs(r.replay), "ms")
	m.set("atoms.atoms", float64(r.v.Stats().Atoms), "count")
	st := newChurnStream(cfg.seed)
	settle()
	run := churnRun{byClass: true}
	step := func(deadline time.Time, traced bool) int64 {
		if !traced {
			var plain churnRun
			churnFor(r, st, deadline, nil, l, &plain)
			return plain.updates
		}
		before := run.updates
		churnFor(r, st, deadline, tr, l, &run)
		return run.updates - before
	}
	var n int64
	if primary {
		untraced, traced := interleave(secs, m, step)
		n = untraced + traced
	} else {
		n = step(time.Now().Add(secs), true)
	}
	l.attempted += n
	stats := checkChurn(l, r.v)
	m.set("atoms.raised", float64(stats.Raised), "count")
	m.set("atoms.resolved", float64(stats.Resolved), "count")
	m.set("atoms.update_us_p50.host32", quantile(run.host32Us, 0.5), "us")
	m.set("atoms.update_us_p99.pod16", quantile(run.pod16Us, 0.99), "us")

	// The deterministic atom counts come from a fresh fabric and stream,
	// over a fixed prefix of the churn.
	fresh := setupChurn(true, nil)
	counted := churnRun{countAffected: true}
	cst := newChurnStream(cfg.seed)
	for len(counted.affected) < churnCountUpdates {
		churnFor(fresh, cst, time.Time{}, nil, l, &counted)
	}
	l.attempted += counted.updates
	checkChurn(l, fresh.v)
	m.set("atoms.affected_mean", mean(counted.affected), "count")
	m.set("atoms.affected_max", slices.Max(counted.affected), "count")

	// The same churn on an unwatched FIB separates route-table cost from
	// atoms cost.
	bare := setupChurn(false, tr)
	var plain churnRun
	churnFor(bare, newChurnStream(cfg.seed), time.Now().Add(secs/2), tr, l, &plain)
	l.attempted += plain.updates
	m.set("netsim.route_update_us_p50", 1000*quantile(plain.latMs, 0.5), "us")
	return nil
}
