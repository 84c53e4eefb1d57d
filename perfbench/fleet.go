package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/pcapio"
	"repro/internal/pipeline"
	"repro/internal/reportbus"
	"repro/internal/wireproto"
)

// fleetBatch is the ingest's wire batch (its default), the granularity
// of credits and of the reference's ProcessBatch calls.
const fleetBatch = 256

// fleetLoops is large enough that only Stop ends a fleet run.
const fleetLoops = 1 << 16

// ---------------------------------------------------------------------------
// Wire taps: passive wireproto frame parsers on the benchmark's side of
// the fleet's loopback sockets. They see the bytes the fleet reads and
// writes and never change them.

const frameHeaderLen, frameTrailerLen = 10, 4

// frameTracker follows the frame boundaries of one direction of a
// wireproto stream.
type frameTracker struct {
	hdr    [frameHeaderLen]byte
	hn     int  // header bytes seen of the current frame
	left   int  // payload and trailer bytes still to come
	inBody bool // past the header
	typ    byte
	plen   int
	keep   func(typ byte) bool // keep the whole payload of these types
	body   []byte              // kept payload, or its first four bytes
	// onHeader runs when a frame's header is complete; onFrame when the
	// whole frame is.
	onHeader func(typ byte)
	onFrame  func(typ byte, frameBytes int, payload []byte)
}

// atBoundary reports whether the stream sits between two frames.
func (t *frameTracker) atBoundary() bool { return !t.inBody && t.hn == 0 }

func (t *frameTracker) feed(p []byte) {
	for len(p) > 0 {
		if !t.inBody {
			n := copy(t.hdr[t.hn:], p)
			t.hn += n
			p = p[n:]
			if t.hn < frameHeaderLen {
				return
			}
			t.typ = t.hdr[5]
			t.plen = int(binary.BigEndian.Uint32(t.hdr[6:]))
			t.left = t.plen + frameTrailerLen
			t.inBody = true
			t.body = t.body[:0]
			if t.onHeader != nil {
				t.onHeader(t.typ)
			}
			continue
		}
		n := len(p)
		if n > t.left {
			n = t.left
		}
		seen := t.plen + frameTrailerLen - t.left
		want := 4
		if t.keep != nil && t.keep(t.typ) {
			want = t.plen
		}
		if seen < want {
			end := n
			if seen+end > want {
				end = want - seen
			}
			t.body = append(t.body, p[:end]...)
		}
		t.left -= n
		p = p[n:]
		if t.left == 0 {
			if t.onFrame != nil {
				t.onFrame(t.typ, frameHeaderLen+t.plen+frameTrailerLen, t.body)
			}
			t.inBody, t.hn = false, 0
		}
	}
}

// workerTap watches one worker's ingest session: set-up ends when the
// worker starts reading its first packet batch; a batch's service time
// runs from its last byte arriving to the credit the worker writes for
// it; idle time is time blocked in a read between frames once set up.
type workerTap struct {
	mu         sync.Mutex
	rd         frameTracker
	readStart  time.Time // entry of the read in progress
	hdrStart   time.Time // entry of the read that began the current frame
	accepted   time.Time
	ready      time.Time
	readyc     chan struct{}
	seedBytes  int64
	fullBytes  int64 // bytes and packets of full-size batch frames
	fullPkts   int64
	batchDone  time.Time
	serviceUs  []float64
	idle       time.Duration
	lastActive time.Time
}

func newWorkerTap() *workerTap {
	w := &workerTap{readyc: make(chan struct{})}
	w.rd.onHeader = func(typ byte) {
		if typ == wireproto.TypePacketBatch && w.ready.IsZero() {
			w.ready = w.hdrStart
			close(w.readyc)
		}
	}
	w.rd.onFrame = func(typ byte, n int, payload []byte) {
		switch typ {
		case wireproto.TypeSeed:
			w.seedBytes += int64(n)
		case wireproto.TypePacketBatch:
			w.batchDone = time.Now()
			if len(payload) >= 4 && binary.LittleEndian.Uint32(payload) == fleetBatch {
				w.fullBytes += int64(n)
				w.fullPkts += fleetBatch
			}
		}
	}
	return w
}

func (w *workerTap) beforeRead() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.readStart = time.Now()
	if w.rd.atBoundary() {
		w.hdrStart = w.readStart
	}
}

func (w *workerTap) afterRead(p []byte) {
	now := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.rd.atBoundary() && !w.ready.IsZero() {
		w.idle += now.Sub(w.readStart)
	}
	w.rd.feed(p)
	w.lastActive = now
}

func (w *workerTap) onWrite(p []byte) {
	if len(p) != frameHeaderLen || string(p[:4]) != "HYWP" || p[5] != wireproto.TypeCredit {
		return
	}
	now := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.batchDone.IsZero() {
		w.serviceUs = append(w.serviceUs, float64(now.Sub(w.batchDone))/float64(time.Microsecond))
		w.batchDone = time.Time{}
	}
	w.lastActive = now
}

type workerConn struct {
	net.Conn
	tap *workerTap
}

func (c *workerConn) Read(p []byte) (int, error) {
	c.tap.beforeRead()
	n, err := c.Conn.Read(p)
	c.tap.afterRead(p[:n])
	return n, err
}

func (c *workerConn) Write(p []byte) (int, error) {
	c.tap.onWrite(p)
	return c.Conn.Write(p)
}

// workerListener hands each accepted session to the worker through its
// tap. A fleet run opens one session per worker.
type workerListener struct {
	net.Listener
	tap *workerTap
}

func (l *workerListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.tap.mu.Lock()
	l.tap.accepted = time.Now()
	l.tap.mu.Unlock()
	return &workerConn{Conn: c, tap: l.tap}, nil
}

// aggTap is the arrival point of campus-fleet alerts: it keeps every
// AggBatch frame the aggregator reads, with the time its last byte
// arrived, for decoding after the run.
type aggTap struct {
	mu      sync.Mutex
	batches []aggArrival
	bytes   int64
}

type aggArrival struct {
	at      time.Time
	payload []byte
}

type aggConn struct {
	net.Conn
	tap *aggTap
	rd  frameTracker
}

func (c *aggConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.rd.feed(p[:n])
	return n, err
}

type aggListener struct {
	net.Listener
	tap *aggTap
}

func (l *aggListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	ac := &aggConn{Conn: c, tap: l.tap}
	ac.rd.keep = func(typ byte) bool { return typ == wireproto.TypeAggBatch }
	ac.rd.onFrame = func(typ byte, n int, payload []byte) {
		if typ != wireproto.TypeAggBatch {
			return
		}
		at := time.Now()
		l.tap.mu.Lock()
		l.tap.batches = append(l.tap.batches, aggArrival{at: at, payload: append([]byte(nil), payload...)})
		l.tap.bytes += int64(n)
		l.tap.mu.Unlock()
	}
	return ac, nil
}

// alerts decodes the kept AggBatch frames: one sample per aggregate,
// with its arrival time and the latency from its first raise, and the
// digests they carried.
func (t *aggTap) alerts() (out []alert, digests uint64, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, b := range t.batches {
		var batch fleet.AggBatch
		if err := json.Unmarshal(b.payload, &batch); err != nil {
			return nil, 0, fmt.Errorf("decoding an AggBatch frame: %w", err)
		}
		for _, a := range batch.Aggs {
			out = append(out, alert{at: b.at, latMs: float64(b.at.UnixNano()-a.FirstAt) / 1e6})
			digests += a.Count
		}
	}
	return out, digests, nil
}

// ingestGauges reads the ingest's own metrics registry: the summed
// credit-window occupancy, sender queue depth and acknowledged packets.
func ingestGauges(reg *metrics.Registry) (outstanding, queued, acked float64) {
	var buf bytes.Buffer
	if reg.WritePrometheus(&buf) != nil {
		return 0, 0, 0
	}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		name, rest, ok := strings.Cut(line, "{")
		if !ok {
			continue
		}
		_, val, ok := strings.Cut(rest, "} ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		switch name {
		case "hydra_ingest_window_outstanding":
			outstanding += v
		case "hydra_ingest_queue_depth":
			queued += v
		case "hydra_ingest_packets_acked_total":
			acked += v
		}
	}
	return outstanding, queued, acked
}

// ---------------------------------------------------------------------------
// One in-process fleet: an aggregator, nproc workers and an ingest
// replaying the capture, all over loopback TCP.

type fleetRig struct {
	agg     *fleet.Agg
	aggLn   net.Listener
	aggTap  *aggTap
	workers []*fleet.Worker
	wLns    []net.Listener
	wTaps   []*workerTap
	serving sync.WaitGroup
	reg     *metrics.Registry
	tr      *tracer
	ingest  *fleet.Ingest
	done    chan struct{}
	stats   fleet.IngestStats
	runErr  error

	start, ready, end time.Time
	acked0            float64
	win               window // from every worker set up to the run's end
	outSamples        []float64
	queueSamples      []float64
	slices            []slice
}

// startFleet brings a fleet up and starts the ingest; it returns once
// every worker's session is set up and reading packet batches.
func startFleet(pcapPath string, workers int, tr *tracer) (*fleetRig, error) {
	r := &fleetRig{aggTap: &aggTap{}, reg: metrics.NewRegistry(), done: make(chan struct{}), tr: tr}
	r.start = time.Now()
	// One span covers the set-up calls into the fleet, up to every
	// worker reading packets.
	defer tr.end(tr.begin(lFleet))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r.aggLn = ln
	r.agg = fleet.NewAgg(fleet.AggConfig{Node: "agg"})
	r.serving.Add(1)
	go func() {
		defer r.serving.Done()
		_ = r.agg.Serve(&aggListener{Listener: ln, tap: r.aggTap}) // ends when the listener closes
	}()
	buildCheckers := func() ([]engine.Checker, error) {
		t0 := time.Now()
		chks, err := experiments.CorpusCheckers()
		tr.add(lCompiler, t0, time.Now())
		return chks, err
	}
	configure := func(install func(string, uint32, func(*pipeline.State) error) error, pairs [][2]uint32) error {
		t0 := time.Now()
		err := experiments.ConfigureReplayEngine(install, pairs)
		tr.add(lPipeline, t0, time.Now())
		return err
	}
	addrs := make([]string, workers)
	for i := 0; i < workers; i++ {
		w, err := fleet.NewWorker(fleet.WorkerConfig{
			Node:          fmt.Sprintf("worker-%d", i),
			AggAddr:       ln.Addr().String(),
			BuildCheckers: buildCheckers,
			Configure:     configure,
		})
		if err != nil {
			r.teardown()
			return nil, err
		}
		if err := w.Connect(); err != nil {
			r.teardown()
			return nil, err
		}
		r.workers = append(r.workers, w)
		wln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			r.teardown()
			return nil, err
		}
		tap := newWorkerTap()
		r.wLns = append(r.wLns, wln)
		r.wTaps = append(r.wTaps, tap)
		addrs[i] = wln.Addr().String()
		r.serving.Add(1)
		go func() {
			defer r.serving.Done()
			_ = w.Serve(&workerListener{Listener: wln, tap: tap}) // ends when the listener closes
		}()
	}
	r.ingest, err = fleet.NewIngest(fleet.IngestConfig{
		Workers:       addrs,
		Node:          "ingest",
		PathFor:       experiments.ReplayPathFor,
		Loops:         fleetLoops,
		SkipSeedEvery: skipSeedEvery,
		Metrics:       r.reg,
	})
	if err != nil {
		r.teardown()
		return nil, err
	}
	src, err := fleet.OpenPcap(pcapPath)
	if err != nil {
		r.teardown()
		return nil, err
	}
	go func() {
		defer close(r.done)
		t0 := time.Now()
		r.stats, r.runErr = r.ingest.Run(src)
		tr.add(lFleet, t0, time.Now())
		src.Close()
	}()
	timeout := time.After(60 * time.Second)
	for _, tap := range r.wTaps {
		select {
		case <-tap.readyc:
		case <-r.done:
			r.teardown()
			return nil, fmt.Errorf("ingest ended before every worker was set up: %v", r.runErr)
		case <-timeout:
			r.ingest.Stop()
			<-r.done
			r.teardown()
			return nil, fmt.Errorf("workers not set up within 60s")
		}
	}
	for _, tap := range r.wTaps {
		tap.mu.Lock()
		if tap.ready.After(r.ready) {
			r.ready = tap.ready
		}
		tap.mu.Unlock()
	}
	_, _, r.acked0 = ingestGauges(r.reg)
	r.win.begin()
	return r, nil
}

// streamFor lets the fleet stream for d after every worker was set up,
// sampling the ingest's gauges and closing a stretch of the window
// (acknowledged packets, wall time, CPU, steal) at each e2eSlices
// boundary; then it stops the ingest and waits for the run to end and
// every worker's summary to reach the aggregator.
func (r *fleetRig) streamFor(d time.Duration) error {
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	acked, cpu, steal := r.acked0, procCPU(), stealTime()
	from := time.Now()
wait:
	for i := 1; d > 0 && i <= e2eSlices; {
		select {
		case <-r.done:
			break wait
		case now := <-tick.C:
			out, q, a := ingestGauges(r.reg)
			r.outSamples = append(r.outSamples, out)
			r.queueSamples = append(r.queueSamples, q)
			if now.Before(r.ready.Add(d * time.Duration(i) / e2eSlices)) {
				continue
			}
			c, st := procCPU(), stealTime()
			wall := now.Sub(from)
			r.slices = append(r.slices, slice{from: from, wall: wall, ops: int64(a - acked), dur: wall - (st - steal), cpu: c - cpu, steal: st - steal})
			acked, cpu, steal, from = a, c, st, now
			i++
		}
	}
	defer r.tr.end(r.tr.begin(lFleet))
	r.ingest.Stop()
	<-r.done
	r.win.end()
	r.end = time.Now()
	if r.runErr != nil {
		return r.runErr
	}
	if !r.agg.WaitSummaries(len(r.workers), 30*time.Second) {
		return fmt.Errorf("%d of %d worker summaries reached the aggregator", r.agg.Summaries(), len(r.workers))
	}
	return nil
}

// teardown closes every listener and link and waits for the serving
// goroutines to return.
func (r *fleetRig) teardown() {
	for _, ln := range r.wLns {
		ln.Close()
	}
	for _, w := range r.workers {
		w.Close()
	}
	if r.aggLn != nil {
		r.aggLn.Close()
	}
	r.serving.Wait()
}

func (r *fleetRig) setup() time.Duration { return r.ready.Sub(r.start) }

// streamedRate is packets acknowledged per second between the moment
// every worker was set up and the end of the run.
func (r *fleetRig) streamedRate() (pkts float64, rate float64) {
	pkts = float64(r.stats.Acked) - r.acked0
	return pkts, pkts / r.end.Sub(r.ready).Seconds()
}

// fleetRef is the in-process ground truth for a fleet run that streamed
// the first k packets of the looped capture: RunFleetReference's
// computation (the batched engine path, single process, the same seed
// filtering) over that prefix.
type fleetRef struct {
	counts   engine.Counts
	verdicts []fleet.VerdictCount
	digests  map[string]uint64
	bus      reportbus.Metrics
}

func fleetReference(c *campus, k int64) (*fleetRef, error) {
	chks, err := experiments.CorpusCheckers()
	if err != nil {
		return nil, err
	}
	verdicts := make([]engine.Verdict, len(c.pkts))
	collect := &reportbus.CollectExporter{}
	bus := reportbus.New(reportbus.Config{Window: 5 * time.Millisecond, Exporters: []reportbus.Exporter{collect}})
	seq := engine.NewSequential(engine.Config{Checkers: chks, Verdicts: verdicts, ReportBus: bus})
	if err := experiments.ConfigureReplayEngine(seq.Install, c.seedPairs); err != nil {
		return nil, err
	}
	seq.Warm()
	bus.Start()
	multiset := map[engine.Verdict]uint64{}
	forPrefix(c.pkts, k, func(pass []engine.Packet) {
		processBatches(seq, pass, fleetBatch)
		for _, v := range verdicts[:len(pass)] {
			multiset[v]++
		}
	})
	bus.Close()
	ref := &fleetRef{counts: seq.Counts(), digests: map[string]uint64{}, bus: bus.Metrics()}
	vcs := make([]fleet.VerdictCount, 0, len(multiset))
	for v, n := range multiset {
		vcs = append(vcs, fleet.VerdictCount{Reject: v.Reject, Reports: v.Reports, Count: n})
	}
	ref.verdicts = fleet.MergeVerdictCounts(vcs)
	ref.digests = experiments.DigestKeyCounts(collect.Aggregates())
	return ref, nil
}

// checkFleet applies the campus-fleet oracle to one finished run:
// verdict, count and digest parity with the reference, conservation at
// the aggregator, and acked+dropped == assigned on every link.
func checkFleet(l *ledger, r *fleetRig, c *campus) error {
	st := r.stats
	l.attempted += int64(st.Packets)
	l.fail("fleet.parse_errors", int64(st.ParseErrors))
	for reason, n := range st.Dropped {
		l.fail("fleet.dropped."+reason, int64(n))
	}
	for _, link := range st.Workers {
		var dropped uint64
		for _, n := range link.Dropped {
			dropped += n
		}
		l.failDiff("fleet.acked_plus_dropped_vs_assigned", link.Acked+dropped, link.Assigned)
	}
	rep := r.agg.Report()
	if !rep.Conserved || rep.Summarized != len(r.workers) {
		l.fail("fleet.not_conserved", 1)
	}
	ref, err := fleetReference(c, int64(st.Packets))
	if err != nil {
		return err
	}
	if ref.bus.Unaccounted() != 0 {
		l.fail("fleet.reference_unaccounted", 1)
	}
	got := rep.Counts
	l.failDiff("fleet.packets", got.Packets, ref.counts.Packets)
	l.failDiff("fleet.forwarded", got.Forwarded, ref.counts.Forwarded)
	l.failDiff("fleet.rejected", got.Rejected, ref.counts.Rejected)
	l.failDiff("fleet.reports", got.Reports, ref.counts.Reports)
	l.fail("fleet.errors", int64(got.Errors))
	if !reflect.DeepEqual(rep.Verdicts, ref.verdicts) {
		l.fail("fleet.verdict_parity", verdictDistance(rep.Verdicts, ref.verdicts))
	}
	digests := experiments.DigestKeyCounts(rep.Aggregates)
	for k, n := range ref.digests {
		l.failDiff("fleet.digest_parity", digests[k], n)
	}
	for k, n := range digests {
		if _, ok := ref.digests[k]; !ok {
			l.fail("fleet.digest_parity", int64(n))
		}
	}
	return nil
}

// verdictDistance is the number of packets whose verdict class differs
// between two verdict multisets (at least 1 when they differ at all).
func verdictDistance(a, b []fleet.VerdictCount) int64 {
	counts := map[[2]int64]int64{}
	for _, v := range a {
		counts[verdictClass(v)] += int64(v.Count)
	}
	for _, v := range b {
		counts[verdictClass(v)] -= int64(v.Count)
	}
	var d int64
	for _, n := range counts {
		if n < 0 {
			n = -n
		}
		d += n
	}
	if d /= 2; d == 0 {
		d = 1
	}
	return d
}

func verdictClass(v fleet.VerdictCount) [2]int64 {
	r := int64(0)
	if v.Reject {
		r = 1
	}
	return [2]int64{r, int64(v.Reports)}
}

// writeCapture renders the campus trace as a pcap in the scratch
// directory (trace generation, outside every timing).
func writeCapture(cfg *config) (dir, path string, err error) {
	dir, err = os.MkdirTemp(cfg.scratch, "perfbench-fleet-")
	if err != nil {
		return "", "", err
	}
	path = filepath.Join(dir, "campus.pcap")
	if err := experiments.WriteCampusPcap(path, tracePackets, cfg.seed); err != nil {
		os.RemoveAll(dir)
		return "", "", err
	}
	return dir, path, nil
}

func runFleet(cfg *config, l *ledger) (*e2e, error) {
	c := newCampus(cfg.seed)
	dir, pcap, err := writeCapture(cfg)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	res := &e2e{named: metricSet{}}
	var reconnects uint64
	var r *fleetRig
	for i := 0; i < setupReplicas; i++ {
		if err := res.beginReplica(); err != nil {
			return nil, err
		}
		if r, err = startFleet(pcap, cfg.nproc, nil); err != nil {
			return nil, err
		}
		if err := res.endReplica(r.setup()); err != nil {
			r.ingest.Stop()
			<-r.done
			r.teardown()
			return nil, err
		}
		if i == setupReplicas-1 {
			break
		}
		// A set-up replica streams only what the ingest sent before it
		// was stopped; its run is still checked.
		err := r.streamFor(0)
		r.teardown()
		if err != nil {
			return nil, err
		}
		reconnects += r.stats.Reconnects
		if err := checkFleet(l, r, &c); err != nil {
			return nil, err
		}
	}
	err = r.streamFor(cfg.window)
	r.teardown()
	if err != nil {
		return nil, err
	}
	if err := res.peakRSS(); err != nil {
		return nil, err
	}
	reconnects += r.stats.Reconnects
	alerts, _, err := r.aggTap.alerts()
	if err != nil {
		return nil, err
	}
	for _, a := range alerts {
		if i := sliceAt(r.slices, a.at); i >= 0 {
			r.slices[i].lat = append(r.slices[i].lat, a.latMs)
		}
	}
	res.fill(r.slices)
	if err := checkFleet(l, r, &c); err != nil {
		return nil, err
	}
	res.named.set("pkts_per_s", res.rate, "1/s")
	res.named.set("cpu_ns_per_pkt", res.cpuNsPerOp, "ns")
	res.named.set("alert_p50_ms", res.latP50, "ms")
	res.named.set("alert_p99_ms", res.latP99, "ms")
	res.named.set("pkts_per_s_over_350k", res.rate/paperPPS, "ratio")
	// The ingest's orderly-teardown race shows up here as it falls.
	res.named.set("fleet_ingest_reconnects", float64(reconnects), "count")
	return res, nil
}

func probeFleet(cfg *config, tr *tracer, secs time.Duration, primary bool, m metricSet, l *ledger) error {
	c := newCampus(cfg.seed)
	dir, pcap, err := writeCapture(cfg)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	frames := 0
	load := tr.do(lPcapio, func() {
		f, ferr := os.Open(pcap)
		if ferr != nil {
			err = ferr
			return
		}
		defer f.Close()
		rd, rerr := pcapio.NewReader(bufio.NewReader(f))
		if rerr != nil {
			err = rerr
			return
		}
		for {
			if _, _, nerr := rd.Next(); nerr != nil {
				break
			}
			frames++
		}
	})
	if err != nil {
		return err
	}
	l.attempted += int64(tracePackets)
	l.failDiff("pcapio.frames", uint64(frames), tracePackets)
	m.set("pcapio.load_ms", durMs(load), "ms")

	var untracedRate float64
	if primary {
		settle()
		r, err := startFleet(pcap, cfg.nproc, nil)
		if err != nil {
			return err
		}
		err = r.streamFor(secs)
		r.teardown()
		if err != nil {
			return err
		}
		pkts, rate := r.streamedRate()
		untracedRate = rate
		r.win.runtimeMetrics(m, int64(pkts))
		if err := checkFleet(l, r, &c); err != nil {
			return err
		}
	}
	settle()
	r, err := startFleet(pcap, cfg.nproc, tr)
	if err != nil {
		return err
	}
	err = r.streamFor(secs)
	r.teardown()
	if err != nil {
		return err
	}
	_, rate := r.streamedRate()
	if primary {
		m.set("trace.overhead_pct", 100*(untracedRate-rate)/untracedRate, "%")
	}
	if err := checkFleet(l, r, &c); err != nil {
		return err
	}

	var setupMs, seedBytes, idle []float64
	var service []float64
	var fullBytes, fullPkts int64
	for _, tap := range r.wTaps {
		tap.mu.Lock()
		setupMs = append(setupMs, durMs(tap.ready.Sub(tap.accepted)))
		seedBytes = append(seedBytes, float64(tap.seedBytes))
		idle = append(idle, tap.idle.Seconds()/tap.lastActive.Sub(tap.ready).Seconds())
		service = append(service, tap.serviceUs...)
		fullBytes += tap.fullBytes
		fullPkts += tap.fullPkts
		tap.mu.Unlock()
	}
	m.set("fleet.session_setup_ms", mean(setupMs), "ms")
	m.set("fleet.seed_pairs_per_worker", float64(r.stats.SeededPairs), "count")
	m.set("wireproto.seed_bytes_per_worker", mean(seedBytes), "B")
	if slices.Min(seedBytes) != slices.Max(seedBytes) {
		l.fail("wireproto.seed_bytes_differ_between_workers", 1)
	}
	m.set("wireproto.batch_bytes_per_pkt", float64(fullBytes)/float64(fullPkts), "B")
	m.set("fleet.worker.service_us_p50", quantile(service, 0.5), "us")
	m.set("fleet.worker.service_us_p99", quantile(service, 0.99), "us")
	m.set("fleet.worker.idle_share", mean(idle), "share")
	m.set("fleet.ingest.window_outstanding_mean", mean(r.outSamples), "count")
	m.set("fleet.ingest.queue_depth_mean", mean(r.queueSamples), "count")
	m.set("fleet.ingest.reconnects", float64(r.stats.Reconnects), "count")
	var dropped uint64
	for _, n := range r.stats.Dropped {
		dropped += n
	}
	m.set("fleet.ingest.dropped", float64(dropped), "count")
	_, digests, err := r.aggTap.alerts()
	if err != nil {
		return err
	}
	r.aggTap.mu.Lock()
	m.set("fleet.agg.bytes_per_digest", float64(r.aggTap.bytes)/float64(digests), "B")
	r.aggTap.mu.Unlock()
	return nil
}
