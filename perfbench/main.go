// Command perfbench is the repository's benchmark: four closed-loop
// workloads driven through the program's public APIs from one process,
// each checked against an oracle. An untraced run prints the end-to-end
// metrics; a traced run (-trace 1) puts spans around the benchmark's
// calls into each layer and prints the per-layer metrics. See README.md
// for the metric list and how each workload was chosen.
//
// Usage:
//
//	perfbench -workload campus-engine -seed 1 -seconds 12 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// paperPPS is the paper's campus tap rate, the yardstick pkts_per_s is
// stated against.
const paperPPS = 350_000

// setupReplicas is how many times a run sets a workload up; setup_s is
// the median, and the last replica is the one measured.
const setupReplicas = 5

type config struct {
	seed    int64
	window  time.Duration // the timed window of an untraced run
	nproc   int
	scratch string
}

// e2e is one untraced run's end-to-end outcome.
type e2e struct {
	ops        int64
	rate       float64 // ops per second
	cpuNsPerOp float64
	latP50     float64 // ms
	latP99     float64 // ms
	latN       int
	setup      []float64 // seconds, one per replica
	setupRSS   []float64 // MB, each replica's peak resident memory
	rssMB      float64
	// named holds the workload's figures under their workload-specific
	// names (pkts_per_s, alert_p99_ms, ...), for the human report.
	named metricSet
}

// beginReplica starts a set-up replica from a collected heap with the
// resident high-water mark restarted (see resetPeakRSS).
func (r *e2e) beginReplica() error { return resetPeakRSS() }

// endReplica records a set-up replica's time and peak resident memory.
func (r *e2e) endReplica(d time.Duration) error {
	mb, err := peakRSSMB()
	r.setup = append(r.setup, d.Seconds())
	r.setupRSS = append(r.setupRSS, mb)
	return err
}

// peakRSS sets the run's peak resident memory: the larger of the
// set-ups' median peak and the peak since the high-water mark was last
// restarted (before the timed window, or before the last set-up where
// the window follows it without a pause).
func (r *e2e) peakRSS() error {
	mb, err := peakRSSMB()
	r.rssMB = max(mb, median(r.setupRSS))
	return err
}

type workload struct {
	name string
	// run is the untraced end-to-end run over cfg.window.
	run func(cfg *config, l *ledger) (*e2e, error)
	// probe is the traced run over secs: it records the per-layer
	// metrics; as the chosen (primary) workload it interleaves as much
	// untraced running, for the tracing overhead and the GC and
	// allocation figures (see interleave).
	probe func(cfg *config, tr *tracer, secs time.Duration, primary bool, m metricSet, l *ledger) error
}

var workloads = []workload{
	{name: "campus-engine", run: runEngine, probe: probeEngine},
	{name: "campus-wire", run: runWire, probe: probeWire},
	{name: "campus-fleet", run: runFleet, probe: probeFleet},
	{name: "route-churn", run: runChurn, probe: probeChurn},
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: campus-engine, campus-wire, campus-fleet or route-churn")
		seed    = flag.Int64("seed", 1, "seed of the campus trace and the route churn")
		seconds = flag.Float64("seconds", 12, "length of the timed window")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer sweep instead of the end-to-end run")
		scratch = flag.String("scratch", os.TempDir(), "directory for the fleet's capture file")
	)
	flag.Parse()
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	cfg := &config{
		seed:    *seed,
		window:  time.Duration(*seconds * float64(time.Second)),
		nproc:   runtime.NumCPU(),
		scratch: *scratch,
	}
	if runtime.GOMAXPROCS(0) > cfg.nproc {
		runtime.GOMAXPROCS(cfg.nproc)
	}
	l := newLedger()
	m := metricSet{}
	var err error
	if *trace == 1 {
		err = sweep(cfg, wl, m, l)
	} else {
		err = endToEnd(cfg, wl, m, l)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		os.Exit(1)
	}
	report(wl.name, m, l)
}

func endToEnd(cfg *config, wl *workload, m metricSet, l *ledger) error {
	r, err := wl.run(cfg, l)
	if err != nil {
		return err
	}
	m.set("rate_per_s", r.rate, "1/s")
	m.set("cpu_ns_per_op", r.cpuNsPerOp, "ns")
	m.set("latency_p50_ms", r.latP50, "ms")
	m.set("latency_p99_ms", r.latP99, "ms")
	m.set("setup_s", median(r.setup), "s")
	m.set("peak_rss_mb", r.rssMB, "MB")
	fmt.Printf("%s end to end: %d ops in the timed window, %d latency samples, setup replicas %v s\n",
		wl.name, r.ops, r.latN, r.setup)
	printMetrics(r.named)
	return nil
}

// sweep is the traced run: the chosen workload runs for the full window
// as alternating untraced and traced stretches, and every other
// workload runs a shorter traced probe, so each per-layer metric is
// measured on the workload that exercises its layer.
func sweep(cfg *config, primary *workload, m metricSet, l *ledger) error {
	tr := newTracer()
	half := cfg.window / 2
	probe := cfg.window / 4
	if probe < time.Second {
		probe = time.Second
	}
	order := []*workload{primary}
	for i := range workloads {
		if &workloads[i] != primary {
			order = append(order, &workloads[i])
		}
	}
	for _, wl := range order {
		secs := probe
		if wl == primary {
			secs = half
		}
		if err := wl.probe(cfg, tr, secs, wl == primary, m, l); err != nil {
			return fmt.Errorf("%s probe: %w", wl.name, err)
		}
		runtime.GC()
		debug.FreeOSMemory()
	}
	tr.report(m)
	return nil
}

func printMetrics(m metricSet) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-40s %16.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

type result struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// report prints the human summary, the itemized failures and, as the
// last line, the JSON result.
func report(name string, m metricSet, l *ledger) {
	failed := l.total()
	share := 0.0
	if l.attempted > 0 {
		share = float64(failed) / float64(l.attempted)
	}
	fmt.Printf("%s metrics:\n", name)
	printMetrics(m)
	fmt.Printf("  %-40s %16.6g share (%d of %d)\n", "failed_share", share, failed, l.attempted)
	reasons := make([]string, 0, len(l.failed))
	for k := range l.failed {
		reasons = append(reasons, k)
	}
	sort.Strings(reasons)
	for _, k := range reasons {
		fmt.Printf("  failed: %-32s %d\n", k, l.failed[k])
	}
	for k, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s has no samples\n", name, k)
			os.Exit(1)
		}
	}
	attempted := l.attempted
	if attempted < 1 {
		attempted = 1
	}
	out, err := json.Marshal(result{Correct: failed == 0 && l.attempted > 0, Attempted: attempted, Failed: failed, Metrics: m})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding the result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
