package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// metric is one named figure in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects named metrics; later writes of one name win.
type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// ledger counts the operations a run attempted and itemizes the ones
// an oracle rejected. Nothing is retried: a mismatch is recorded once,
// under a reason, and counts toward the failed share.
type ledger struct {
	attempted int64
	failed    map[string]int64
}

func newLedger() *ledger { return &ledger{failed: map[string]int64{}} }

// fail records n failed operations under reason (n <= 0 records nothing).
func (l *ledger) fail(reason string, n int64) {
	if n > 0 {
		l.failed[reason] += n
	}
}

// failDiff records the absolute difference of two counts as failures.
func (l *ledger) failDiff(reason string, got, want uint64) {
	if got > want {
		l.fail(reason, int64(got-want))
	} else {
		l.fail(reason, int64(want-got))
	}
}

// total is the failed count, capped at the attempted count so the
// failed share stays a share.
func (l *ledger) total() int64 {
	var n int64
	for _, v := range l.failed {
		n += v
	}
	if n > l.attempted {
		n = l.attempted
	}
	return n
}

// quantile is the q-quantile of xs by linear interpolation between
// closest ranks (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// durMs converts a duration to milliseconds.
func durMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// procCPU is the process's user plus system CPU time so far.
func procCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

// threadCPU reads the calling OS thread's CPU clock. With the client
// goroutine locked to its thread (runtime.LockOSThread), the difference
// of two readings around a synchronous, single-threaded call is the
// call's latency on an uncontended core: unlike wall time, it leaves
// out the time the host stole the vCPU from the VM.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("perfbench: reading the thread CPU clock: %v", errno))
	}
	return time.Duration(ts.Nano())
}

// peakRSSMB reads the process's resident high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// stealTime is the time the host has spent running something else
// while this VM's vCPUs were ready to run, per vCPU: the steal column of
// /proc/stat (in USER_HZ ticks, 100 a second) summed over vCPUs and
// divided by their number. It is 0 where the kernel reports no steal.
func stealTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	var ticks, cpus int64
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 9 || !strings.HasPrefix(f[0], "cpu") {
			continue
		}
		if f[0] == "cpu" {
			ticks, _ = strconv.ParseInt(f[8], 10, 64)
		} else {
			cpus++
		}
	}
	if cpus == 0 {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond / time.Duration(cpus)
}

// resetPeakRSS collects the heap, returns the freed memory to the OS and
// restarts the kernel's resident high-water mark (VmHWM) at the current
// resident size, so that peakRSSMB then reads the peak of what ran
// since. One set-up's peak moves by a quarter with where the
// collector's cycles happen to fall, so each replica is measured from
// this state and the run reports their median.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("restarting the peak RSS: %w", err)
	}
	return nil
}

// runtimeSnap is the Go runtime's cumulative GC and allocation state.
type runtimeSnap struct {
	gcCycles uint32
	mallocs  uint64
	bytes    uint64
	gcCPU    float64
}

var gcCPUSample = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

func snapRuntime() runtimeSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := runtimeSnap{gcCycles: ms.NumGC, mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
	metrics.Read(gcCPUSample)
	if gcCPUSample[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = gcCPUSample[0].Value.Float64()
	}
	return s
}

// window measures one or more timed stretches of a workload: wall
// time, process CPU and the runtime's GC and allocation deltas,
// accumulated over every begin/end pair.
type window struct {
	start   time.Time
	cpu0    time.Duration
	rt0     runtimeSnap
	wall    time.Duration
	cpu     time.Duration
	rtDelta runtimeSnap
}

func (w *window) begin() {
	w.rt0 = snapRuntime()
	w.cpu0 = procCPU()
	w.start = time.Now()
}

func (w *window) end() {
	w.wall += time.Since(w.start)
	w.cpu += procCPU() - w.cpu0
	rt := snapRuntime()
	w.rtDelta.gcCycles += rt.gcCycles - w.rt0.gcCycles
	w.rtDelta.mallocs += rt.mallocs - w.rt0.mallocs
	w.rtDelta.bytes += rt.bytes - w.rt0.bytes
	w.rtDelta.gcCPU += rt.gcCPU - w.rt0.gcCPU
}

// interleave runs a primary workload's untraced and traced windows as
// alternating slices of secs in total each, so warm-up and drift fall
// on both sides alike. step runs the workload until the deadline and
// returns the operations it completed. It reports the untraced
// window's GC and allocation figures and the tracing overhead: the
// traced rate's shortfall against the untraced rate.
func interleave(secs time.Duration, m metricSet, step func(deadline time.Time, traced bool) int64) (untraced, traced int64) {
	const slices = 4
	var u, t window
	for i := 0; i < 2*slices; i++ {
		w, on := &u, i%2 == 1
		if on {
			w = &t
		}
		w.begin()
		n := step(time.Now().Add(secs/slices), on)
		w.end()
		if on {
			traced += n
		} else {
			untraced += n
		}
	}
	u.runtimeMetrics(m, untraced)
	ur := float64(untraced) / u.wall.Seconds()
	tr := float64(traced) / t.wall.Seconds()
	m.set("trace.overhead_pct", 100*(ur-tr)/ur, "%")
	return untraced, traced
}

// runtimeMetrics reports the window's GC and allocation figures per
// operation (a packet or a route update).
func (w *window) runtimeMetrics(m metricSet, ops int64) {
	m.set("gc.cycles", float64(w.rtDelta.gcCycles), "count")
	share := 0.0
	if w.cpu > 0 {
		share = w.rtDelta.gcCPU / w.cpu.Seconds()
	}
	m.set("gc.cpu_share", share, "share")
	if ops > 0 {
		m.set("alloc.allocs_per_op", float64(w.rtDelta.mallocs)/float64(ops), "count")
		m.set("alloc.bytes_per_op", float64(w.rtDelta.bytes)/float64(ops), "B")
	}
}

// e2eSlices is how many equal stretches an untraced window is cut into.
// Each end-to-end timing is taken per stretch and reported as its
// slow-side quartile over the stretches (see fill).
const e2eSlices = 40

// slice is one stretch of an untraced window: when it began, its wall
// time, the operations it completed, the time they took (the summed
// operation times of a per-operation closed loop, or else the wall time
// less the steal), the process CPU it used, the time the host stole
// from each vCPU (see stealTime), and its latency samples (ms) until
// close summarizes them.
type slice struct {
	from     time.Time
	wall     time.Duration
	ops      int64
	dur      time.Duration
	cpu      time.Duration
	steal    time.Duration
	lat      []float64
	latN     int
	p50, p99 float64
}

// close summarizes the stretch's latency samples into latN, p50 and p99
// and hands back their buffer, emptied, for the next stretch.
func (s *slice) close() []float64 {
	s.latN = len(s.lat)
	if s.latN > 0 {
		s.p50, s.p99 = quantile(s.lat, 0.50), quantile(s.lat, 0.99)
	}
	buf := s.lat[:0]
	s.lat = nil
	return buf
}

// sliceAt returns the index of the stretch that was running at t, or -1
// when t falls outside the window.
func sliceAt(sl []slice, t time.Time) int {
	for i := len(sl) - 1; i >= 0; i-- {
		if t.Before(sl[i].from) {
			continue
		}
		if i == len(sl)-1 && t.After(sl[i].from.Add(sl[i].wall)) {
			return -1
		}
		return i
	}
	return -1
}

// warmup is the untimed stretch runSlices runs before the window: the
// first operations after set-up pay for page faults and lazily grown
// state (a campus-wire packet took up to 30 ms there).
const warmup = 500 * time.Millisecond

// runSlices runs the warm-up stretch, then cuts an untraced window of
// length d into e2eSlices stretches; it returns the stretches and the
// operations the warm-up completed. step runs the workload until the
// deadline and fills the stretch's operations, latency samples and, for
// a per-operation closed loop, the operations' summed time (left 0, the
// stretch's wall time less its steal is used). Each stretch is closed
// as it ends, so the latency buffer is reused and the benchmark's own
// memory does not grow with the run.
func runSlices(d time.Duration, step func(deadline time.Time, s *slice)) (sl []slice, warm int64) {
	var w slice
	step(time.Now().Add(warmup), &w)
	sl = make([]slice, e2eSlices)
	buf := w.lat[:0]
	start := time.Now()
	for i := range sl {
		s := &sl[i]
		s.from = time.Now()
		s.lat = buf
		cpu0, steal0 := procCPU(), stealTime()
		step(start.Add(d*time.Duration(i+1)/e2eSlices), s)
		s.wall = time.Since(s.from)
		s.cpu = procCPU() - cpu0
		s.steal = stealTime() - steal0
		if s.dur == 0 {
			s.dur = s.wall - s.steal
		}
		buf = s.close()
	}
	return sl, w.ops
}

// fill sets the end-to-end figures from the calmer half of the
// stretches, those in which the host stole the least time from the VM:
// each figure is its slow-side quartile over them, the rate three
// stretches in four reach and the CPU per operation and latency
// percentiles three stretches in four stay under. On a shared host the
// share of stretches that run unhindered changes from run to run, which
// moves a median or a best case; the slow-side quartile moved least
// across runs of one seed. Operations are counted over every stretch.
func (r *e2e) fill(sl []slice) {
	shares := make([]float64, len(sl))
	for i := range sl {
		s := &sl[i]
		if s.lat != nil {
			s.close()
		}
		r.ops += s.ops
		r.latN += s.latN
		shares[i] = float64(s.steal) / float64(s.wall)
	}
	cut := quantile(append([]float64(nil), shares...), 0.5)
	var rate, cpu, p50, p99 []float64
	for i := range sl {
		s := &sl[i]
		if shares[i] > cut {
			continue
		}
		if s.ops > 0 {
			rate = append(rate, float64(s.ops)/s.dur.Seconds())
			cpu = append(cpu, float64(s.cpu)/float64(s.ops))
		}
		if s.latN > 0 {
			p50 = append(p50, s.p50)
			p99 = append(p99, s.p99)
		}
	}
	r.rate, r.cpuNsPerOp = quantile(rate, 0.25), quantile(cpu, 0.75)
	r.latP50, r.latP99 = quantile(p50, 0.75), quantile(p99, 0.75)
}

// settle collects set-up garbage before a timed window, so the window's
// first GC cycle does not pay for work done outside it.
func settle() { runtime.GC() }
