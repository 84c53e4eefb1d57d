package main

import (
	"sync"
	"time"
)

// layer names one module of the program (or the Go runtime) that a
// span is attributed to.
type layer uint8

const (
	lPipeline layer = iota
	lCompiler
	lBytecode
	lEngine
	lReportbus
	lDataplane
	lNetsim
	lControlplane
	lFleet
	lPcapio
	lAtoms
	nLayers
)

var layerNames = [nLayers]string{
	lPipeline:     "pipeline",
	lCompiler:     "compiler",
	lBytecode:     "bytecode",
	lEngine:       "engine",
	lReportbus:    "reportbus",
	lDataplane:    "dataplane",
	lNetsim:       "netsim",
	lControlplane: "controlplane",
	lFleet:        "fleet",
	lPcapio:       "pcapio",
	lAtoms:        "atoms",
}

// span is one call from the benchmark into a layer: start and end in
// nanoseconds since the tracer's base, and the span that was open on
// the client goroutine when it began (-1 for a root span).
type span struct {
	start, end int64
	parent     int32
	layer      layer
}

// maxSpans bounds the in-memory span log (24 bytes a span). Spans past
// it are counted but not kept.
const maxSpans = 2 << 20

// tracer records spans around the benchmark's calls into each layer
// and keeps them in memory until the run ends. A nil tracer records
// nothing, so the untraced run pays one branch per boundary. begin/end nest on the client goroutine; add records a
// finished root span from any goroutine.
type tracer struct {
	base time.Time

	mu      sync.Mutex
	spans   []span
	stack   []int32
	dropped int
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens a span on the client goroutine; end closes it.
func (t *tracer) begin(l layer) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{start: t.now(), parent: parent, layer: l})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].end = t.now()
	if n := len(t.stack); n > 0 && t.stack[n-1] == id {
		t.stack = t.stack[:n-1]
	}
}

// do runs f inside a span and returns its wall time (measured whether
// or not tracing is on).
func (t *tracer) do(l layer, f func()) time.Duration {
	id := t.begin(l)
	start := time.Now()
	f()
	d := time.Since(start)
	t.end(id)
	return d
}

// add records a finished root span observed on another goroutine.
func (t *tracer) add(l layer, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{
		start: int64(start.Sub(t.base)), end: int64(end.Sub(t.base)),
		parent: -1, layer: l,
	})
}

// selfTimes derives each layer's self time: a span's duration minus
// the part of it its child spans cover. Children are always logged
// after their parent, so one reverse pass settles every span.
func (t *tracer) selfTimes() [nLayers]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out [nLayers]time.Duration
	child := make([]int64, len(t.spans))
	for i := len(t.spans) - 1; i >= 0; i-- {
		s := t.spans[i]
		if s.end < s.start {
			continue // never closed
		}
		dur := s.end - s.start
		out[s.layer] += time.Duration(dur - child[i])
		if s.parent >= 0 {
			child[s.parent] += dur
		}
	}
	return out
}

// report adds the per-layer self times and the span log's size.
func (t *tracer) report(m metricSet) {
	self := t.selfTimes()
	for l, d := range self {
		m.set(layerNames[l]+".self_ms", durMs(d), "ms")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	m.set("trace.spans", float64(len(t.spans)+t.dropped), "count")
}
