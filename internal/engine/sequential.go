package engine

import (
	"repro/internal/bytecode"
	"repro/internal/pipeline"
)

// Sequential executes the exact per-packet code path the sharded
// workers run, inline on the caller's goroutine against a single
// (unsharded) state set. It is the ground-truth reference the parallel
// engine is differentially tested against — the same role the eval
// interpreter plays for the compiled pipeline.
type Sequential struct {
	cfg Config
	s   *shard
}

// NewSequential builds the single-state reference executor. Shards,
// BatchSize and QueueDepth in cfg are ignored.
func NewSequential(cfg Config) *Sequential {
	cfg.Shards = 1
	return &Sequential{cfg: cfg, s: newShard(0, &cfg, newControlTables(cfg.Checkers))}
}

// Install applies fn to the named checker's state for switchID and
// rebuilds the snapshots of the tables fn wrote (see Engine.Install).
func (q *Sequential) Install(checker string, switchID uint32, fn func(*pipeline.State) error) error {
	return q.s.ctl.install(checker, switchID, fn)
}

// Warm eagerly rebuilds the lock-free table snapshots of every state
// created so far (see Engine.Warm).
func (q *Sequential) Warm() { q.s.ctl.warm() }

// Process runs all checkers over one packet.
func (q *Sequential) Process(p Packet) { q.s.process(&p) }

// ProcessBatch runs all checkers over a batch of packets through the
// same path the sharded workers use: the batched bytecode-VM path when
// every checker qualifies (see batch.go), otherwise the per-packet
// loop.
func (q *Sequential) ProcessBatch(pkts []Packet) {
	if q.s.batchVM {
		q.s.processBatch(pkts)
		return
	}
	for i := range pkts {
		q.s.process(&pkts[i])
	}
}

// Counts returns the aggregate outcome so far.
func (q *Sequential) Counts() Counts {
	c := q.s.counts
	c.PerChecker = make([]CheckerCounts, len(q.cfg.Checkers))
	for i, ck := range q.cfg.Checkers {
		c.PerChecker[i] = q.s.perChecker[i]
		c.PerChecker[i].Name = ck.Name
	}
	return c
}

// Reports returns the digests collected so far (requires KeepReports).
func (q *Sequential) Reports() []Report { return q.s.reports }

// VMContexts invokes f on each persistent batch-VM context and its
// program, in checker order; a no-op when the batched path is
// inactive. This exists for the arena-aliasing suite, which
// deliberately poisons the contexts between batches to prove no
// scratch value survives into the next packet's outcome.
func (q *Sequential) VMContexts(f func(*bytecode.Prog, *bytecode.Ctx)) {
	for i, c := range q.s.vmCtxs {
		f(q.s.vmProgs[i], c)
	}
}
