package engine

import "repro/internal/pipeline"

// Replica returns shard si's replica of the named checker's state on
// switchID, or nil when the shard has not created one. It reads the
// shard's private cache unsynchronized: call it after Drain.
func (e *Engine) Replica(si int, checker string, switchID uint32) *pipeline.State {
	for i, c := range e.cfg.Checkers {
		if c.Name == checker {
			return e.shards[si].states[i][switchID]
		}
	}
	return nil
}
