package engine_test

// Faulted live installs: the control-plane fault classes (partial and
// delayed table installs) exercised against the sharded engine while it
// is checking packets. The partial install withholds a deterministic
// subset of the firewall's flow pairs at setup; a repair goroutine then
// installs half of them live, racing the replay — the control tables
// every shard reads must absorb concurrent installs without data races
// (this file runs under the CI race job), and the never-repaired pairs
// must keep raising reports.

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/faults"
)

// replaySwitchIDs mirrors the experiments replay fabric: leaves 1-2,
// spines 3-4.
var replaySwitchIDs = []uint32{1, 2, 3, 4}

func TestEngineFaultedLiveInstalls(t *testing.T) {
	const packets = 8000
	const seed = 11

	chks, err := experiments.CorpusCheckers()
	if err != nil {
		t.Fatalf("compiling corpus: %v", err)
	}
	pkts, pairs := experiments.CampusEnginePackets(packets, seed)

	// Partial install: withhold a deterministic ~20% of the firewall
	// pairs, then split the withheld set — half repaired live mid-replay
	// (the delayed install), half never installed (the lasting fault).
	withheld := faults.Withhold(faults.SubSeed(seed, "partial-install"), len(pairs), 0.2)
	var kept, repaired, broken [][2]uint32
	for i, p := range pairs {
		switch {
		case !withheld[i]:
			kept = append(kept, p)
		case len(repaired) <= len(broken):
			repaired = append(repaired, p)
		default:
			broken = append(broken, p)
		}
	}
	if len(repaired) == 0 || len(broken) == 0 {
		t.Fatalf("degenerate withhold split: %d repaired, %d broken (of %d pairs)",
			len(repaired), len(broken), len(pairs))
	}

	eng := engine.New(engine.Config{Shards: 4, Checkers: chks})
	if err := experiments.ConfigureReplayEngine(eng.Install, kept); err != nil {
		t.Fatalf("configuring engine: %v", err)
	}

	installErr := make(chan error, 1)
	go func() {
		seedFn := experiments.FirewallSeed(repaired)
		for _, id := range replaySwitchIDs {
			if err := eng.Install("stateful-firewall", id, seedFn); err != nil {
				installErr <- err
				return
			}
		}
		installErr <- nil
	}()

	for i := range pkts {
		eng.Submit(pkts[i])
	}
	if err := <-installErr; err != nil {
		t.Fatalf("live install during replay: %v", err)
	}
	counts := eng.Drain()

	if counts.Errors != 0 {
		t.Errorf("engine errors under faulted installs: %d", counts.Errors)
	}
	if counts.Packets != packets {
		t.Errorf("packets checked = %d, want %d", counts.Packets, packets)
	}
	if counts.Forwarded+counts.Rejected != counts.Packets {
		t.Errorf("forwarded (%d) + rejected (%d) != packets (%d)",
			counts.Forwarded, counts.Rejected, counts.Packets)
	}
	// The never-repaired flows violate the stateful firewall on every
	// packet; some of their traffic is guaranteed in an 8k replay.
	if counts.Reports == 0 {
		t.Errorf("no reports despite %d permanently withheld firewall pairs", len(broken))
	}
}
