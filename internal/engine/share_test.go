package engine_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/pipeline"
)

// TestShardsShareControlTables pins the engine's state split: each
// (checker, switch) has one control-table set that every shard's
// replica reads, written by one call of the installer, while registers
// stay private to each shard. The load-balance checker's port-load
// sensors show it end to end: each shard's sensor holds exactly the
// load of the packets that shard checked. An Install also reaches the
// replicas shards created on the data path before it.
func TestShardsShareControlTables(t *testing.T) {
	const packets, seed = 3000, 5
	chks, err := experiments.CorpusCheckers()
	if err != nil {
		t.Fatal(err)
	}
	pkts, pairs := experiments.CampusEnginePackets(packets, seed)

	for _, shards := range []int{1, 2, 4, 8} {
		eng := engine.New(engine.Config{Shards: shards, Checkers: chks})
		type pair struct {
			checker string
			sw      uint32
		}
		installed := map[pair]*pipeline.State{}
		install := func(checker string, sw uint32, fn func(*pipeline.State) error) error {
			calls := 0
			err := eng.Install(checker, sw, func(st *pipeline.State) error {
				calls++
				if prev, ok := installed[pair{checker, sw}]; ok && prev != st {
					t.Errorf("shards=%d: installs into %s on switch %d reach different states", shards, checker, sw)
				}
				installed[pair{checker, sw}] = st
				return fn(st)
			})
			if calls != 1 {
				t.Errorf("shards=%d: Install(%s, %d) ran its installer %d times, want 1", shards, checker, sw, calls)
			}
			return err
		}
		if err := experiments.ConfigureReplayEngine(install, pairs); err != nil {
			t.Fatal(err)
		}
		if len(installed) == 0 {
			t.Fatal("the replay configuration installed nothing")
		}
		eng.Warm()
		for i := range pkts {
			eng.Submit(pkts[i])
		}
		eng.Drain()

		replicas := 0
		for _, c := range chks {
			for _, sw := range []uint32{1, 2, 3, 4} {
				ctl := installed[pair{c.Name, sw}]
				var seen []*pipeline.State
				for si := 0; si < shards; si++ {
					r := eng.Replica(si, c.Name, sw)
					if r == nil {
						continue // this shard's flows never crossed sw
					}
					replicas++
					if ctl == nil {
						ctl = r // no installs: the shards created the tables on the data path
					}
					for j, ts := range c.RT.Prog.Tables {
						if r.Tables[ts.Name] != ctl.Tables[ts.Name] || r.TableAt(j, ts.Name) != ctl.TableAt(j, ts.Name) {
							t.Errorf("shards=%d: shard %d reads a private copy of %s table %s on switch %d",
								shards, si, c.Name, ts.Name, sw)
						}
					}
					for j, rs := range c.RT.Prog.Registers {
						for _, o := range seen {
							if r.RegisterAt(j, rs.Name) == o.RegisterAt(j, rs.Name) {
								t.Errorf("shards=%d: shard %d shares %s register %s on switch %d with another shard",
									shards, si, c.Name, rs.Name, sw)
							}
						}
					}
					seen = append(seen, r)
				}
			}
		}
		// Every shard checks traffic, and every packet crosses switches 1
		// and 2, so each shard holds at least two replicas per checker.
		if replicas < shards*len(chks)*2 {
			t.Errorf("shards=%d: only %d shard replicas exist", shards, replicas)
		}

		// Each shard's load-balance sensors equal those of a sequential
		// run over only the packets that shard checked.
		var total uint64
		for si := 0; si < shards; si++ {
			var own []engine.Packet
			for _, p := range pkts {
				if eng.ShardOf(p.Key) == si {
					own = append(own, p)
				}
			}
			want := sequentialLoads(t, chks, pairs, own)
			for _, reg := range []string{"left_load", "right_load"} {
				var got uint64
				if r := eng.Replica(si, "load-balance", 1); r != nil {
					got = r.Registers[reg].Read(0)
				}
				if got != want[reg] {
					t.Errorf("shards=%d: shard %d %s = %d, a sequential run over its %d packets gives %d",
						shards, si, reg, got, len(own), want[reg])
				}
				total += got
			}
		}
		if total == 0 {
			t.Errorf("shards=%d: the replay put no load on switch 1's uplinks", shards)
		}

		t.Run(fmt.Sprintf("data-path replica/shards=%d", shards), func(t *testing.T) {
			checkDataPathReplicaInstall(t, chks, shards)
		})
	}
}

// sequentialLoads runs pkts through the sequential reference and
// returns its load-balance sensors on switch 1.
func sequentialLoads(t *testing.T, chks []engine.Checker, pairs [][2]uint32, pkts []engine.Packet) map[string]uint64 {
	t.Helper()
	seq := engine.NewSequential(engine.Config{Checkers: chks})
	if err := experiments.ConfigureReplayEngine(seq.Install, pairs); err != nil {
		t.Fatal(err)
	}
	seq.ProcessBatch(pkts)
	loads := map[string]uint64{}
	err := seq.Install("load-balance", 1, func(st *pipeline.State) error {
		for _, reg := range []string{"left_load", "right_load"} {
			loads[reg] = st.Registers[reg].Read(0)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return loads
}

// checkDataPathReplicaInstall: a shard that meets a switch nobody
// installed creates its replica on the data path, and a later Install
// on that switch must still reach it — once, through the tables every
// shard's replica shares.
func checkDataPathReplicaInstall(t *testing.T, chks []engine.Checker, shards int) {
	const unconfigured = 99
	eng := engine.New(engine.Config{Shards: shards, Checkers: chks})
	pkts, pairs := experiments.CampusEnginePackets(400, 3)
	hops := []engine.Hop{{SwitchID: unconfigured, InPort: 3, OutPort: 1}}
	for i := range pkts {
		pkts[i].Hops = hops
		eng.Submit(pkts[i])
	}
	counts := eng.Drain()
	if counts.Rejected == 0 {
		t.Fatal("the unconfigured switch rejected nothing; its firewall cannot have been consulted")
	}

	var installed *pipeline.State
	calls := 0
	err := eng.Install("stateful-firewall", unconfigured, func(st *pipeline.State) error {
		calls++
		installed = st
		return experiments.FirewallSeed(pairs[:1])(st)
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("Install ran its installer %d times, want 1", calls)
	}
	for si := 0; si < shards; si++ {
		r := eng.Replica(si, "stateful-firewall", unconfigured)
		if r == nil {
			t.Fatalf("shard %d created no replica for switch %d on the data path", si, unconfigured)
		}
		if r.Tables["allowed"] != installed.Tables["allowed"] {
			t.Errorf("shard %d's data-path replica does not read the installed table", si)
		}
		if n := r.Tables["allowed"].Len(); n != 2 {
			t.Errorf("shard %d's replica sees %d allowed entries, want 2", si, n)
		}
	}
}

// TestInstallLeavesTablesWarm: Install rebuilds the read snapshot of
// the tables its installer wrote before it returns, so the first
// lookup after a live install finds one. Rebuilding the 16,000-entry
// table allocates megabytes and a snapshot hit nothing. A write made
// outside Install leaves the rebuild to the first reader, which shows
// the measurement can see one.
func TestInstallLeavesTablesWarm(t *testing.T) {
	const noBuild, build = 64 << 10, 512 << 10 // bytes
	chks, err := experiments.CorpusCheckers()
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Config{Shards: 2, Checkers: chks})
	defer eng.Drain()
	pairs := make([][2]uint32, 8000)
	for i := range pairs {
		pairs[i] = [2]uint32{0x0a000000 + uint32(i), 0x0b000000 + uint32(i)}
	}
	var tbl *pipeline.Table
	err = eng.Install("stateful-firewall", 1, func(st *pipeline.State) error {
		tbl = st.Tables["allowed"]
		return experiments.FirewallSeed(pairs)(st)
	})
	if err != nil {
		t.Fatal(err)
	}
	key := pipeline.PackedKey{uint64(pairs[0][0]), uint64(pairs[0][1])}
	if n := lookupAllocBytes(t, tbl, key); n > noBuild {
		t.Errorf("the first lookup after Install allocated %d bytes: Install left no read snapshot", n)
	}
	direct := pipeline.Entry{
		Keys:   []pipeline.KeyMatch{pipeline.ExactKey(5), pipeline.ExactKey(6)},
		Action: []pipeline.Value{pipeline.BoolV(true)},
	}
	if err := tbl.Insert(direct); err != nil {
		t.Fatal(err)
	}
	if n := lookupAllocBytes(t, tbl, key); n < build {
		t.Errorf("a lookup after a direct insert allocated only %d bytes: the measurement cannot see a snapshot rebuild", n)
	}
}

// lookupAllocBytes looks key up in tbl, requires a hit, and returns
// the heap bytes allocated meanwhile.
func lookupAllocBytes(t *testing.T, tbl *pipeline.Table, key pipeline.PackedKey) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, ok := tbl.LookupPacked(key)
	runtime.ReadMemStats(&after)
	if !ok {
		t.Fatalf("no entry for %v", key)
	}
	return after.TotalAlloc - before.TotalAlloc
}
