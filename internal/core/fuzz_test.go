package core

import (
	"fmt"
	"testing"

	"mdworm/internal/collective"
	"mdworm/internal/engine"
	"mdworm/internal/faults"
	"mdworm/internal/flit"
	"mdworm/internal/routing"
)

// TestFuzzConfigurations sweeps randomized small configurations — topology
// shape, architecture, scheme, replication placement, up policy, traffic mix
// — and requires every run to drain completely with all operations
// delivered. This is the broad invariant net under the targeted tests.
func TestFuzzConfigurations(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz sweep skipped in -short mode")
	}
	rng := engine.NewRNG(0xF022)
	archs := []SwitchArch{CentralBuffer, InputBuffer}
	schemes := []collective.Scheme{
		collective.HardwareBitString, collective.HardwareMultiport,
		collective.SoftwareBinomial, collective.SoftwareSeparate,
	}
	policies := []routing.UpPolicy{routing.UpHash, routing.UpRandom, routing.UpAdaptive}

	for trial := 0; trial < 40; trial++ {
		cfg := DefaultConfig()
		cfg.Seed = rng.Uint64()
		cfg.Arch = archs[rng.Intn(len(archs))]
		cfg.Scheme = schemes[rng.Intn(len(schemes))]
		cfg.UpPolicy = policies[rng.Intn(len(policies))]
		cfg.ReplicateOnUpPath = rng.Intn(2) == 0
		cfg.CB.MulticastBypassSingle = rng.Intn(2) == 0
		// SyncReplication stays off: lock-step replication deadlocks by
		// design (experiment A10 demonstrates it on purpose).
		cfg.Arity = 2 + rng.Intn(3)  // 2..4
		cfg.Stages = 1 + rng.Intn(3) // 1..3
		cfg.LinkLatency = 1 + rng.Intn(2)
		cfg.NIC.SendOverhead = rng.Intn(100)
		cfg.NIC.RecvOverhead = rng.Intn(100)
		n := cfg.N()
		cfg.Traffic.MulticastFraction = float64(rng.Intn(11)) / 10
		if n > 2 {
			cfg.Traffic.Degree = 1 + rng.Intn(n-2)
		} else {
			cfg.Traffic.Degree = 1
			cfg.Traffic.MulticastFraction = 0
		}
		cfg.Traffic.UniPayloadFlits = 1 + rng.Intn(64)
		cfg.Traffic.McastPayloadFlits = 1 + rng.Intn(128)
		cfg.Traffic.OpRate = cfg.Traffic.RateForLoad(0.05 + 0.5*rng.Float64())
		cfg.WarmupCycles = 200
		cfg.MeasureCycles = 1500
		cfg.DrainCycles = 3_000_000
		cfg.WatchdogLimit = 100_000

		// Half the trials also carry a random recoverable fault plan:
		// permanent link-downs (drops are accounted, so done==gen still
		// holds) and bounded stuck/stall windows (traffic merely waits).
		if rng.Intn(2) == 0 {
			probe, err := New(cfg)
			if err != nil {
				t.Fatalf("trial %d: config rejected: %v", trial, err)
			}
			net := probe.Net()
			var plan faults.Plan
			for i, k := 0, 1+rng.Intn(3); i < k; i++ {
				at := int64(1 + rng.Intn(int(cfg.WarmupCycles+cfg.MeasureCycles)))
				sw := rng.Intn(len(net.Switches))
				switch rng.Intn(3) {
				case 0:
					plan.Events = append(plan.Events, faults.Event{Kind: faults.LinkDown,
						At: at, Switch: sw, Port: rng.Intn(net.Switches[sw].NumPorts())})
				case 1:
					plan.Events = append(plan.Events, faults.Event{Kind: faults.PortStuck,
						At: at, Duration: int64(1 + rng.Intn(2_000)),
						Switch: sw, Port: rng.Intn(net.Switches[sw].NumPorts())})
				case 2:
					plan.Events = append(plan.Events, faults.Event{Kind: faults.NICStall,
						At: at, Duration: int64(1 + rng.Intn(2_000)), Node: rng.Intn(net.N)})
				}
			}
			cfg.Faults = plan
		}

		name := fmt.Sprintf("trial%d/%v/%v/arity%d/stages%d/faults=%q",
			trial, cfg.Arch, cfg.Scheme, cfg.Arity, cfg.Stages, cfg.Faults.Spec())
		sim, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: config rejected: %v", name, err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !sim.Quiesced() {
			t.Fatalf("%s: network not drained", name)
		}
		done := res.Multicast.OpsCompleted + res.Unicast.OpsCompleted
		gen := res.Multicast.OpsGenerated + res.Unicast.OpsGenerated
		if done != gen {
			t.Fatalf("%s: %d of %d ops completed", name, done, gen)
		}
		if res.InvariantViolations != 0 {
			t.Fatalf("%s: %d invariant violations: %s",
				name, res.InvariantViolations, sim.Invariants().Summary())
		}
	}
}

// TestDeliveryExactness records every delivery and asserts each message
// reaches exactly its destination set, once.
func TestDeliveryExactness(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Traffic.MulticastFraction = 0.5
	cfg.Traffic.Degree = 8
	cfg.Traffic.OpRate = 0.001
	cfg.WarmupCycles = 0
	cfg.MeasureCycles = 3000
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Messages go back to the simulation's pool once delivered, so record
	// them by ID and copy their destinations at first delivery.
	got := map[uint64][]int{}
	destsOf := map[uint64][]int{}
	sim.deliverHook = func(m *flit.Message, proc int, now int64) {
		if _, seen := destsOf[m.ID]; !seen {
			destsOf[m.ID] = append([]int(nil), m.Dests...)
		}
		got[m.ID] = append(got[m.ID], proc)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	gen := res.Multicast.OpsGenerated + res.Unicast.OpsGenerated
	if gen == 0 {
		t.Fatal("no traffic generated")
	}
	for id, nodes := range got {
		dests := destsOf[id]
		want := map[int]bool{}
		for _, d := range dests {
			want[d] = true
		}
		if len(nodes) != len(dests) {
			t.Fatalf("message %d delivered %d times for %d destinations",
				id, len(nodes), len(dests))
		}
		seen := map[int]bool{}
		for _, p := range nodes {
			if !want[p] {
				t.Fatalf("message %d delivered to non-destination %d (dests %v)", id, p, dests)
			}
			if seen[p] {
				t.Fatalf("message %d delivered twice to %d", id, p)
			}
			seen[p] = true
		}
	}
}
