package switches_test

import (
	"bytes"
	"crypto/sha256"
	"strings"
	"testing"

	"mdworm/internal/ckpt"
	"mdworm/internal/engine"
	"mdworm/internal/flit"
	"mdworm/internal/routing"
	"mdworm/internal/switches"
	"mdworm/internal/switches/centralbuf"
	"mdworm/internal/switches/inputbuf"
	"mdworm/internal/switches/switchtest"
	"mdworm/internal/topology"
)

// model is one switch organization under the conformance suite: how to
// build a switch over given links, the input buffer size its links must
// grant as credits, and how to read its common counters.
type model struct {
	name     string
	credits  int
	build    func(node *topology.Switch, r *routing.Router, ports []switches.PortIO, ids *engine.IDGen, worms *flit.WormArena, sim *engine.Simulation) switches.Switch
	counters func(switches.Switch) switches.Stats
}

// models lists every switch organization. A new one joins the table and
// must pass every case.
func models() []model {
	cb := centralbuf.DefaultConfig()
	cb.MaxPacketFlits = 65
	cb.Chunks = 32 // 16 per direction pool
	ib := inputbuf.DefaultConfig()
	ib.MaxPacketFlits = 65
	ib.BufFlits = 80
	return []model{
		{
			name:    "central-buffer",
			credits: cb.InFIFOFlits,
			build: func(node *topology.Switch, r *routing.Router, ports []switches.PortIO, ids *engine.IDGen, worms *flit.WormArena, sim *engine.Simulation) switches.Switch {
				return centralbuf.New(cb, node, r, ports, engine.NewRNG(1), ids, worms, sim)
			},
			counters: func(sw switches.Switch) switches.Stats { return sw.(*centralbuf.Switch).Stats().Stats },
		},
		{
			name:    "input-buffer",
			credits: ib.BufFlits,
			build: func(node *topology.Switch, r *routing.Router, ports []switches.PortIO, ids *engine.IDGen, worms *flit.WormArena, sim *engine.Simulation) switches.Switch {
				return inputbuf.New(ib, node, r, ports, engine.NewRNG(1), ids, worms, sim)
			},
			counters: func(sw switches.Switch) switches.Stats { return sw.(*inputbuf.Switch).Stats().Stats },
		},
	}
}

// TestConformance runs every case of the switch contract against every
// organization, through the switches.Switch interface only.
func TestConformance(t *testing.T) {
	for _, m := range models() {
		t.Run(m.name, func(t *testing.T) {
			t.Run("traffic", func(t *testing.T) { testTraffic(t, m) })
			t.Run("many-worms-conservation", func(t *testing.T) { testManyWormsConservation(t, m) })
			t.Run("barrier-combining", func(t *testing.T) { testBarrierCombining(t, m) })
		})
	}
}

// testTraffic drives switchtest's seeded random traffic (contention,
// replication, barrier rounds, then dead and stuck output links) through
// one switch twice and checks, after every cycle:
//
//   - every 61st cycle, that a twin restored from the switch's checkpoint
//     encodes the same bytes, and that both runs encode the same state
//     there (determinism);
//   - while the switch is quiesced and its input links are empty, that a
//     restored twin encodes the same bytes after one Step: the kernel puts
//     such a switch to sleep, so stepping it must be a no-op;
//   - while it is not quiesced, that Dump names the switch.
//
// The run uses strict invariants, so the first accounting violation fails
// it. The faults must drop destinations and make an input sink a worm, and
// every destination queued must be delivered or reported dropped. Barriers
// must complete, and the switch must drain to an empty occupancy.
func testTraffic(t *testing.T, m model) {
	first := trafficRun(t, m)
	second := trafficRun(t, m)
	if len(first) != len(second) {
		t.Fatalf("runs checked %d and %d cycles", len(first), len(second))
	}
	for k := range first {
		if first[k] != second[k] {
			t.Fatalf("runs of one seed encode different state at cycle %d", 61*k)
		}
	}
}

// trafficRun makes one checked traffic run and returns a digest of the
// switch state at every 61st cycle.
func trafficRun(t *testing.T, m model) [][sha256.Size]byte {
	tr := switchtest.New(11, 4, m.credits, 20_000)
	dropped := 0
	tr.Router.OnDrop = func(_ *flit.Message, n int, _ int64) { dropped += n }
	sw := m.build(tr.Node, tr.Router, tr.Ports, &tr.IDs, &tr.Worms, tr.Sim)
	tr.Sim.AddComponent(sw)
	var digests [][sha256.Size]byte
	sank, noops := false, 0
	tr.Run(t, sw, 30_000, func(now int64) {
		if now%61 == 0 {
			state := encode(sw)
			digests = append(digests, sha256.Sum256(state))
			if got := encode(restore(t, m, sw, tr)); !bytes.Equal(got, state) {
				t.Fatalf("cycle %d: a restored twin encodes different state", now)
			}
		}
		if !sw.Quiesced() {
			d := sw.Dump()
			if !strings.Contains(d, sw.Name()) {
				t.Fatalf("cycle %d: dump does not name %s:\n%s", now, sw.Name(), d)
			}
			sank = sank || strings.Contains(d, "mode=sink")
			return
		}
		for _, p := range tr.Ports {
			if p.In.InFlight() != 0 {
				return
			}
		}
		state := encode(sw)
		twin := restore(t, m, sw, tr)
		twin.Step(now + 1)
		if !bytes.Equal(encode(twin), state) {
			t.Fatalf("cycle %d: stepping a quiesced switch changed its state", now)
		}
		noops++
	})
	t.Logf("%d round trips, %d quiesced steps, %d destinations dropped, %d barriers",
		len(digests), noops, dropped, tr.Barriers)
	if n := tr.Sim.Invariants().Total(); n != 0 {
		t.Fatalf("%d invariant violations", n)
	}
	if dropped == 0 || !sank {
		t.Fatalf("faults degraded nothing: %d destinations dropped, an input sank a worm: %v", dropped, sank)
	}
	if tr.DestsDelivered+dropped != tr.DestsQueued {
		t.Fatalf("%d destinations queued, %d delivered and %d reported dropped",
			tr.DestsQueued, tr.DestsDelivered, dropped)
	}
	if tr.Barriers == 0 || m.counters(sw).TokensCombined == 0 {
		t.Fatalf("no barrier completed (%d rounds, %+v)", tr.Barriers, m.counters(sw))
	}
	if o := sw.Occupancy(); o != (switches.Occupancy{MaxBranchRefs: o.MaxBranchRefs}) {
		t.Fatalf("drained switch reports occupancy %+v", o)
	}
	return digests
}

// encode returns the switch's checkpoint state.
func encode(sw switches.Switch) []byte {
	g := ckpt.NewGraph()
	sw.CollectState(g)
	var e ckpt.Enc
	sw.EncodeState(&e, g)
	return e.Bytes()
}

// restore round-trips the switch through its checkpoint codec into a twin
// built on idle links of the same fabric.
func restore(t *testing.T, m model, sw switches.Switch, tr *switchtest.Traffic) switches.Switch {
	t.Helper()
	g := ckpt.NewGraph()
	sw.CollectState(g)
	var graph, state ckpt.Enc
	g.Encode(&graph)
	sw.EncodeState(&state, g)
	ports := make([]switches.PortIO, len(tr.Ports))
	for p := range ports {
		ports[p] = switches.PortIO{In: engine.NewLink("in", 1, m.credits), Out: engine.NewLink("out", 1, 8)}
	}
	twin := m.build(tr.Node, tr.Router, ports, &tr.IDs, &tr.Worms, tr.Sim)
	gd := ckpt.NewDec(graph.Bytes())
	g2 := ckpt.DecodeGraph(gd)
	d := ckpt.NewDec(state.Bytes())
	twin.DecodeState(d, g2)
	if gd.Err() != nil || d.Err() != nil || d.Remaining() != 0 {
		t.Fatalf("restore: graph %v, state %v, %d bytes left", gd.Err(), d.Err(), d.Remaining())
	}
	return twin
}

// testManyWormsConservation floods all inputs of switchtest's one-stage
// fabric with a mix of unicasts and multicasts and checks flit
// conservation.
func testManyWormsConservation(t *testing.T, m model) {
	h := switchtest.NewShuttle(m.credits)
	sw := m.build(h.Node, h.Router, h.Ports, &h.IDs, nil, h.Sim)
	h.Sim.AddComponent(sw)
	total := 0
	rng := engine.NewRNG(5)
	for i := 0; i < 12; i++ {
		from := i % 4
		var dests []int
		if i%3 == 0 {
			for d := 0; d < 4; d++ {
				if d != from {
					dests = append(dests, d)
				}
			}
		} else {
			dests = []int{(from + 1 + rng.Intn(3)) % 4}
			if dests[0] == from {
				dests[0] = (from + 1) % 4
			}
		}
		w := h.Inject(from, dests, 16+rng.Intn(32), int64(i*3))
		total += w.Len() * len(dests)
	}
	h.Run(t, sw, 20_000)
	got := 0
	for _, s := range h.Sinks {
		got += len(s.Got)
	}
	if got != total {
		t.Fatalf("delivered %d flits, want %d", got, total)
	}
	if !sw.Quiesced() {
		t.Fatal("switch holds state after drain")
	}
}

// testBarrierCombining drives raw tokens through one switch, the root of
// its own spanning tree: tokens from every host port, arriving staggered,
// combine into a release broadcast that starts only once the last token is
// in.
func testBarrierCombining(t *testing.T, m model) {
	h := switchtest.NewShuttle(m.credits)
	sw := m.build(h.Node, h.Router, h.Ports, &h.IDs, nil, h.Sim)
	h.Sim.AddComponent(sw)
	op := flit.NewOp(99, flit.ClassBarrier, 0, 4, 0)
	const last = 3 * 7
	for p := 0; p < 4; p++ {
		w := h.Inject(p, []int{p}, 0, int64(p*7))
		w.Msg.Class, w.Msg.Op = flit.ClassBarrier, op
	}
	h.Run(t, sw, 2000)
	if st := m.counters(sw); st.TokensCombined != 4 || st.TokensEmitted != 4 {
		t.Fatalf("combined %d and emitted %d tokens, want 4 and 4 releases", st.TokensCombined, st.TokensEmitted)
	}
	// Every host receives exactly one single-flit release.
	for p, s := range h.Sinks[:h.Net.N] {
		got := 0
		for _, r := range s.Got {
			if r.W.Msg.Class != flit.ClassBarrier {
				continue
			}
			got++
			if at := s.TailAt[r.W.Msg]; at <= last {
				t.Fatalf("host %d released at cycle %d, before the last token was sent", p, at)
			}
		}
		if got != 1 {
			t.Fatalf("host %d received %d release tokens", p, got)
		}
	}
	if !sw.Quiesced() {
		t.Fatal("combining state not cleared")
	}
}
