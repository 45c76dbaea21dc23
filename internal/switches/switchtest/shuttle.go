package switchtest

import (
	"fmt"
	"testing"

	"mdworm/internal/bitset"
	"mdworm/internal/engine"
	"mdworm/internal/flit"
	"mdworm/internal/routing"
	"mdworm/internal/switches"
	"mdworm/internal/topology"
)

// Shuttle wires the single switch of a one-stage 4-ary tree (processors
// 0..3, one per port) to a source on processor 0's port and a sink on every
// port, neither of which allocates: the source draws its worms from Worms,
// and the switch and the sinks release them at their tails. It sends one
// worm at a time and lets the switch drain between worms, so a test can
// measure what the switch itself allocates per worm in steady state.
type Shuttle struct {
	Sim    *engine.Simulation
	Net    *topology.Network
	Node   *topology.Switch
	Router *routing.Router
	Ports  []switches.PortIO
	IDs    engine.IDGen
	Worms  flit.WormArena

	src *shuttleSource
}

// NewShuttle builds the fabric around the switch under test, which the
// caller constructs over Ports (with Node, Router, IDs, Worms and Sim) and
// registers with Sim.AddComponent. inCredits is the switch's input buffer
// size.
func NewShuttle(inCredits int) *Shuttle {
	net, err := topology.NewKaryTree(4, 1)
	if err != nil {
		panic(err)
	}
	sh := &Shuttle{
		Sim:    engine.NewSimulation(10_000),
		Net:    net,
		Node:   net.Switches[0],
		Router: &routing.Router{Net: net, ReplicateOnUpPath: true, Policy: routing.UpHash},
	}
	sh.Sim.Invariants().Strict = true
	sh.Ports = make([]switches.PortIO, sh.Node.NumPorts())
	for p := range sh.Ports {
		in := sh.Sim.NewLink(fmt.Sprintf("src%d->sw.p%d", p, p), 1, inCredits)
		out := sh.Sim.NewLink(fmt.Sprintf("sw.p%d->snk%d", p, p), 1, 8)
		sh.Ports[p] = switches.PortIO{In: in, Out: out}
		sh.Sim.AddComponent(&shuttleSink{link: out, worms: &sh.Worms})
	}
	sh.src = &shuttleSource{link: sh.Ports[0].In}
	sh.Sim.AddComponent(sh.src)
	return sh
}

// AllocsPerWorm sends worms from processor 0 to dests, each once the
// previous one has drained, and returns the heap allocations per worm that
// testing.AllocsPerRun measures over runs worms after a warm-up. A worm
// with several destinations, or any worm when multicast is set, is a
// multidestination worm. Every worm carries the same message and set.
func (sh *Shuttle) AllocsPerWorm(t testing.TB, dests []int, multicast bool, runs int) float64 {
	t.Helper()
	msg := &flit.Message{ID: sh.IDs.Next(), Dests: dests, PayloadFlits: 16, HeaderFlits: 1,
		Class: flit.ClassUnicast}
	if multicast || len(dests) > 1 {
		msg.Class = flit.ClassMulticast
	}
	set := bitset.FromSlice(sh.Net.N, dests)
	sent := 0
	send := func() {
		w := sh.Worms.New()
		*w = flit.Worm{ID: sh.IDs.Next(), Msg: msg, Dests: set, GoingUp: true}
		sh.src.worm, sh.src.next = w, 0
		sent++
		for limit := sh.Sim.Now + 1_000; !sh.Sim.Quiesced(); sh.Sim.Step() {
			if sh.Sim.Now >= limit {
				t.Fatalf("switchtest: worm %d did not drain by cycle %d", sent, limit)
			}
		}
	}
	for i := 0; i < 8; i++ {
		send()
	}
	return testing.AllocsPerRun(runs, send)
}

// shuttleSource sends one worm back to back as credits allow.
type shuttleSource struct {
	link *engine.Link
	worm *flit.Worm
	next int
}

func (s *shuttleSource) Name() string   { return "source" }
func (s *shuttleSource) Quiesced() bool { return s.worm == nil }
func (s *shuttleSource) Step(now int64) {
	if s.worm == nil || !s.link.TrySend(now, flit.Ref{W: s.worm, Idx: s.next}) {
		return
	}
	if s.next++; s.next == s.worm.Len() {
		s.worm = nil
	}
}

// shuttleSink consumes one flit per cycle and releases each worm at its
// tail.
type shuttleSink struct {
	link  *engine.Link
	worms *flit.WormArena
}

func (s *shuttleSink) Name() string   { return "sink" }
func (s *shuttleSink) Quiesced() bool { return true }
func (s *shuttleSink) Step(now int64) {
	r, ok := s.link.Take(now)
	if !ok {
		return
	}
	s.link.ReturnCredit(now, 1)
	if r.Tail() {
		s.worms.Release(r.W)
	}
}
