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
// 0..3, one per down port) to scripted sources and to a sink on every port,
// for tests that follow individual worms. Inject scripts worms from a given
// cycle on; the sinks take one flit per cycle and record what
// they take (Sinks). Those worms are not pooled: the test builds the switch
// with a nil worm pool and keeps every worm it injects.
//
// AllocsPerWorm instead measures what the switch itself allocates per worm
// in steady state: the switch is built over Worms, and the sinks release
// each worm at its tail instead of recording it.
type Shuttle struct {
	Sim    *engine.Simulation
	Net    *topology.Network
	Node   *topology.Switch
	Router *routing.Router
	Ports  []switches.PortIO
	IDs    engine.IDGen
	Worms  flit.WormArena
	Sinks  []*Sink

	src *source
}

// NewShuttle builds the fabric around the switch under test, which the
// caller constructs over Ports (with Node, Router, IDs, Sim and, to measure
// allocations, Worms) and registers with Sim.AddComponent before injecting
// anything. inCredits is the switch's input buffer size. Invariants are
// strict.
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
		snk := &Sink{link: out, TailAt: map[*flit.Message]int64{}}
		sh.Sinks = append(sh.Sinks, snk)
		sh.Sim.AddComponent(snk)
	}
	sh.src = &source{link: sh.Ports[0].In}
	sh.Sim.AddComponent(sh.src)
	return sh
}

// Inject sends a worm from the processor on port from to dests, from cycle
// startAt on. A worm with several destinations is a multidestination worm.
func (sh *Shuttle) Inject(from int, dests []int, payload int, startAt int64) *flit.Worm {
	msg := &flit.Message{
		ID:           sh.IDs.Next(),
		Src:          from,
		Dests:        dests,
		PayloadFlits: payload,
		HeaderFlits:  1,
		Class:        flit.ClassUnicast,
	}
	if len(dests) > 1 {
		msg.Class = flit.ClassMulticast
	}
	w := &flit.Worm{ID: sh.IDs.Next(), Msg: msg, Dests: bitset.FromSlice(sh.Net.N, dests), GoingUp: true}
	sh.Sim.AddComponent(&source{link: sh.Ports[from].In, queue: []*flit.Worm{w}, from: startAt})
	return w
}

// Run steps until the fabric drains, failing the test with the dump of sw,
// the switch under test, if it does not within maxCycles.
func (sh *Shuttle) Run(t testing.TB, sw switches.Switch, maxCycles int64) {
	t.Helper()
	ok, err := sh.Sim.Drain(maxCycles)
	if err != nil {
		t.Fatalf("drain: %v\n%s", err, sw.Dump())
	}
	if !ok {
		t.Fatalf("did not drain in %d cycles\n%s", maxCycles, sw.Dump())
	}
}

// ExpectCopy fails the test unless the sink on port received exactly one
// complete copy of msg, in order.
func (sh *Shuttle) ExpectCopy(t testing.TB, port int, msg *flit.Message) {
	t.Helper()
	var flits []flit.Ref
	for _, r := range sh.Sinks[port].Got {
		if r.W.Msg == msg {
			flits = append(flits, r)
		}
	}
	if len(flits) != msg.Len() {
		t.Fatalf("port %d got %d flits of msg %d, want %d", port, len(flits), msg.ID, msg.Len())
	}
	for i, r := range flits {
		if r.Idx != i {
			t.Fatalf("port %d msg %d: flit %d out of order (idx %d)", port, msg.ID, i, r.Idx)
		}
	}
}

// AllocsPerWorm sends worms from processor 0 to dests, each once the
// previous one has drained, and returns the heap allocations per worm that
// testing.AllocsPerRun measures over runs worms after a warm-up. A worm
// with several destinations, or any worm when multicast is set, is a
// multidestination worm. Every worm carries the same message and set.
func (sh *Shuttle) AllocsPerWorm(t testing.TB, dests []int, multicast bool, runs int) float64 {
	t.Helper()
	for _, s := range sh.Sinks {
		s.release = &sh.Worms
	}
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
		sh.src.queue = append(sh.src.queue, w)
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

// Sink consumes one flit per cycle, holding off until HoldOff to model a
// blocked destination. It records what it takes, or, once AllocsPerWorm
// has set release, releases each worm at its tail and records nothing.
type Sink struct {
	HoldOff int64                   // consume nothing before this cycle
	Got     []flit.Ref              // flits in arrival order
	TailAt  map[*flit.Message]int64 // message -> tail arrival cycle

	link    *engine.Link
	release *flit.WormArena
}

func (s *Sink) Name() string   { return "sink" }
func (s *Sink) Quiesced() bool { return true }
func (s *Sink) Step(now int64) {
	if now < s.HoldOff {
		return
	}
	r, ok := s.link.Take(now)
	if !ok {
		return
	}
	s.link.ReturnCredit(now, 1)
	if s.release != nil {
		if r.Tail() {
			s.release.Release(r.W)
		}
		return
	}
	s.Got = append(s.Got, r)
	if r.Tail() {
		s.TailAt[r.W.Msg] = now
	}
}
