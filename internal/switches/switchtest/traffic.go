// Package switchtest drives a single switch of either model with seeded
// random traffic, for property tests that must hold under every path the
// switch can take: contention and backpressure, replication, barrier
// combining, and fault degradation.
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

const (
	maxPayload = 60 // worms stay within a 65-flit packet bound
	maxQueued  = 4  // worms a source holds before it stops generating
	maxFanout  = 16 // most destinations one multicast worm names
)

// Traffic wires every port of switch 0 of a two-stage k-ary tree (processors
// 0..k-1 below, k parents above) to scripted sources and sinks:
//
//   - each processor port injects ascending unicast and multicast worms to
//     random destinations across all k*k processors;
//   - each up port injects descending worms to random subsets of 0..k-1;
//   - barrier rounds send one token per processor port and answer the
//     combined token arriving on the first up port with a release token;
//   - sinks stall at random, backing traffic up into the switch.
//
// Load comes in bursts separated by idle gaps, so the switch also drains.
// At the fault cycle the processor-2 and second up output links die and the
// processor-1 output link sticks for a while; barriers stop at that point,
// since a severed combining tree can never complete.
//
// The simulation runs with strict invariants: the switch's first accounting
// violation (chunk or occupancy ledgers, reference counts) panics. Worms
// are pooled as in a full simulation: sources draw them from Worms, the
// switch releases each worm whose tail it consumes, and sinks release the
// switch's children at their tails.
type Traffic struct {
	Sim    *engine.Simulation
	Net    *topology.Network
	Node   *topology.Switch
	Router *routing.Router
	Ports  []switches.PortIO
	IDs    engine.IDGen
	Worms  flit.WormArena

	// McastPorts masks the source ports that send multidestination worms
	// (every port by default). Synchronous replication needs a single
	// multicast source: two lock-step heads that each hold an output the
	// other waits for deadlock by design.
	McastPorts uint64

	arity   int
	rng     *engine.RNG
	pool    []int // Sample's scratch population
	srcs    []*source
	faultAt int64
	faulted bool

	barrier  *flit.Op // round in flight, nil between rounds
	released int      // release tokens delivered in the current round
	Barriers int      // completed barrier rounds

	// DestsQueued counts the destinations of the data worms sources
	// queued, DestsDelivered those of the data worms sinks took. Once the
	// switch drains, their difference is what the faults dropped.
	DestsQueued, DestsDelivered int
}

// New builds the fabric around the switch under test, which the caller
// constructs over Ports (with Node, Router, IDs, Worms and Sim) and
// registers with Sim.AddComponent. The switch has 2*arity ports; inCredits
// is its input buffer size; faultAt is the first cycle the fault schedule
// may fire.
func New(seed uint64, arity, inCredits int, faultAt int64) *Traffic {
	net, err := topology.NewKaryTree(arity, 2)
	if err != nil {
		panic(err)
	}
	tr := &Traffic{
		Sim:     engine.NewSimulation(20_000),
		Net:     net,
		Node:    net.Switches[0],
		Router:  &routing.Router{Net: net, ReplicateOnUpPath: true, Policy: routing.UpHash},
		arity:   arity,
		rng:     engine.NewRNG(seed),
		faultAt: faultAt,
	}
	tr.Sim.Invariants().Strict = true
	tr.McastPorts = ^uint64(0)
	tr.Ports = make([]switches.PortIO, tr.Node.NumPorts())
	for p := range tr.Ports {
		in := tr.Sim.NewLink(fmt.Sprintf("src%d->sw.p%d", p, p), 1, inCredits)
		out := tr.Sim.NewLink(fmt.Sprintf("sw.p%d->snk%d", p, p), 1, 8)
		tr.Ports[p] = switches.PortIO{In: in, Out: out}
		src := &source{link: in}
		tr.srcs = append(tr.srcs, src)
		tr.Sim.AddComponent(src)
		tr.Sim.AddComponent(&sink{tr: tr, port: p, link: out, rng: tr.rng.Fork(uint64(p))})
	}
	return tr
}

// Run steps the fabric for the given number of loaded cycles, then with
// generation off until the switch quiesces, calling check after every
// cycle. It fails the test on a watchdog report or if the switch does not
// drain.
func (tr *Traffic) Run(t testing.TB, sw engine.Component, cycles int64, check func(now int64)) {
	t.Helper()
	for tr.Sim.Now < cycles {
		tr.generate(tr.Sim.Now)
		tr.step(t, check)
	}
	end := tr.Sim.Now + 50_000
	for !(sw.Quiesced() && tr.Sim.Quiesced()) {
		if tr.Sim.Now >= end {
			t.Fatalf("switch did not drain by cycle %d", end)
		}
		tr.step(t, check)
	}
}

func (tr *Traffic) step(t testing.TB, check func(now int64)) {
	t.Helper()
	now := tr.Sim.Now
	tr.Sim.Step()
	if err := tr.Sim.CheckWatchdog(); err != nil {
		t.Fatalf("%v", err)
	}
	check(now)
}

// generate queues this cycle's new worms and applies the fault schedule.
func (tr *Traffic) generate(now int64) {
	if !tr.faulted && now >= tr.faultAt && tr.barrier == nil {
		tr.faulted = true
		tr.Ports[2].Out.Fail()
		tr.Ports[tr.arity+1].Out.Fail()
		tr.Ports[1].Out.StickUntil(now + 300)
	}
	if (now/1500)%3 == 2 {
		return // idle gap
	}
	for p := 0; p < tr.arity; p++ {
		if tr.rng.Bernoulli(0.06) {
			tr.queueData(p, p, tr.randomDests(p, p, tr.Net.N), true)
		}
	}
	for u := tr.arity; u < 2*tr.arity; u++ {
		if tr.rng.Bernoulli(0.03) {
			tr.queueData(u, tr.arity+tr.rng.Intn(tr.Net.N-tr.arity), tr.randomDests(u, -1, tr.arity), false)
		}
	}
	if tr.barrier == nil && !tr.faulted && tr.rng.Bernoulli(0.002) {
		tr.barrier = flit.NewOp(tr.IDs.Next(), flit.ClassBarrier, 0, tr.arity, now)
		tr.released = 0
		for p := 0; p < tr.arity; p++ {
			tr.queueToken(p, []int{p})
		}
	}
}

// randomDests draws one destination or, half the time on a multicast port,
// several (at most maxFanout) from the first span processors, excluding
// self (-1 excludes nothing).
func (tr *Traffic) randomDests(port, self, span int) []int {
	k := 1
	if tr.rng.Bernoulli(0.5) && tr.McastPorts&(1<<uint(port)) != 0 {
		k = 2 + tr.rng.Intn(min(span, maxFanout)-2)
	}
	return tr.rng.Sample(span, k, self, &tr.pool)
}

func (tr *Traffic) queueData(port, src int, dests []int, up bool) {
	s := tr.srcs[port]
	if len(s.queue) >= maxQueued {
		return
	}
	msg := &flit.Message{
		ID:           tr.IDs.Next(),
		Src:          src,
		Dests:        dests,
		PayloadFlits: tr.rng.Intn(maxPayload + 1),
		HeaderFlits:  1,
		Class:        flit.ClassUnicast,
	}
	if len(dests) > 1 {
		msg.Class = flit.ClassMulticast
	}
	w := tr.Worms.New()
	*w = flit.Worm{ID: tr.IDs.Next(), Msg: msg, Dests: bitset.FromSlice(tr.Net.N, dests), GoingUp: up}
	s.queue = append(s.queue, w)
	tr.DestsQueued += len(dests)
}

func (tr *Traffic) queueToken(port int, dests []int) {
	msg := &flit.Message{ID: tr.IDs.Next(), Dests: dests, Class: flit.ClassBarrier, HeaderFlits: 1, Op: tr.barrier}
	w := tr.Worms.New()
	*w = flit.Worm{ID: tr.IDs.Next(), Msg: msg, Dests: bitset.FromSlice(tr.Net.N, dests)}
	tr.srcs[port].queue = append(tr.srcs[port].queue, w)
}

// tokenOut follows a barrier round: the combined token leaving on the first
// up port is answered with a release from above, and the round ends once
// every processor has its release.
func (tr *Traffic) tokenOut(port int) {
	if tr.barrier == nil {
		return
	}
	if port == tr.Node.UpPorts()[0] {
		tr.queueToken(port, nil)
		return
	}
	if tr.released++; tr.released == tr.arity {
		tr.barrier = nil
		tr.Barriers++
	}
}

// source sends its queued worms back to back as credits allow, from cycle
// from on. It keeps its queue's storage and drops each worm once its tail
// is sent: the switch may release it.
type source struct {
	link  *engine.Link
	queue []*flit.Worm
	next  int
	from  int64
}

func (s *source) Name() string   { return "source" }
func (s *source) Quiesced() bool { return len(s.queue) == 0 }
func (s *source) Step(now int64) {
	if len(s.queue) == 0 || now < s.from || !s.link.TrySend(now, flit.Ref{W: s.queue[0], Idx: s.next}) {
		return
	}
	if s.next++; s.next == s.queue[0].Len() {
		n := copy(s.queue, s.queue[1:])
		s.queue[n] = nil
		s.queue = s.queue[:n]
		s.next = 0
	}
}

// sink consumes one flit per cycle, stalling at random, and releases each
// worm at its tail.
type sink struct {
	tr           *Traffic
	port         int
	link         *engine.Link
	rng          *engine.RNG
	stalledUntil int64
}

func (s *sink) Name() string   { return "sink" }
func (s *sink) Quiesced() bool { return true }
func (s *sink) Step(now int64) {
	if now < s.stalledUntil {
		return
	}
	if s.rng.Bernoulli(0.02) {
		s.stalledUntil = now + 1 + int64(s.rng.Intn(40))
		return
	}
	r, ok := s.link.Take(now)
	if !ok {
		return
	}
	s.link.ReturnCredit(now, 1)
	if r.W.Msg.Class == flit.ClassBarrier {
		s.tr.tokenOut(s.port)
	} else if r.Tail() {
		s.tr.DestsDelivered += r.W.Dests.Count()
	}
	if r.Tail() {
		s.tr.Worms.Release(r.W)
	}
}
