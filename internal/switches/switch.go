package switches

import (
	"fmt"

	"mdworm/internal/bitset"
	"mdworm/internal/ckpt"
	"mdworm/internal/engine"
	"mdworm/internal/flit"
	"mdworm/internal/routing"
	"mdworm/internal/topology"
)

// Switch is the contract every switch organization meets, and all the
// simulator holds of a switch. Step must leave a quiesced switch whose
// input links are empty exactly as it was, since the kernel puts such a
// switch to sleep. A checkpoint restored into a freshly built twin must
// encode the same bytes. The conformance suite (conformance_test.go) checks
// these rules and the fault and drain behaviour on every organization; a
// new organization must pass it.
type Switch interface {
	engine.Component
	// Occupancy samples the buffered state for the observability probe.
	Occupancy() Occupancy
	// EncodeState writes the switch's state, referring to the worms it
	// holds through g; DecodeState restores it.
	EncodeState(e *ckpt.Enc, g *ckpt.Graph)
	DecodeState(d *ckpt.Dec, g *ckpt.Graph)
	// Dump renders the internal state for deadlock diagnosis.
	Dump() string
}

// Base is the part of a switch that does not depend on how it buffers and
// arbitrates worms. Each organization embeds it by value and binds it with
// Init; Base then names the switch, routes each decoded worm into branches,
// accounts fault drops, combines barrier tokens (Tokens) and checkpoints
// all of that.
type Base struct {
	Node   *topology.Switch
	Router *routing.Router
	Ports  []PortIO
	RNG    *engine.RNG
	IDs    *engine.IDGen
	Sim    *engine.Simulation
	// Worms is the simulation's worm pool: the switch forks child worms and
	// barrier tokens from it and releases every worm whose tail it
	// consumes. A standalone switch, whose driver keeps the worms it
	// injects, has nil: it allocates on the heap and releases nothing.
	Worms  *flit.WormArena
	Tokens Combiner

	model string // prefixes Name
	stats *Stats // the embedding model's common counters
	// dec is the routing decision every decode refills: derived state,
	// never serialized.
	dec routing.Decision
}

// Init binds the skeleton of a switch of the named model to its topology
// node and port links (unconnected ports get nil PortIO entries). stats
// holds the model's common counters; the input link of each port marks
// that port's bit in arrivals while it has flits on the wire; place is the
// model's token hook (see Combiner).
func (b *Base) Init(model string, node *topology.Switch, router *routing.Router, ports []PortIO,
	rng *engine.RNG, ids *engine.IDGen, worms *flit.WormArena, sim *engine.Simulation,
	stats *Stats, arrivals *uint64, place func(now int64, port int, tok flit.Ref) bool) {

	if len(ports) != node.NumPorts() {
		panic(fmt.Sprintf("%s: %d ports wired to a %d-port switch", model, len(ports), node.NumPorts()))
	}
	if len(ports) > MaxPorts {
		panic(fmt.Sprintf("%s: %d ports exceed the %d-port activity bitmaps", model, len(ports), MaxPorts))
	}
	*b = Base{Node: node, Router: router, Ports: ports, RNG: rng, IDs: ids, Sim: sim, Worms: worms,
		model: model, stats: stats, dec: routing.Decision{Down: engine.Empty(b.dec.Down)}}
	b.Tokens = Combiner{sw: b, place: place}
	for i, p := range ports {
		if p.In != nil {
			p.In.BindArrival(arrivals, i)
		}
	}
}

// Name identifies the switch in diagnostics.
func (b *Base) Name() string {
	return fmt.Sprintf("%s-sw%d(s%d,%d)", b.model, b.Node.ID, b.Node.Stage, b.Node.Pos)
}

// Decode routes worm w, whose header is complete at the head of input i,
// and appends its branches to plans, storage the model owns and reuses.
// free reports whether an output is unbound, for the adaptive up policy.
// Decode counts and traces the decision and accounts the destinations that
// only dead outputs reach. An empty result means every branch died: the
// model must sink w so that upstream drains.
func (b *Base) Decode(plans []Planned, i int, w *flit.Worm, free func(port int) bool, now int64) []Planned {
	// A nil dead predicate keeps healthy fabrics on the allocation-free
	// routing fast path; avoidance engages only once a link has failed.
	var dead func(port int) bool
	if anyDeadOut(b.Ports) {
		dead = func(port int) bool {
			out := b.Ports[port].Out
			return out != nil && out.Dead()
		}
	}
	plans, dropped, err := PlanBranches(plans, &b.dec, b.Router, b.Node, w, Ascending(b.Node, i),
		free, dead, b.RNG, b.IDs, b.Worms)
	if err != nil {
		panic(fmt.Sprintf("%s: input %d: %v", b.Name(), i, err))
	}
	b.stats.Decodes++
	if b.Sim.Tracing() {
		b.Sim.Emit(engine.TraceEvent{Kind: engine.TraceDecode, Actor: b.Name(),
			Msg: w.Msg.ID, Worm: w.ID,
			Detail: fmt.Sprintf("in=%d branches=%d", i, len(plans))})
	}
	if !dropped.Empty() {
		b.ReportDrop(now, w, dropped)
	}
	if len(plans) > 0 {
		b.stats.Replications += int64(len(plans) - 1)
	}
	return plans
}

// ReportDrop accounts destinations of worm w abandoned because of an
// injected fault.
func (b *Base) ReportDrop(now int64, w *flit.Worm, dropped bitset.Set) {
	n := flit.DropCost(w, dropped)
	if n == 0 {
		return
	}
	b.stats.WormsDropped++
	b.stats.DestsDropped += int64(dropped.Count())
	if b.Sim.Tracing() {
		b.Sim.Emit(engine.TraceEvent{Kind: engine.TraceDrop, Actor: b.Name(),
			Msg: w.Msg.ID, Worm: w.ID,
			Detail: fmt.Sprintf("dests=%v cost=%d", dropped.Members(), n)})
	}
	if b.Router.OnDrop != nil {
		b.Router.OnDrop(w.Msg, n, now)
	}
	b.Sim.Progress()
}
