// Package switches holds what the switch microarchitectures share: the
// Switch contract, the Base skeleton each organization embeds (naming,
// decode, drop accounting and barrier combining), port/link bundles,
// round-robin arbitration, and the branch planner that turns a routing
// decision into forked child worms.
package switches

import (
	"mdworm/internal/bitset"
	"mdworm/internal/engine"
	"mdworm/internal/flit"
	"mdworm/internal/routing"
	"mdworm/internal/topology"
)

// MaxPorts is the widest switch either model supports: both keep their
// per-port activity sets in uint64 bitmaps.
const MaxPorts = 64

// PortIO bundles the two unidirectional links of one bidirectional port.
type PortIO struct {
	// In carries flits arriving into the switch on this port.
	In *engine.Link
	// Out carries flits leaving the switch on this port.
	Out *engine.Link
}

// Ascending reports whether a worm arriving on the given port of sw is
// still on its way up: down ports receive traffic from below (processors or
// lower stages), up ports receive traffic descending from above.
func Ascending(sw *topology.Switch, port int) bool {
	return sw.Ports[port].Kind == topology.Down
}

// Planned is one output branch of a worm at a switch, carrying the forked
// child worm that continues on that port.
type Planned struct {
	Port  int
	Child *flit.Worm
}

// PlanBranches routes worm w arriving at sw (ascending or descending) and
// forks one child worm per branch, appending the branches to plans. dec is
// the switch's routing scratch, refilled on every call; plans is storage
// the caller owns and reuses, so a decode allocates only the child worms
// (from worms, the simulation's pool, each holding w's message) and the
// destination sets of branches that split w's set.
// free reports whether an output port is currently unbound (consulted by
// the adaptive up policy); rng drives the random up policy. dead, when
// non-nil, marks output ports whose links have failed: the plan routes
// around them and the second result carries the destinations that became
// unreachable, for the caller to account as dropped. A plan may
// legitimately be empty when every branch died.
func PlanBranches(plans []Planned, dec *routing.Decision, r *routing.Router, sw *topology.Switch,
	w *flit.Worm, ascending bool, free func(port int) bool, dead func(port int) bool,
	rng *engine.RNG, ids *engine.IDGen, worms *flit.WormArena) ([]Planned, bitset.Set, error) {

	dropped, err := r.RouteAvoid(sw, w.Dests, ascending, dead, dec)
	if err != nil {
		return plans, bitset.Set{}, err
	}
	for _, b := range dec.Down {
		plans = append(plans, Planned{Port: b.Port, Child: fork(w, b.Dests, false, ids, worms)})
	}
	if !dec.UpDests.Empty() {
		port := r.PickUp(dec, w.Msg, free, rng)
		plans = append(plans, Planned{Port: port, Child: fork(w, dec.UpDests, true, ids, worms)})
	}
	return plans, dropped, nil
}

// anyDeadOut reports whether any output link of the port set has failed.
// Decode uses it to skip fault-avoidance routing entirely on a healthy
// fabric.
func anyDeadOut(ports []PortIO) bool {
	for i := range ports {
		if out := ports[i].Out; out != nil && out.Dead() {
			return true
		}
	}
	return false
}

func fork(w *flit.Worm, dests bitset.Set, goingUp bool, ids *engine.IDGen, worms *flit.WormArena) *flit.Worm {
	child := worms.New()
	*child = flit.Worm{
		ID:      ids.Next(),
		Msg:     w.Msg,
		Dests:   dests,
		GoingUp: goingUp,
		Hops:    w.Hops + 1,
	}
	worms.Hold(w.Msg)
	return child
}

// RoundRobin is a fair pick-one arbiter over n requesters.
type RoundRobin struct {
	n    int
	last int
}

// NewRoundRobin returns an arbiter over n requesters.
func NewRoundRobin(n int) *RoundRobin {
	return &RoundRobin{n: n, last: n - 1}
}

// Pick returns the first requester after the previous grant for which want
// returns true, or -1 if none. A successful pick advances the pointer.
func (rr *RoundRobin) Pick(want func(i int) bool) int {
	for k := 1; k <= rr.n; k++ {
		i := (rr.last + k) % rr.n
		if want(i) {
			rr.last = i
			return i
		}
	}
	return -1
}

// Occupancy is an instantaneous snapshot of the buffered state inside one
// switch, taken by the observability probe between cycles.
type Occupancy struct {
	// InputFlits is the total number of flits buffered across input
	// FIFOs/buffers.
	InputFlits int
	// MaxInputQ is the deepest single input FIFO/buffer.
	MaxInputQ int
	// OutputFlits is the total staged in output FIFOs (central-buffer
	// model only; the input-buffered model has no output staging).
	OutputFlits int
	// CBChunks is the number of central-buffer chunks currently allocated
	// (central-buffer model only).
	CBChunks int
	// MaxBranchRefs is the high-water mark of output references (readers)
	// on one buffered worm (central-buffer model only).
	MaxBranchRefs int
}

// Stats aggregates counters common to all switch models.
type Stats struct {
	FlitsIn      int64 // flits accepted from input links
	FlitsOut     int64 // flits pushed onto output links
	Decodes      int64 // routing decisions made
	Replications int64 // extra branches created (branches beyond the first)
	WormsDropped int64 // branches abandoned because of injected faults
	DestsDropped int64 // destinations those branches would have covered

	TokensCombined int64 // barrier tokens absorbed by the combining logic
	TokensEmitted  int64 // barrier tokens generated (combined-up or release)
}
