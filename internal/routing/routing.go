// Package routing computes, for a worm arriving at a switch of a BMIN, the
// set of output branches it must take: upward toward the least common
// ancestor (LCA) stage and/or downward toward destination subtrees. Routing
// is up*/down*-conformant — a worm that has turned downward never ascends —
// which is the deadlock-free base routing the paper's multidestination worms
// conform to.
package routing

import (
	"fmt"

	"mdworm/internal/bitset"
	"mdworm/internal/engine"
	"mdworm/internal/flit"
	"mdworm/internal/topology"
)

// UpPolicy selects how a switch picks among its (equivalent) up ports when a
// worm must ascend.
type UpPolicy uint8

const (
	// UpHash picks deterministically by hashing the message id and source,
	// spreading independent messages across parents while keeping a given
	// message's path stable.
	UpHash UpPolicy = iota
	// UpRandom picks uniformly at random per hop.
	UpRandom
	// UpAdaptive picks the first currently-free up port, falling back to
	// the hash choice when none is free.
	UpAdaptive
)

// String names the policy.
func (p UpPolicy) String() string {
	switch p {
	case UpHash:
		return "hash"
	case UpRandom:
		return "random"
	case UpAdaptive:
		return "adaptive"
	default:
		return fmt.Sprintf("uppolicy(%d)", uint8(p))
	}
}

// Router holds the routing configuration shared by all switches of a run.
type Router struct {
	Net *topology.Network
	// ReplicateOnUpPath, when true, lets an ascending multidestination
	// worm branch downward at every switch on its way to the LCA stage
	// (covering destinations as early as possible). When false the worm
	// ascends undivided to the LCA stage and replicates only on the way
	// down.
	ReplicateOnUpPath bool
	// Policy selects the up-port choice.
	Policy UpPolicy
	// OnDrop, when non-nil, is invoked by switches and NICs when an
	// injected fault forces a worm to abandon destinations: m is the
	// underlying message, ndests the number of op destinations lost
	// (software-multicast forwarding subtrees included), now the cycle.
	// The core simulator uses it to keep per-op accounting consistent so
	// degraded runs drain instead of hanging.
	OnDrop func(m *flit.Message, ndests int, now int64)
}

// Branch is one downward output the worm must take, with the destination
// subset the branch is responsible for.
type Branch struct {
	Port  int
	Dests bitset.Set
}

// Decision is the complete branching plan for a worm at a switch. DownPorts
// lists descending branches; UpDests is the residue that must continue
// ascending through one of UpCandidates (all equivalent by construction).
// A Decision is caller-owned scratch: Route refills it in place and reuses
// its Down storage, so a switch routes every worm through one Decision.
type Decision struct {
	Down    []Branch
	UpDests bitset.Set // empty if the worm need not ascend
	// UpCandidates lists the valid up ports when UpDests is non-empty. On
	// a healthy switch it aliases the switch's read-only up-port list.
	UpCandidates []int
}

// Route fills dec with the branching plan for a worm with destination set
// dests arriving at switch sw. Ascending reports whether the worm arrived
// from below (on a down port, or injected by a processor); descending worms
// must have all destinations within the switch's subtree.
func (r *Router) Route(sw *topology.Switch, dests bitset.Set, ascending bool, dec *Decision) error {
	_, err := r.RouteAvoid(sw, dests, ascending, nil, dec)
	return err
}

// RouteAvoid fills dec with the branching plan like Route while steering
// around dead output ports, as reported by the dead predicate (nil means
// fully healthy and behaves exactly like Route). Destinations whose only
// path runs through a dead port are returned for the caller to account as
// dropped: on trees every inter-switch link is a bridge, so a dead down
// port partitions its whole subtree, and a worm that must ascend but has
// lost every up port covers what it can below and abandons the residue. The
// error cases are those of Route (malformed requests), never mere
// degradation.
//
// Each down branch's set is dests ∩ reach(port), computed word-wise without
// materializing the in-switch subset. Only branches that split dests
// allocate: a down branch whose port reaches every destination, an ascent
// with no destination below, and an undivided ascent all carry dests
// itself. The healthy path allocates nothing else.
func (r *Router) RouteAvoid(sw *topology.Switch, dests bitset.Set, ascending bool, dead func(port int) bool, dec *Decision) (bitset.Set, error) {
	dec.Down = dec.Down[:0]
	dec.UpDests = bitset.Set{}
	dec.UpCandidates = nil
	if dests.Empty() {
		return bitset.Set{}, fmt.Errorf("routing: empty destination set at switch %d", sw.ID)
	}

	// covered means no residue above this switch: dests ⊆ ReachAll. The
	// word-wise subset test avoids materializing within/residue sets on the
	// common paths (a descending worm is always covered; an ascending
	// unicast below its LCA never is).
	covered := dests.SubsetOf(sw.ReachAll())
	if !ascending && !covered {
		return bitset.Set{}, fmt.Errorf("routing: descending worm at switch %d has unreachable destinations %v",
			sw.ID, dests.AndNot(sw.ReachAll()).Members())
	}
	ups := sw.UpPorts()
	if !covered && len(ups) == 0 {
		return bitset.Set{}, fmt.Errorf("routing: switch %d must ascend for %v but has no up ports",
			sw.ID, dests.AndNot(sw.ReachAll()).Members())
	}

	var dropped bitset.Set
	if dead != nil {
		dropped = bitset.New(r.Net.N)
		if !covered {
			var alive []int
			for _, pn := range ups {
				if !dead(pn) {
					alive = append(alive, pn)
				}
			}
			ups = alive
		}
	}
	upSevered := !covered && len(ups) == 0

	if !ascending || covered || r.ReplicateOnUpPath || upSevered {
		for _, pn := range sw.DownPorts() {
			reach := sw.Ports[pn].Reach
			if !dests.Intersects(reach) {
				continue
			}
			sub := dests
			if !dests.SubsetOf(reach) {
				sub = dests.And(reach)
			}
			if dead != nil && dead(pn) {
				dropped.OrIn(sub)
				continue
			}
			dec.Down = append(dec.Down, Branch{Port: pn, Dests: sub})
		}
	}

	switch {
	case covered:
		// Fully covered (or dropped) below; nothing ascends.
	case upSevered:
		// Every up port is dead: the residue is unreachable from here.
		dropped.OrIn(dests.AndNot(sw.ReachAll()))
	case r.ReplicateOnUpPath && dests.Intersects(sw.ReachAll()):
		dec.UpDests = dests.AndNot(sw.ReachAll())
	default:
		// Ascend undivided: nothing lies below, or replication happens
		// past the LCA stage.
		dec.UpDests = dests
	}
	if !dec.UpDests.Empty() {
		dec.UpCandidates = ups
	}
	return dropped, nil
}

// PickUp chooses the up port for a decision according to the router policy.
// free reports whether an output port is currently unbound (used by the
// adaptive policy); rng supplies randomness for UpRandom.
func (r *Router) PickUp(dec *Decision, msg *flit.Message, free func(port int) bool, rng *engine.RNG) int {
	cands := dec.UpCandidates
	if len(cands) == 0 {
		panic("routing: PickUp with no candidates")
	}
	switch r.Policy {
	case UpRandom:
		return cands[rng.Intn(len(cands))]
	case UpAdaptive:
		for _, c := range cands {
			if free(c) {
				return c
			}
		}
		fallthrough
	default:
		h := msg.ID*0x9e3779b97f4a7c15 + uint64(msg.Src)*0x85ebca6b
		h ^= h >> 33
		return cands[int(h%uint64(len(cands)))]
	}
}

// UnicastHops returns the switch path (ids) a unicast from src to dst takes
// under the hash up-port policy, for inspection and tests.
func (r *Router) UnicastHops(src, dst int, msg *flit.Message) ([]int, error) {
	if src == dst {
		return nil, fmt.Errorf("routing: src == dst == %d", src)
	}
	dests := bitset.New(r.Net.N)
	dests.Add(dst)
	swID, _ := r.Net.ProcAttach(src)
	var hops []int
	var dec Decision
	ascending := true
	for {
		sw := r.Net.Switches[swID]
		hops = append(hops, swID)
		if len(hops) > 4*r.Net.Stages {
			return nil, fmt.Errorf("routing: unicast %d->%d did not converge", src, dst)
		}
		if err := r.Route(sw, dests, ascending, &dec); err != nil {
			return nil, err
		}
		if !dec.UpDests.Empty() {
			up := r.PickUp(&dec, msg, func(int) bool { return true }, engine.NewRNG(1))
			swID = sw.Ports[up].PeerSwitch
			continue
		}
		if len(dec.Down) != 1 {
			return nil, fmt.Errorf("routing: unicast at switch %d produced %d branches", sw.ID, len(dec.Down))
		}
		p := &sw.Ports[dec.Down[0].Port]
		if p.Proc >= 0 {
			if p.Proc != dst {
				return nil, fmt.Errorf("routing: unicast %d->%d delivered to %d", src, dst, p.Proc)
			}
			return hops, nil
		}
		swID = p.PeerSwitch
		ascending = false
	}
}
