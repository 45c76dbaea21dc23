// Package traffic generates the workloads of the paper's evaluation:
// multiple multicast (every node issues multicasts), bimodal traffic
// (unicast background plus a multicast component), and pure unicast, with
// Bernoulli arrivals per node and uniformly random destination selection.
package traffic

import (
	"fmt"

	"mdworm/internal/engine"
)

// Spec describes a stochastic workload.
type Spec struct {
	// OpRate is the probability, per node per cycle, of generating a new
	// operation (Bernoulli arrivals).
	OpRate float64
	// MulticastFraction is the probability that a generated operation is
	// a multicast; the rest are unicasts. 1.0 gives the multiple-multicast
	// workload, 0.0 pure unicast.
	MulticastFraction float64
	// Degree is the number of destinations of each multicast.
	Degree int
	// UniPayloadFlits and McastPayloadFlits are the payload lengths.
	UniPayloadFlits   int
	McastPayloadFlits int

	// HotSpotFraction sends that fraction of unicast messages to HotSpotNode
	// instead of a uniform destination, modeling the hot-spot traffic the
	// paper lists as future work. Zero disables it.
	HotSpotFraction float64
	// HotSpotNode is the hot destination (ignored when HotSpotFraction is 0).
	HotSpotNode int
}

// Validate checks the spec against the system size.
func (s Spec) Validate(n int) error {
	switch {
	case s.OpRate < 0 || s.OpRate > 1:
		return fmt.Errorf("traffic: OpRate %g outside [0,1]", s.OpRate)
	case s.MulticastFraction < 0 || s.MulticastFraction > 1:
		return fmt.Errorf("traffic: MulticastFraction %g outside [0,1]", s.MulticastFraction)
	case s.MulticastFraction > 0 && (s.Degree < 1 || s.Degree > n-1):
		return fmt.Errorf("traffic: Degree %d outside [1,%d]", s.Degree, n-1)
	case s.HotSpotFraction < 0 || s.HotSpotFraction > 1:
		return fmt.Errorf("traffic: HotSpotFraction %g outside [0,1]", s.HotSpotFraction)
	case s.HotSpotFraction > 0 && (s.HotSpotNode < 0 || s.HotSpotNode >= n):
		return fmt.Errorf("traffic: HotSpotNode %d outside [0,%d)", s.HotSpotNode, n)
	case s.MulticastFraction > 0 && s.McastPayloadFlits < 1,
		s.MulticastFraction < 1 && s.UniPayloadFlits < 1:
		return fmt.Errorf("traffic: payload must be >= 1 flit")
	}
	return nil
}

// MeanDeliveredPayloadFlits returns the expected payload flits *delivered*
// per operation: a multicast to d destinations delivers d copies. This is
// the natural capacity axis for multicast workloads — each node can eject at
// most one flit per cycle, so delivered demand saturates near 1.0 regardless
// of scheme, and schemes differ in how much injected traffic, host overhead,
// and network contention they need to meet the same delivered demand.
func (s Spec) MeanDeliveredPayloadFlits() float64 {
	return s.MulticastFraction*float64(s.Degree*s.McastPayloadFlits) +
		(1-s.MulticastFraction)*float64(s.UniPayloadFlits)
}

// RateForLoad converts an offered load, expressed in delivered payload flits
// per node per cycle, into the per-node operation rate.
func (s Spec) RateForLoad(load float64) float64 {
	return load / s.MeanDeliveredPayloadFlits()
}

// Request is one generated operation before planning.
type Request struct {
	Src       int
	Dests     []int
	Multicast bool
	Payload   int
}

// Generator draws requests deterministically from per-node random streams.
type Generator struct {
	spec Spec
	n    int
	rngs []*engine.RNG
	pool []int // Sample's scratch population, reused across draws
}

// NewGenerator creates a generator for n nodes seeded from seed. Each node
// has an independent stream, so results are insensitive to evaluation order.
func NewGenerator(spec Spec, n int, seed uint64) (*Generator, error) {
	if err := spec.Validate(n); err != nil {
		return nil, err
	}
	root := engine.NewRNG(seed)
	g := &Generator{spec: spec, n: n, rngs: make([]*engine.RNG, n)}
	for i := range g.rngs {
		g.rngs[i] = root.Fork(uint64(i))
	}
	return g, nil
}

// Spec returns the generator's workload spec.
func (g *Generator) Spec() Spec { return g.spec }

// Draw returns the operation node generates this cycle, if any.
func (g *Generator) Draw(node int) (Request, bool) {
	rng := g.rngs[node]
	if !rng.Bernoulli(g.spec.OpRate) {
		return Request{}, false
	}
	req := Request{Src: node}
	if rng.Bernoulli(g.spec.MulticastFraction) {
		req.Multicast = true
		req.Payload = g.spec.McastPayloadFlits
		req.Dests = rng.Sample(g.n, g.spec.Degree, node, &g.pool)
	} else {
		req.Payload = g.spec.UniPayloadFlits
		if g.spec.HotSpotFraction > 0 && node != g.spec.HotSpotNode &&
			rng.Bernoulli(g.spec.HotSpotFraction) {
			req.Dests = []int{g.spec.HotSpotNode}
		} else {
			req.Dests = []int{pickOther(rng, g.n, node)}
		}
	}
	return req, true
}

func pickOther(rng *engine.RNG, n, self int) int {
	d := rng.Intn(n - 1)
	if d >= self {
		d++
	}
	return d
}

// Skew deterministically staggers the entry of collective participants: a
// stateless function of (seed, rep, node), so checkpoints need not carry it
// and any replica computes the identical stagger. At returns a delay in
// [0, Max] cycles; a zero or negative Max disables skew entirely.
type Skew struct {
	Seed uint64
	Max  int64
}

// At returns the entry delay of the node in the given rep.
func (k Skew) At(rep, node int) int64 {
	if k.Max <= 0 {
		return 0
	}
	rng := engine.NewRNG(k.Seed).Fork(uint64(rep)).Fork(uint64(node))
	return int64(rng.Uint64() % uint64(k.Max+1))
}
