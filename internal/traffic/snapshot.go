package traffic

import "fmt"

// States returns the position of every per-node random stream, in node
// order, for checkpointing.
func (g *Generator) States() []uint64 {
	out := make([]uint64, len(g.rngs))
	for i := range g.rngs {
		out[i] = g.rngs[i].State()
	}
	return out
}

// SetStates repositions every per-node stream. The slice must cover exactly
// the generator's nodes.
func (g *Generator) SetStates(states []uint64) error {
	if len(states) != len(g.rngs) {
		return fmt.Errorf("traffic: %d stream states for %d nodes", len(states), len(g.rngs))
	}
	for i, s := range states {
		g.rngs[i].SetState(s)
	}
	return nil
}
