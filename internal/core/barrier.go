package core

import (
	"mdworm/internal/flit"
)

// startCombiningBarrier launches one full-system in-switch combining barrier
// (the switch enhancement of the paper's companion work) entered by every
// node at the current cycle, and returns its op, which completes when the
// last node receives the release. Every host injects one single-flit token;
// the switches on the designated spanning tree combine the tokens and the
// root broadcasts release tokens back down, so no NIC gather tree is
// involved. Both switch architectures implement the combining logic. It is
// the one step of a collective.CombiningBarrier rep, which normalize admits
// only on an otherwise idle network.
func (s *Simulator) startCombiningBarrier() *flit.Op {
	n := s.net.N
	start := s.sim.Now
	// One op delivered at every host by the release broadcast.
	op := flit.NewOp(s.ids.Next(), flit.ClassBarrier, 0, n, start)
	op.Phases = 1
	s.outstanding++
	for proc := 0; proc < n; proc++ {
		m := &flit.Message{
			ID:          s.ids.Next(),
			Src:         proc,
			Dests:       []int{proc}, // tokens are consumed by switches, never routed
			Class:       flit.ClassBarrier,
			HeaderFlits: 1,
			Created:     start,
			Op:          op,
		}
		s.nics[proc].Submit(m)
	}
	return op
}
