package core

import (
	"fmt"

	"mdworm/internal/flit"
)

// RunCombiningBarrier executes one full-system in-switch combining barrier
// (the switch enhancement of the paper's companion work) entered by every
// node at the current cycle, and returns the cycle count until the last
// node receives the release. Every host injects one single-flit token; the
// switches on the designated spanning tree combine the tokens and the root
// broadcasts release tokens back down, so no NIC gather tree is involved.
// Both switch architectures implement the combining logic. The network
// must be otherwise idle (traffic generation off); budget bounds the
// simulation. The NIC-level barriers run as collective.Barrier schedules
// (Config.Collective).
func (s *Simulator) RunCombiningBarrier(budget int64) (int64, error) {
	if s.genOn {
		return 0, fmt.Errorf("core: RunCombiningBarrier requires an idle network")
	}
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
	done, err := s.sim.RunUntil(op.Done, budget)
	if err != nil {
		return 0, err
	}
	if !done {
		return 0, fmt.Errorf("core: combining barrier incomplete after %d cycles", budget)
	}
	return op.LastArrival - start, nil
}
