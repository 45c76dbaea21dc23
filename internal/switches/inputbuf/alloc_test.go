package inputbuf

import (
	"testing"

	"mdworm/internal/engine"
	"mdworm/internal/switches/switchtest"
)

// TestSteadyStateDecodeAllocs sends worms one at a time through one switch
// and pins what each costs the switch once warm: branch records come from
// the switch's free list, the routing scratch and plan are reused, the
// worm queue keeps its storage and the children come from the worm pool,
// so a worm allocates only the destination sets of branches that split its
// set.
func TestSteadyStateDecodeAllocs(t *testing.T) {
	for _, c := range []struct {
		name      string
		dests     []int
		multicast bool
		want      float64
	}{
		{"unicast", []int{1}, false, 0},
		{"multicast-one-branch", []int{1}, true, 0},
		{"multicast-two-branches", []int{1, 2}, true, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := testConfig()
			sh := switchtest.NewShuttle(cfg.BufFlits)
			sw := New(cfg, sh.Node, sh.Router, sh.Ports, engine.NewRNG(1), &sh.IDs, &sh.Worms, sh.Sim)
			sh.Sim.AddComponent(sw)
			if got := sh.AllocsPerWorm(t, c.dests, c.multicast, 200); got != c.want {
				t.Fatalf("%v allocations per worm, want %v", got, c.want)
			}
		})
	}
}
