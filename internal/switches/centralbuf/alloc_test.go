package centralbuf

import (
	"testing"

	"mdworm/internal/engine"
	"mdworm/internal/switches/switchtest"
)

// TestSteadyStateBufferedPathAllocs sends worms one at a time through one
// switch and pins what each costs the switch once warm: packet and branch
// records come from the switch's free list, the routing scratch is reused
// and the child comes from the worm pool, so a worm allocates only the
// destination sets of branches that split its set.
func TestSteadyStateBufferedPathAllocs(t *testing.T) {
	for _, c := range []struct {
		name      string
		dests     []int
		multicast bool
		want      float64
	}{
		{"unicast-bypass", []int{1}, false, 0},
		{"multicast-one-branch-buffered", []int{1}, true, 0},
		{"multicast-two-branches-buffered", []int{1, 2}, true, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := testConfig()
			sh := switchtest.NewShuttle(cfg.InFIFOFlits)
			sw := New(cfg, sh.Node, sh.Router, sh.Ports, engine.NewRNG(1), &sh.IDs, &sh.Worms, sh.Sim)
			sh.Sim.AddComponent(sw)
			if got := sh.AllocsPerWorm(t, c.dests, c.multicast, 200); got != c.want {
				t.Fatalf("%v allocations per worm, want %v", got, c.want)
			}
			// A multidestination worm is always buffered, a unicast to
			// an idle output always cuts through.
			st := sw.Stats()
			if (st.BufferFlits > 0) != c.multicast || (st.BypassFlits > 0) == c.multicast {
				t.Fatalf("worms took the wrong path: %+v", st)
			}
		})
	}
}
