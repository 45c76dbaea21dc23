package switches

import (
	"slices"
	"testing"

	"mdworm/internal/bitset"
	"mdworm/internal/engine"
	"mdworm/internal/flit"
	"mdworm/internal/routing"
	"mdworm/internal/topology"
)

// decodeCase is one worm arriving at one switch of a 4-ary 3-tree (64
// processors) with replication on the up path.
type decodeCase struct {
	name      string
	sw        *topology.Switch
	dests     []int
	ascending bool
	// splits is the number of branch sets the decode must allocate: the
	// branches that divide the worm's set.
	splits int
}

func decodeCases(t testing.TB) (*routing.Router, []decodeCase) {
	t.Helper()
	net, err := topology.NewKaryTree(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	r := &routing.Router{Net: net, ReplicateOnUpPath: true, Policy: routing.UpHash}
	mcast := []int{1, 2, 9, 17, 30, 41, 50, 63}
	return r, []decodeCase{
		// Up to the LCA: the whole set ascends.
		{name: "unicast-up", sw: net.SwitchAt(0, 0), dests: []int{63}, ascending: true},
		// Down to the processor: the one branch carries the whole set.
		{name: "unicast-down", sw: net.SwitchAt(0, 0), dests: []int{1}},
		// Processors 1 and 2 branch off below; the other six ascend.
		{name: "multicast8-stage0", sw: net.SwitchAt(0, 0), dests: mcast, ascending: true, splits: 3},
		// The top stage fans the worm out onto all four down ports.
		{name: "multicast8-lca", sw: net.SwitchAt(2, 0), dests: mcast, ascending: true, splits: 4},
	}
}

func caseWorm(r *routing.Router, c decodeCase) *flit.Worm {
	w := mkWorm(100, r.Net.N, 1, 8, c.dests)
	w.GoingUp = c.ascending
	if len(c.dests) > 1 {
		w.Msg.Class = flit.ClassMulticast
	}
	return w
}

// TestPlanBranchesAllocations pins what one decode allocates once the
// switch's scratch decision and plan storage are warm: a unicast nothing, a
// multicast only the sets of the branches that split it. Child worms come
// from the arena, one refill per 63 forks, which the per-run average
// rounds away.
func TestPlanBranchesAllocations(t *testing.T) {
	r, cases := decodeCases(t)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := caseWorm(r, c)
			var (
				dec   routing.Decision
				plans []Planned
				ids   engine.IDGen
				arena flit.WormArena
			)
			rng := engine.NewRNG(1)
			free := func(int) bool { return true }
			decode := func() {
				var err error
				plans, _, err = PlanBranches(plans[:0], &dec, r, c.sw, w, c.ascending, free, nil, rng, &ids, &arena)
				if err != nil {
					t.Fatal(err)
				}
			}
			decode()
			if got := testing.AllocsPerRun(100, decode); got != float64(c.splits) {
				t.Fatalf("%v allocations per decode, want %d (the split sets)", got, c.splits)
			}
		})
	}
}

// TestPlanBranchesScratchMatchesFresh is the differential check for routing
// into reused storage: for random switches, destination sets, directions
// and dead ports, a decision refilled in place equals one routed into
// fresh storage, PlanBranches forks exactly its branches, and no decode
// changes the words of the worm's own set (children may share it).
func TestPlanBranchesScratchMatchesFresh(t *testing.T) {
	for _, repUp := range []bool{true, false} {
		net, err := topology.NewKaryTree(4, 3)
		if err != nil {
			t.Fatal(err)
		}
		r := &routing.Router{Net: net, ReplicateOnUpPath: repUp, Policy: routing.UpHash}
		rng := engine.NewRNG(29)
		var (
			reused routing.Decision
			plans  []Planned
			ids    engine.IDGen
			arena  flit.WormArena
			pool   []int
		)
		for trial := 0; trial < 2000; trial++ {
			sw := net.Switches[rng.Intn(len(net.Switches))]
			dests := bitset.FromSlice(net.N, rng.Sample(net.N, 1+rng.Intn(12), -1, &pool))
			ascending := rng.Intn(2) == 0
			if !ascending {
				if dests = dests.And(sw.ReachAll()); dests.Empty() {
					continue
				}
			}
			var dead func(int) bool
			if rng.Intn(4) == 0 {
				deadPort := rng.Intn(sw.NumPorts())
				dead = func(p int) bool { return p == deadPort }
			}
			words := slices.Clone(dests.Words())

			var fresh routing.Decision
			wantDropped, err := r.RouteAvoid(sw, dests, ascending, dead, &fresh)
			if err != nil {
				t.Fatal(err)
			}
			gotDropped, err := r.RouteAvoid(sw, dests, ascending, dead, &reused)
			if err != nil {
				t.Fatal(err)
			}
			if !sameDecision(&fresh, &reused) || !gotDropped.Equal(wantDropped) {
				t.Fatalf("trial %d, switch %d: reused decision %+v (dropped %v), fresh %+v (dropped %v)",
					trial, sw.ID, reused, gotDropped, fresh, wantDropped)
			}

			w := &flit.Worm{ID: 1, Msg: &flit.Message{ID: 1, HeaderFlits: 1}, Dests: dests, GoingUp: ascending}
			plans, _, err = PlanBranches(plans[:0], &reused, r, sw, w, ascending, func(int) bool { return true }, dead,
				rng, &ids, &arena)
			if err != nil {
				t.Fatal(err)
			}
			branches := len(fresh.Down)
			if !fresh.UpDests.Empty() {
				branches++
			}
			if len(plans) != branches {
				t.Fatalf("trial %d: %d plans for %d branches", trial, len(plans), branches)
			}
			for k, b := range fresh.Down {
				if plans[k].Port != b.Port || !slices.Equal(plans[k].Child.Dests.Members(), b.Dests.Members()) {
					t.Fatalf("trial %d: plan %d is port %d %v, branch is port %d %v", trial, k,
						plans[k].Port, plans[k].Child.Dests, b.Port, b.Dests)
				}
			}
			if !fresh.UpDests.Empty() && !plans[len(plans)-1].Child.Dests.Equal(fresh.UpDests) {
				t.Fatalf("trial %d: up child carries %v, want %v", trial, plans[len(plans)-1].Child.Dests, fresh.UpDests)
			}
			if !slices.Equal(dests.Words(), words) {
				t.Fatalf("trial %d: decode changed the worm's set from %x to %x", trial, words, dests.Words())
			}
		}
	}
}

func sameDecision(a, b *routing.Decision) bool {
	if len(a.Down) != len(b.Down) || !a.UpDests.Equal(b.UpDests) || !slices.Equal(a.UpCandidates, b.UpCandidates) {
		return false
	}
	for k := range a.Down {
		if a.Down[k].Port != b.Down[k].Port || !slices.Equal(a.Down[k].Dests.Members(), b.Down[k].Dests.Members()) {
			return false
		}
	}
	return true
}

// BenchmarkPlanBranches times one decode on reused scratch for each case
// of TestPlanBranchesAllocations.
func BenchmarkPlanBranches(b *testing.B) {
	r, cases := decodeCases(b)
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			w := caseWorm(r, c)
			var (
				dec   routing.Decision
				plans []Planned
				ids   engine.IDGen
				arena flit.WormArena
			)
			rng := engine.NewRNG(1)
			free := func(int) bool { return true }
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				plans, _, err = PlanBranches(plans[:0], &dec, r, c.sw, w, c.ascending, free, nil, rng, &ids, &arena)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
