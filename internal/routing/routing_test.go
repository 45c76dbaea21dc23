package routing

import (
	"testing"

	"mdworm/internal/bitset"
	"mdworm/internal/engine"
	"mdworm/internal/flit"
	"mdworm/internal/topology"
)

func newRouter(t *testing.T, arity, stages int, repUp bool) *Router {
	t.Helper()
	net, err := topology.NewKaryTree(arity, stages)
	if err != nil {
		t.Fatal(err)
	}
	return &Router{Net: net, ReplicateOnUpPath: repUp, Policy: UpHash}
}

func TestUnicastAllPairs(t *testing.T) {
	r := newRouter(t, 4, 3, true)
	msg := &flit.Message{ID: 99}
	for src := 0; src < r.Net.N; src++ {
		for dst := 0; dst < r.Net.N; dst++ {
			if src == dst {
				continue
			}
			hops, err := r.UnicastHops(src, dst, msg)
			if err != nil {
				t.Fatalf("unicast %d->%d: %v", src, dst, err)
			}
			// Minimal hop count: 2*lca+1 switches.
			lca := r.Net.LCAStage(src, bitset.FromSlice(r.Net.N, []int{dst}))
			if want := 2*lca + 1; len(hops) != want {
				t.Fatalf("unicast %d->%d took %d hops, want %d", src, dst, len(hops), want)
			}
		}
	}
}

func TestUnicastSelfRejected(t *testing.T) {
	r := newRouter(t, 4, 2, true)
	if _, err := r.UnicastHops(3, 3, &flit.Message{}); err == nil {
		t.Fatal("src==dst accepted")
	}
}

func TestRouteEmptyDestsRejected(t *testing.T) {
	r := newRouter(t, 4, 2, true)
	sw := r.Net.Switches[0]
	if err := r.Route(sw, bitset.New(r.Net.N), true, new(Decision)); err == nil {
		t.Fatal("empty dest set accepted")
	}
}

func TestRouteDescendingUnreachableRejected(t *testing.T) {
	r := newRouter(t, 4, 2, true)
	sw := r.Net.SwitchAt(0, 0) // reaches procs 0..3
	dests := bitset.FromSlice(r.Net.N, []int{9})
	if err := r.Route(sw, dests, false, new(Decision)); err == nil {
		t.Fatal("descending worm with unreachable dest accepted")
	}
}

// TestRoutePartition: for any destination set at any switch, the branch
// destination subsets are disjoint and their union (down branches plus the
// ascending residue) equals the input set.
func TestRoutePartition(t *testing.T) {
	for _, repUp := range []bool{true, false} {
		r := newRouter(t, 4, 3, repUp)
		rng := engine.NewRNG(77)
		for trial := 0; trial < 500; trial++ {
			sw := r.Net.Switches[rng.Intn(len(r.Net.Switches))]
			k := rng.Intn(10) + 1
			dests := bitset.FromSlice(r.Net.N, rng.Sample(r.Net.N, k, -1, new([]int)))
			ascending := rng.Intn(2) == 0
			if !ascending {
				// Descending worms must stay within reach; clamp.
				dests = dests.And(sw.ReachAll())
				if dests.Empty() {
					continue
				}
			}
			var dec Decision
			err := r.Route(sw, dests, ascending, &dec)
			if err != nil {
				t.Fatal(err)
			}
			union := bitset.New(r.Net.N)
			covered := 0
			for _, b := range dec.Down {
				if union.Intersects(b.Dests) {
					t.Fatalf("overlapping branch subsets at switch %d", sw.ID)
				}
				union.OrIn(b.Dests)
				covered += b.Dests.Count()
				if !b.Dests.And(sw.Ports[b.Port].Reach).Equal(b.Dests) {
					t.Fatalf("branch dests outside port reach at switch %d", sw.ID)
				}
			}
			if !dec.UpDests.Empty() {
				if union.Intersects(dec.UpDests) && repUp {
					t.Fatalf("up residue overlaps down branches at switch %d", sw.ID)
				}
				union.OrIn(dec.UpDests)
			}
			if !union.Equal(dests) {
				t.Fatalf("branch union %v != dests %v at switch %d (repUp=%v)",
					union, dests, sw.ID, repUp)
			}
		}
	}
}

// TestRouteLCAOnlyNoEarlyBranches: with ReplicateOnUpPath disabled, an
// ascending worm with any unreachable destination must produce no down
// branches.
func TestRouteLCAOnlyNoEarlyBranches(t *testing.T) {
	r := newRouter(t, 4, 3, false)
	sw := r.Net.SwitchAt(0, 0) // reaches 0..3
	dests := bitset.FromSlice(r.Net.N, []int{1, 2, 40})
	var dec Decision
	err := r.Route(sw, dests, true, &dec)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Down) != 0 {
		t.Fatalf("lca-only produced %d early down branches", len(dec.Down))
	}
	if !dec.UpDests.Equal(dests) {
		t.Fatalf("up residue %v, want full set", dec.UpDests)
	}
}

// TestRouteReplicateUpBranchesEarly: the same case with replication on the
// up path must cover 1 and 2 immediately and ascend only for 40.
func TestRouteReplicateUpBranchesEarly(t *testing.T) {
	r := newRouter(t, 4, 3, true)
	sw := r.Net.SwitchAt(0, 0)
	dests := bitset.FromSlice(r.Net.N, []int{1, 2, 40})
	var dec Decision
	err := r.Route(sw, dests, true, &dec)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Down) != 2 {
		t.Fatalf("got %d down branches, want 2 (procs 1 and 2)", len(dec.Down))
	}
	if got := dec.UpDests.Members(); len(got) != 1 || got[0] != 40 {
		t.Fatalf("up residue = %v, want {40}", got)
	}
}

// TestRouteTurnaround: an ascending worm whose destinations are all within
// reach turns downward with no up branch, even out the arrival subtree.
func TestRouteTurnaround(t *testing.T) {
	for _, repUp := range []bool{true, false} {
		r := newRouter(t, 4, 2, repUp)
		sw := r.Net.SwitchAt(1, 0) // top stage, reaches all 16
		dests := bitset.FromSlice(r.Net.N, []int{0, 5, 10, 15})
		var dec Decision
		err := r.Route(sw, dests, true, &dec)
		if err != nil {
			t.Fatal(err)
		}
		if !dec.UpDests.Empty() {
			t.Fatal("turnaround worm still ascending")
		}
		if len(dec.Down) != 4 {
			t.Fatalf("got %d branches, want 4", len(dec.Down))
		}
	}
}

func TestPickUpPolicies(t *testing.T) {
	r := newRouter(t, 4, 3, true)
	sw := r.Net.SwitchAt(0, 0)
	dests := bitset.FromSlice(r.Net.N, []int{63})
	var dec Decision
	err := r.Route(sw, dests, true, &dec)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.UpCandidates) != 4 {
		t.Fatalf("up candidates = %v", dec.UpCandidates)
	}
	msg := &flit.Message{ID: 5, Src: 0}

	// Hash: deterministic.
	r.Policy = UpHash
	first := r.PickUp(&dec, msg, nil, engine.NewRNG(1))
	for i := 0; i < 10; i++ {
		if got := r.PickUp(&dec, msg, nil, engine.NewRNG(uint64(i))); got != first {
			t.Fatal("hash policy not deterministic")
		}
	}

	// Random: stays within candidates and varies.
	r.Policy = UpRandom
	rng := engine.NewRNG(3)
	seen := map[int]bool{}
	for i := 0; i < 100; i++ {
		got := r.PickUp(&dec, msg, nil, rng)
		found := false
		for _, c := range dec.UpCandidates {
			if c == got {
				found = true
			}
		}
		if !found {
			t.Fatalf("random pick %d not a candidate", got)
		}
		seen[got] = true
	}
	if len(seen) < 2 {
		t.Fatal("random policy never varied")
	}

	// Adaptive: picks the first free port, falls back to hash.
	r.Policy = UpAdaptive
	free := func(p int) bool { return p == dec.UpCandidates[2] }
	if got := r.PickUp(&dec, msg, free, engine.NewRNG(1)); got != dec.UpCandidates[2] {
		t.Fatalf("adaptive picked %d, want %d", got, dec.UpCandidates[2])
	}
	noneFree := func(int) bool { return false }
	if got := r.PickUp(&dec, msg, noneFree, engine.NewRNG(1)); got != first {
		t.Fatalf("adaptive fallback picked %d, want hash choice %d", got, first)
	}
}

func TestPolicyStrings(t *testing.T) {
	if UpHash.String() != "hash" || UpRandom.String() != "random" || UpAdaptive.String() != "adaptive" {
		t.Fatal("policy names wrong")
	}
}
