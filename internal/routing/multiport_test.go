package routing

import (
	"reflect"
	"sort"
	"testing"

	"mdworm/internal/engine"
	"mdworm/internal/topology"
)

func TestDigitsRoundTrip(t *testing.T) {
	for p := 0; p < 256; p++ {
		d := Digits(p, 4, 4)
		if got := FromDigits(d, 4); got != p {
			t.Fatalf("Digits/FromDigits(%d) = %d", p, got)
		}
	}
	if got := Digits(27, 3, 4); !reflect.DeepEqual(got, []int{3, 2, 1}) {
		t.Fatalf("Digits(27) = %v", got) // 27 = 1*16 + 2*4 + 3
	}
}

func TestProductSetDests(t *testing.T) {
	ps := ProductSet{
		LCAStage: 1,
		PortSets: [][]int{{0, 2}, {1, 3}}, // digit0 in {0,2}, digit1 in {1,3}
		Prefix:   []int{2},                // digit2 = 2
	}
	got := ps.Dests(4)
	// procs = 2*16 + d1*4 + d0 for d1 in {1,3}, d0 in {0,2}
	want := []int{36, 38, 44, 46}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Dests = %v, want %v", got, want)
	}
	if ps.Size() != 4 {
		t.Fatalf("Size = %d", ps.Size())
	}
}

func coverUnion(t *testing.T, net *topology.Network, cover []ProductSet) []int {
	t.Helper()
	seen := map[int]bool{}
	for _, ps := range cover {
		for _, d := range ps.Dests(net.Arity) {
			if seen[d] {
				t.Fatalf("destination %d covered twice", d)
			}
			seen[d] = true
		}
	}
	out := make([]int, 0, len(seen))
	for d := range seen {
		out = append(out, d)
	}
	sort.Ints(out)
	return out
}

func TestMultiportCoverExact(t *testing.T) {
	net, _ := topology.NewKaryTree(4, 3)
	cases := []struct {
		src       int
		dests     []int
		wantWorms int // -1 for "don't check"
	}{
		{0, []int{1}, 1},
		{0, []int{1, 2, 3}, 1},
		{5, []int{4, 6, 7}, -1},
		{0, []int{16, 17, 18, 19}, 1},           // a full remote switch: one worm
		{0, []int{4, 5, 6, 7, 8, 9, 10, 11}, 1}, // product across two switches
		{0, []int{1, 4}, -1},
		{63, []int{0, 21, 42}, -1},
	}
	for _, c := range cases {
		cover, err := MultiportCover(net, c.src, c.dests)
		if err != nil {
			t.Fatalf("cover %v: %v", c.dests, err)
		}
		want := append([]int(nil), c.dests...)
		sort.Ints(want)
		if got := coverUnion(t, net, cover); !reflect.DeepEqual(got, want) {
			t.Fatalf("cover of %v covers %v", c.dests, got)
		}
		if c.wantWorms >= 0 && len(cover) != c.wantWorms {
			t.Fatalf("cover of %v used %d worms, want %d", c.dests, len(cover), c.wantWorms)
		}
	}
}

func TestMultiportCoverBroadcastOneWorm(t *testing.T) {
	net, _ := topology.NewKaryTree(4, 3)
	dests := make([]int, 0, 63)
	for d := 1; d < 64; d++ {
		dests = append(dests, d)
	}
	cover, err := MultiportCover(net, 0, dests)
	if err != nil {
		t.Fatal(err)
	}
	// Broadcast minus the source is not a perfect product (the source's own
	// stage-0 switch misses proc 0), so a handful of worms is expected —
	// but far fewer than 63.
	if len(cover) > 4 {
		t.Fatalf("broadcast cover used %d worms", len(cover))
	}
	if got := coverUnion(t, net, cover); len(got) != 63 {
		t.Fatalf("broadcast cover covers %d", len(got))
	}
}

// Property: for random destination sets, the cover partitions the set
// exactly and every product set lies within the source's LCA subtree.
func TestMultiportCoverQuick(t *testing.T) {
	net, _ := topology.NewKaryTree(4, 3)
	rng := engine.NewRNG(13)
	for trial := 0; trial < 300; trial++ {
		src := rng.Intn(net.N)
		k := rng.Intn(20) + 1
		dests := rng.Sample(nil, net.N, k, src, new([]int))
		cover, err := MultiportCover(net, src, dests)
		if err != nil {
			t.Fatal(err)
		}
		want := append([]int(nil), dests...)
		sort.Ints(want)
		if got := coverUnion(t, net, cover); !reflect.DeepEqual(got, want) {
			t.Fatalf("src %d dests %v: cover covers %v", src, want, got)
		}
		if len(cover) > len(dests) {
			t.Fatalf("cover larger than separate addressing: %d > %d", len(cover), len(dests))
		}
	}
}

func TestMultiportCoverErrors(t *testing.T) {
	net, _ := topology.NewKaryTree(4, 2)
	if _, err := MultiportCover(net, 0, nil); err == nil {
		t.Error("empty dests accepted")
	}
	if _, err := MultiportCover(net, 0, []int{1, 1}); err == nil {
		t.Error("duplicate dests accepted")
	}
	if _, err := MultiportCover(net, 0, []int{99}); err == nil {
		t.Error("out-of-range dest accepted")
	}
}
