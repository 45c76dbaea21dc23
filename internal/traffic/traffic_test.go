package traffic

import (
	"math"
	"slices"
	"testing"
)

func spec() Spec {
	return Spec{
		OpRate:            0.01,
		MulticastFraction: 0.5,
		Degree:            8,
		UniPayloadFlits:   32,
		McastPayloadFlits: 64,
	}
}

func TestValidate(t *testing.T) {
	if err := spec().Validate(64); err != nil {
		t.Fatal(err)
	}
	bad := spec()
	bad.OpRate = 1.5
	if err := bad.Validate(64); err == nil {
		t.Error("rate > 1 accepted")
	}
	bad = spec()
	bad.Degree = 64
	if err := bad.Validate(64); err == nil {
		t.Error("degree = n accepted")
	}
	bad = spec()
	bad.MulticastFraction = -0.1
	if err := bad.Validate(64); err == nil {
		t.Error("negative fraction accepted")
	}
	bad = spec()
	bad.UniPayloadFlits = 0
	if err := bad.Validate(64); err == nil {
		t.Error("zero unicast payload accepted")
	}
	// Pure multicast does not need a unicast payload.
	pure := spec()
	pure.MulticastFraction = 1
	pure.UniPayloadFlits = 0
	if err := pure.Validate(64); err != nil {
		t.Errorf("pure multicast rejected: %v", err)
	}
}

func TestRateForLoad(t *testing.T) {
	s := spec()
	// Delivered payload per op: 0.5*8*64 + 0.5*32 = 272.
	if got := s.MeanDeliveredPayloadFlits(); got != 272 {
		t.Fatalf("mean delivered = %g", got)
	}
	rate := s.RateForLoad(0.272)
	if math.Abs(rate-0.001) > 1e-12 {
		t.Fatalf("rate = %g, want 0.001", rate)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	g1, err := NewGenerator(spec(), 64, 7)
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := NewGenerator(spec(), 64, 7)
	for cycle := 0; cycle < 200; cycle++ {
		for node := 0; node < 64; node++ {
			r1, ok1 := g1.Draw(node)
			r2, ok2 := g2.Draw(node)
			if ok1 != ok2 {
				t.Fatal("same seed diverged in arrivals")
			}
			if !ok1 {
				continue
			}
			if r1.Src != r2.Src || r1.Multicast != r2.Multicast || len(r1.Dests) != len(r2.Dests) {
				t.Fatal("same seed diverged in requests")
			}
			for i := range r1.Dests {
				if r1.Dests[i] != r2.Dests[i] {
					t.Fatal("same seed diverged in destinations")
				}
			}
		}
	}
}

func TestGeneratorRequestValidity(t *testing.T) {
	g, err := NewGenerator(spec(), 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	nMcast, nUni, total := 0, 0, 0
	for cycle := 0; cycle < 5000; cycle++ {
		for node := 0; node < 64; node++ {
			req, ok := g.Draw(node)
			if !ok {
				continue
			}
			total++
			if req.Src != node {
				t.Fatal("wrong source")
			}
			seen := map[int]bool{}
			for _, d := range req.Dests {
				if d < 0 || d >= 64 || d == node || seen[d] {
					t.Fatalf("bad destination set %v for node %d", req.Dests, node)
				}
				seen[d] = true
			}
			if req.Multicast {
				nMcast++
				if len(req.Dests) != 8 || req.Payload != 64 {
					t.Fatalf("bad multicast request %+v", req)
				}
			} else {
				nUni++
				if len(req.Dests) != 1 || req.Payload != 32 {
					t.Fatalf("bad unicast request %+v", req)
				}
			}
		}
	}
	// Rate: expect 64 * 5000 * 0.01 = 3200 ops, within 10%.
	if total < 2900 || total > 3500 {
		t.Fatalf("generated %d ops, expected about 3200", total)
	}
	// Mix: about half multicast.
	frac := float64(nMcast) / float64(total)
	if frac < 0.42 || frac > 0.58 {
		t.Fatalf("multicast fraction %.2f, expected about 0.5", frac)
	}
}

func TestGeneratorNodeIndependence(t *testing.T) {
	// Drawing nodes in a different order must not change a node's stream.
	g1, err := NewGenerator(spec(), 16, 11)
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := NewGenerator(spec(), 16, 11)
	var a, b []Request
	for cycle := 0; cycle < 500; cycle++ {
		// A request's Dests is the generator's until its next draw, so
		// the kept requests copy theirs.
		for node := 0; node < 16; node++ {
			if r, ok := g1.Draw(node); ok && node == 3 {
				r.Dests = slices.Clone(r.Dests)
				a = append(a, r)
			}
		}
		for node := 15; node >= 0; node-- {
			if r, ok := g2.Draw(node); ok && node == 3 {
				r.Dests = slices.Clone(r.Dests)
				b = append(b, r)
			}
		}
	}
	if len(a) != len(b) {
		t.Fatalf("node 3 stream length differs: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Multicast != b[i].Multicast || !slices.Equal(a[i].Dests, b[i].Dests) {
			t.Fatalf("node 3 request %d differs under reordering: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestPickOtherNeverSelf(t *testing.T) {
	g, _ := NewGenerator(Spec{OpRate: 1, MulticastFraction: 0, UniPayloadFlits: 1}, 4, 5)
	for cycle := 0; cycle < 1000; cycle++ {
		for node := 0; node < 4; node++ {
			req, ok := g.Draw(node)
			if !ok {
				continue
			}
			if req.Dests[0] == node {
				t.Fatal("unicast to self")
			}
		}
	}
}

func TestHotSpotTraffic(t *testing.T) {
	s := Spec{
		OpRate:          0.05,
		UniPayloadFlits: 16,
		HotSpotFraction: 0.5,
		HotSpotNode:     7,
	}
	g, err := NewGenerator(s, 64, 9)
	if err != nil {
		t.Fatal(err)
	}
	hot, total := 0, 0
	for cycle := 0; cycle < 2000; cycle++ {
		for node := 0; node < 64; node++ {
			req, ok := g.Draw(node)
			if !ok {
				continue
			}
			total++
			if req.Dests[0] == 7 {
				hot++
			}
		}
	}
	frac := float64(hot) / float64(total)
	// Half the traffic targets the hot node plus the uniform share.
	if frac < 0.40 || frac > 0.62 {
		t.Fatalf("hot-spot fraction %.2f, expected about 0.5", frac)
	}
}

func TestHotSpotValidation(t *testing.T) {
	bad := Spec{OpRate: 0.1, UniPayloadFlits: 8, HotSpotFraction: 1.5}
	if err := bad.Validate(16); err == nil {
		t.Error("fraction > 1 accepted")
	}
	bad = Spec{OpRate: 0.1, UniPayloadFlits: 8, HotSpotFraction: 0.5, HotSpotNode: 99}
	if err := bad.Validate(16); err == nil {
		t.Error("out-of-range hot node accepted")
	}
}

// TestDrawAllocatesNothing checks that a warm generator draws multicast,
// unicast and hot-spot requests into storage it owns.
func TestDrawAllocatesNothing(t *testing.T) {
	hot := spec()
	hot.HotSpotFraction, hot.HotSpotNode = 0.5, 3
	for name, s := range map[string]Spec{"bimodal": spec(), "hot spot": hot} {
		s.OpRate = 1
		g, err := NewGenerator(s, 64, 7)
		if err != nil {
			t.Fatal(err)
		}
		node := 0
		draw := func() {
			if _, ok := g.Draw(node); !ok {
				t.Fatalf("%s: a generator at rate 1 drew nothing", name)
			}
			node = (node + 1) % 64
		}
		for range 64 { // the first draws grow the generator's storage
			draw()
		}
		if n := testing.AllocsPerRun(200, draw); n != 0 {
			t.Errorf("%s: a warm Draw allocates %v times", name, n)
		}
	}
}
