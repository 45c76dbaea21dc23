package analytic

import (
	"fmt"
	"math"
	"testing"

	"mdworm/internal/collective"
	"mdworm/internal/core"
	"mdworm/internal/engine"
)

// within asserts simulation tracks the model within the given relative band.
func within(t *testing.T, name string, model, sim float64, band float64) {
	t.Helper()
	if model <= 0 || sim <= 0 {
		t.Fatalf("%s: non-positive latency (model %.1f, sim %.1f)", name, model, sim)
	}
	rel := math.Abs(model-sim) / sim
	if rel > band {
		t.Errorf("%s: model %.1f vs simulation %.1f (%.0f%% off, band %.0f%%)",
			name, model, sim, rel*100, band*100)
	} else {
		t.Logf("%s: model %.1f vs simulation %.1f (%.1f%% off)", name, model, sim, rel*100)
	}
}

// farDests returns d destinations in the subtree farthest from node 0, so
// routes cross the full network (matching the worst-case path model).
func farDests(n, d int) []int {
	out := make([]int, 0, d)
	for i := 0; i < d; i++ {
		out = append(out, n-1-i)
	}
	return out
}

func simOnce(t *testing.T, cfg core.Config, src int, dests []int, mcast bool, payload int) float64 {
	t.Helper()
	sim, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lat, _, err := sim.RunOp(src, dests, mcast, payload, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return float64(lat)
}

func TestModelTracksUnicast(t *testing.T) {
	for _, stages := range []int{2, 3, 4} {
		cfg := core.DefaultConfig()
		cfg.Stages = stages
		cfg.Traffic.OpRate = 0
		m := FromConfig(cfg)
		for _, payload := range []int{16, 64, 256} {
			name := fmt.Sprintf("unicast/N%d/L%d", cfg.N(), payload)
			sim := simOnce(t, cfg, 0, []int{cfg.N() - 1}, false, payload)
			within(t, name, m.Unicast(payload), sim, 0.15)
		}
	}
}

func TestModelTracksHardwareMulticast(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Traffic.OpRate = 0
	m := FromConfig(cfg)
	for _, d := range []int{2, 8, 32} {
		name := fmt.Sprintf("hw-mcast/d%d", d)
		sim := simOnce(t, cfg, 0, farDests(cfg.N(), d), true, 64)
		within(t, name, m.HardwareMulticast(64, d), sim, 0.15)
	}
}

func TestModelTracksSoftwareBinomial(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Scheme = collective.SoftwareBinomial
	cfg.Traffic.OpRate = 0
	m := FromConfig(cfg)
	// The relay-chain bound is tight for d >= 8; at d=2 it is a loose
	// upper bound (no relays on the critical path), so the band widens.
	bands := map[int]float64{2: 0.45, 8: 0.25, 32: 0.25}
	for _, d := range []int{2, 8, 32} {
		name := fmt.Sprintf("sw-binomial/d%d", d)
		// Average over draws: the binomial critical path depends on the
		// destination layout.
		rng := engine.NewRNG(7)
		sum := 0.0
		const draws = 8
		simr, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < draws; i++ {
			dests := rng.Sample(nil, cfg.N(), d, 0, new([]int))
			lat, _, err := simr.RunOp(0, dests, true, 64, 2_000_000)
			if err != nil {
				t.Fatal(err)
			}
			sum += float64(lat)
		}
		measured := sum / draws
		if model := m.SoftwareBinomial(64, d); model < measured {
			t.Errorf("%s: bound %.1f below simulation %.1f", name, model, measured)
		} else {
			within(t, name, model, measured, bands[d])
		}
	}
}

func TestModelTracksSoftwareSeparate(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Scheme = collective.SoftwareSeparate
	cfg.Traffic.OpRate = 0
	m := FromConfig(cfg)
	for _, d := range []int{2, 8, 32} {
		name := fmt.Sprintf("sw-separate/d%d", d)
		sim := simOnce(t, cfg, 0, farDests(cfg.N(), d), true, 64)
		within(t, name, m.SoftwareSeparate(64, d), sim, 0.15)
	}
}

// TestModelOrdering: the model must predict the paper's qualitative
// ordering everywhere the simulator shows it: hardware always wins, and the
// binomial tree beats separate addressing once relaying pays off (the
// conservative relay-chain bound crosses over at d >= 8).
func TestModelOrdering(t *testing.T) {
	m := FromConfig(core.DefaultConfig())
	for _, d := range []int{2, 4, 8, 16, 32, 63} {
		hw := m.HardwareMulticast(64, d)
		sw := m.SoftwareBinomial(64, d)
		sep := m.SoftwareSeparate(64, d)
		if hw >= sw || hw >= sep {
			t.Fatalf("d=%d: hardware not fastest: hw=%.0f sw=%.0f sep=%.0f", d, hw, sw, sep)
		}
		if d >= 8 && sw > sep {
			t.Fatalf("d=%d: binomial above separate addressing: sw=%.0f sep=%.0f", d, sw, sep)
		}
	}
}

// TestSaturationBounds: the measured saturation knees of E1/E2 must lie
// below the analytic ceilings, but within a factor of ~3 (internal
// contention accounts for the gap).
func TestSaturationBounds(t *testing.T) {
	m := FromConfig(core.DefaultConfig())
	hw := m.SaturationLoadBound(collective.HardwareBitString, 64, 8)
	sw := m.SaturationLoadBound(collective.SoftwareBinomial, 64, 8)
	// Measured knees (EXPERIMENTS.md): hardware ~0.63 delivered, software ~0.30.
	const hwKnee, swKnee = 0.63, 0.30
	if hw < hwKnee {
		t.Fatalf("hardware bound %.3f below the measured knee %.2f", hw, hwKnee)
	}
	if hw > 3*hwKnee {
		t.Fatalf("hardware bound %.3f implausibly above the knee %.2f", hw, hwKnee)
	}
	if sw < swKnee {
		t.Fatalf("software bound %.3f below the measured knee %.2f", sw, swKnee)
	}
	if sw > 3*swKnee {
		t.Fatalf("software bound %.3f implausibly above the knee %.2f", sw, swKnee)
	}
	if sw >= hw {
		t.Fatalf("software bound %.3f not below hardware bound %.3f", sw, hw)
	}
}
