package core

import (
	"testing"

	"mdworm/internal/collective"
	"mdworm/internal/stats"
)

// barrierReps runs reps back-to-back collective.Barrier reps (binomial
// gather, then one release under scheme) from cycle 0 on an otherwise idle
// fabric, and returns their results after checking every rep came out clean
// and the system drained.
func barrierReps(t *testing.T, cfg Config, scheme collective.Scheme, reps int) *stats.CollectiveResults {
	t.Helper()
	cfg.Scheme = scheme
	cfg.Traffic.OpRate = 0
	cfg.WarmupCycles, cfg.MeasureCycles = 0, 0
	cfg.Collective = collective.Spec{Kind: collective.Barrier, Reps: reps}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatalf("%v: %v", scheme, err)
	}
	if !sim.Quiesced() {
		t.Fatalf("%v: network not drained after barrier", scheme)
	}
	c := res.Collective
	if c.LastArrival.Count != reps || c.LastArrival.Min <= 0 {
		t.Fatalf("%v: %d of %d reps clean, latency %+v", scheme, c.LastArrival.Count, reps, c.LastArrival)
	}
	return c
}

// barrierLatency is the latency of one collective barrier under scheme.
func barrierLatency(t *testing.T, cfg Config, scheme collective.Scheme) int64 {
	t.Helper()
	return int64(barrierReps(t, cfg, scheme, 1).LastArrival.Mean)
}

// TestBarrierSchemes: after the same binomial gather, one hardware
// multidestination release worm beats the software U-MIN release tree.
func TestBarrierSchemes(t *testing.T) {
	sw := barrierLatency(t, DefaultConfig(), collective.SoftwareBinomial)
	hw := barrierLatency(t, DefaultConfig(), collective.HardwareBitString)
	t.Logf("barrier latency: software=%d hw-release=%d", sw, hw)
	if hw >= sw {
		t.Fatalf("hardware release (%d) not faster than software broadcast (%d)", hw, sw)
	}
}

func TestBarrierRequiresIdle(t *testing.T) {
	cfg := DefaultConfig()
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.genOn = true
	if _, err := sim.RunCombiningBarrier(1000); err == nil {
		t.Fatal("barrier allowed with generation on")
	}
}

// TestBarrierRepeatable: back-to-back barrier reps on an idle fabric take
// exactly the same time.
func TestBarrierRepeatable(t *testing.T) {
	c := barrierReps(t, DefaultConfig(), collective.HardwareBitString, 2)
	if c.LastArrival.Min != c.LastArrival.Max {
		t.Fatalf("back-to-back barriers differ on an idle network: %v vs %v", c.LastArrival.Min, c.LastArrival.Max)
	}
}

// TestBarrierOnIrregularFabric: the barrier schedule is topology-agnostic.
func TestBarrierOnIrregularFabric(t *testing.T) {
	cfg := irregularCfg(21)
	hw := barrierLatency(t, cfg, collective.HardwareBitString)
	sw := barrierLatency(t, cfg, collective.SoftwareBinomial)
	if hw >= sw {
		t.Fatalf("irregular barrier: hw=%d sw=%d", hw, sw)
	}
}

// TestCombiningBarrier: the in-switch combining barrier must beat both
// NIC-level schemes (no binomial gather, no per-hop software overheads) and
// scale with tree depth only.
func TestCombiningBarrier(t *testing.T) {
	lat := map[int]int64{}
	for _, stages := range []int{2, 3, 4} {
		cfg := DefaultConfig()
		cfg.Stages = stages
		cfg.Traffic.OpRate = 0
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		l, err := sim.RunCombiningBarrier(5_000_000)
		if err != nil {
			t.Fatalf("stages=%d: %v", stages, err)
		}
		if !sim.Quiesced() {
			t.Fatalf("stages=%d: not drained", stages)
		}
		lat[stages] = l
		// Repeatable back-to-back (counters reset properly).
		l2, err := sim.RunCombiningBarrier(5_000_000)
		if err != nil || l2 != l {
			t.Fatalf("stages=%d: second barrier %d (err %v), first %d", stages, l2, err, l)
		}
	}
	if !(lat[2] < lat[3] && lat[3] < lat[4]) {
		t.Fatalf("combining latency not increasing with depth: %v", lat)
	}

	// Compare all three schemes at N=64.
	cfg := DefaultConfig()
	cfg.Traffic.OpRate = 0
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	comb, err := sim.RunCombiningBarrier(5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	rel := barrierLatency(t, cfg, collective.HardwareBitString)
	sw := barrierLatency(t, cfg, collective.SoftwareBinomial)
	t.Logf("barrier N=64: combining=%d release=%d software=%d", comb, rel, sw)
	if !(comb < rel && rel < sw) {
		t.Fatalf("ordering violated: combining=%d release=%d software=%d", comb, rel, sw)
	}
}

// TestCombiningBarrierOnInputBuffer: the input-buffered switch implements
// the same combining protocol.
func TestCombiningBarrierOnInputBuffer(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Arch = InputBuffer
	cfg.Traffic.OpRate = 0
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := sim.RunCombiningBarrier(5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if l <= 0 || !sim.Quiesced() {
		t.Fatalf("ib combining barrier: lat=%d quiesced=%v", l, sim.Quiesced())
	}
	// Tree-depth-dominated: far below the NIC-level schemes.
	if l > 300 {
		t.Fatalf("ib combining barrier too slow: %d", l)
	}
}

// TestCombiningBarrierIrregular: the combining tree generalizes to
// irregular fabrics (every switch has at most one parent).
func TestCombiningBarrierIrregular(t *testing.T) {
	cfg := irregularCfg(33)
	cfg.Traffic.OpRate = 0
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := sim.RunCombiningBarrier(5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if l <= 0 || !sim.Quiesced() {
		t.Fatalf("irregular combining barrier: lat=%d quiesced=%v", l, sim.Quiesced())
	}
}

// TestCombiningBarrierAfterTraffic: a barrier right after a drained data
// burst works (combining state is independent of data paths).
func TestCombiningBarrierAfterTraffic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Traffic.OpRate = 0
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sim.RunOp(0, []int{1, 9, 33}, true, 64, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunCombiningBarrier(5_000_000); err != nil {
		t.Fatal(err)
	}
}
