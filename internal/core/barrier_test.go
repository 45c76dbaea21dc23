package core

import (
	"errors"
	"reflect"
	"testing"

	"mdworm/internal/collective"
	"mdworm/internal/stats"
	"mdworm/internal/switches"
	"mdworm/internal/switches/centralbuf"
	"mdworm/internal/switches/inputbuf"
)

// barrierReps runs reps back-to-back barrier reps of kind from cycle 0 on an
// otherwise idle fabric — collective.Barrier (binomial gather, then one
// release under scheme) or collective.CombiningBarrier (switch tokens) — and
// returns their results after checking every rep came out clean and the
// system drained.
func barrierReps(t *testing.T, cfg Config, kind collective.Kind, scheme collective.Scheme, reps int) *stats.CollectiveResults {
	t.Helper()
	cfg.Scheme = scheme
	cfg.Traffic.OpRate = 0
	cfg.WarmupCycles, cfg.MeasureCycles = 0, 0
	cfg.Collective = collective.Spec{Kind: kind, Reps: reps}
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
	return int64(barrierReps(t, cfg, collective.Barrier, scheme, 1).LastArrival.Mean)
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

// TestBarrierRequiresIdle: New rejects a combining barrier alongside
// stochastic load.
func TestBarrierRequiresIdle(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Collective = collective.Spec{Kind: collective.CombiningBarrier, Reps: 1}
	if _, err := New(cfg); err == nil {
		t.Fatal("barrier allowed with generation on")
	}
}

// TestBarrierRepeatable: back-to-back barrier reps on an idle fabric take
// exactly the same time.
func TestBarrierRepeatable(t *testing.T) {
	c := barrierReps(t, DefaultConfig(), collective.Barrier, collective.HardwareBitString, 2)
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
		c := barrierReps(t, cfg, collective.CombiningBarrier, cfg.Scheme, 2)
		l, l2 := int64(c.LastArrival.Min), int64(c.LastArrival.Max)
		lat[stages] = l
		// Repeatable back-to-back (counters reset properly).
		if l2 != l {
			t.Fatalf("stages=%d: second barrier %d, first %d", stages, l2, l)
		}
	}
	if !(lat[2] < lat[3] && lat[3] < lat[4]) {
		t.Fatalf("combining latency not increasing with depth: %v", lat)
	}

	// Compare all three schemes at N=64.
	cfg := DefaultConfig()
	comb := int64(barrierReps(t, cfg, collective.CombiningBarrier, cfg.Scheme, 1).LastArrival.Mean)
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
	l := int64(barrierReps(t, cfg, collective.CombiningBarrier, cfg.Scheme, 1).LastArrival.Mean)
	// Tree-depth-dominated: far below the NIC-level schemes.
	if l > 300 {
		t.Fatalf("ib combining barrier too slow: %d", l)
	}
}

// TestCombiningBarrierIrregular: the combining tree generalizes to
// irregular fabrics (every switch has at most one parent).
func TestCombiningBarrierIrregular(t *testing.T) {
	cfg := irregularCfg(33)
	barrierReps(t, cfg, collective.CombiningBarrier, cfg.Scheme, 1)
}

// TestCombiningBarrierAfterTraffic: a barrier right after a drained data
// burst works (combining state is independent of data paths).
func TestCombiningBarrierAfterTraffic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Traffic.OpRate = 0
	cfg.MeasureCycles = 0
	cfg.Collective = collective.Spec{Kind: collective.CombiningBarrier, Reps: 1}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The burst must complete within the warmup: the barrier's rep begins
	// at its end.
	if _, _, err := sim.RunOp(0, []int{1, 9, 33}, true, 64, cfg.WarmupCycles); err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if c := res.Collective; c.Completed != 1 || c.LastArrival.Count != 1 {
		t.Fatalf("barrier after traffic: %+v", c)
	}
}

// combining reports whether any switch of sim holds barrier tokens in its
// combiner: counted toward a combine, or waiting to leave.
func combining(sim *Simulator) bool {
	for _, sw := range sim.sws {
		var c *switches.Combiner
		switch sw := sw.(type) {
		case *centralbuf.Switch:
			c = &sw.Tokens
		case *inputbuf.Switch:
			c = &sw.Tokens
		}
		if !c.Quiesced() {
			return true
		}
	}
	return false
}

// TestCombiningBarrierCheckpoint: a run snapshotted inside its second
// combining-barrier rep, while tokens sit in a switch combiner, restores on
// both switch organizations and finishes with the uninterrupted run's
// results.
func TestCombiningBarrierCheckpoint(t *testing.T) {
	for _, arch := range []SwitchArch{CentralBuffer, InputBuffer} {
		cfg := DefaultConfig()
		cfg.Arch = arch
		cfg.Traffic.OpRate = 0
		cfg.WarmupCycles, cfg.MeasureCycles = 0, 0
		cfg.Collective = collective.Spec{Kind: collective.CombiningBarrier, Reps: 3, GapCycles: 10}
		ref, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Run()
		if err != nil {
			t.Fatal(err)
		}

		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var blob []byte
		_, err = sim.RunCheckpointed(1, func(data []byte, cycle int64) error {
			if sim.cdrv.rep == 1 && combining(sim) {
				blob = data
				return errSnapAbort
			}
			return nil
		})
		if !errors.Is(err, errSnapAbort) {
			t.Fatalf("%v: no snapshot with tokens in a combiner (run ended with %v)", arch, err)
		}
		restored, err := Restore(blob)
		if err != nil {
			t.Fatalf("%v: restore: %v", arch, err)
		}
		if !combining(restored) {
			t.Fatalf("%v: restored switches hold no barrier tokens", arch)
		}
		got, err := restored.Run()
		if err != nil {
			t.Fatalf("%v: resumed run: %v", arch, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%v: resumed results differ\nwant %+v\ngot  %+v", arch, want, got)
		}
	}
}
