package core

import (
	"testing"

	"mdworm/internal/collective"
	"mdworm/internal/engine"
)

// TestRegressionMixedTrafficWedge replays the exact configuration that once
// wedged the central-buffer switch (partial unicast buffering starving an
// output-queue head — see the package comment of internal/switches/centralbuf);
// it must now drain cleanly. On failure it dumps every switch that still
// holds work.
func TestRegressionMixedTrafficWedge(t *testing.T) {
	if testing.Short() {
		t.Skip("regression stress skipped in -short mode")
	}
	cfg := DefaultConfig()
	cfg.Arch = CentralBuffer
	cfg.Scheme = collective.SoftwareBinomial
	cfg.Traffic.MulticastFraction = 0.5
	cfg.Traffic.Degree = 8
	cfg.Traffic.OpRate = 0.02
	cfg.WarmupCycles = 500
	cfg.MeasureCycles = 3000
	cfg.DrainCycles = 2_000_000
	cfg.WatchdogLimit = 30_000
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sim.Run()
	if err == nil {
		return
	}
	if _, ok := err.(*engine.DeadlockError); !ok {
		t.Fatalf("unexpected error: %v", err)
	}
	for _, sw := range sim.sws {
		if !sw.Quiesced() {
			t.Log("\n" + sw.Dump())
		}
	}
	t.Fatalf("deadlock: %v", err)
}
