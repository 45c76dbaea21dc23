package core

import (
	"fmt"
	"runtime"
	"testing"

	"mdworm/internal/engine"
)

// wireBound is a component registered after the whole fabric, so it steps
// last in every cycle, and it never sleeps. It fails the test if any link
// holds more flits than a promptly drained wire can: latency+1.
type wireBound struct {
	t     *testing.T
	links []*engine.Link
	limit int
	peak  int
}

func (w *wireBound) Name() string   { return "wire-bound" }
func (w *wireBound) Quiesced() bool { return true }
func (w *wireBound) Step(now int64) {
	for _, l := range w.links {
		n := l.InFlight()
		if n > w.limit {
			w.t.Fatalf("cycle %d: link %s holds %d flits, above the wire bound %d", now, l.Name(), n, w.limit)
		}
		w.peak = max(w.peak, n)
	}
}

// TestLinksHoldAtMostTheWire checks the bound that sizes every link's
// in-flight ring: in loaded runs of both architectures, every receiver
// takes each flit on its arrival cycle, so no link ever holds more than
// latency+1 flits.
func TestLinksHoldAtMostTheWire(t *testing.T) {
	for _, arch := range []SwitchArch{CentralBuffer, InputBuffer} {
		for _, latency := range []int{1, 3} {
			t.Run(fmt.Sprintf("%v/latency-%d", arch, latency), func(t *testing.T) {
				t.Parallel()
				cfg := quickCfg()
				cfg.Arch = arch
				cfg.LinkLatency = latency
				cfg.Traffic.MulticastFraction = 0.5
				sim, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				check := &wireBound{t: t, links: sim.sim.Links(), limit: latency + 1}
				sim.sim.AddComponent(check)
				if _, err := sim.Run(); err != nil {
					t.Fatal(err)
				}
				if check.peak < latency {
					t.Fatalf("busiest wire held %d flits: the run never filled a %d-cycle wire", check.peak, latency)
				}
			})
		}
	}
}

// footprint returns the bytes core.New allocates for cfg and the live heap
// it leaves behind.
func footprint(t *testing.T, cfg Config) (total, live uint64) {
	t.Helper()
	var before, built, kept runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sim, err := New(cfg)
	runtime.ReadMemStats(&built)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&kept)
	runtime.KeepAlive(sim)
	return built.TotalAlloc - before.TotalAlloc, kept.HeapAlloc - min(kept.HeapAlloc, before.HeapAlloc)
}

// TestSimulatorFootprint pins what building a simulator costs: link state
// is sized by the wire, so a 256-node input-buffer system, whose links each
// grant 576 credits, is built in a few megabytes. Not parallel: it reads
// process-wide allocation counters.
func TestSimulatorFootprint(t *testing.T) {
	for _, c := range []struct {
		stages            int
		maxTotal, maxLive float64 // MB
	}{
		{3, 2, 1},
		{4, 8, 4},
	} {
		cfg := DefaultConfig()
		cfg.Arch = InputBuffer
		cfg.Stages = c.stages
		total, live := footprint(t, cfg)
		totalMB, liveMB := float64(total)/1e6, float64(live)/1e6
		t.Logf("%d nodes: %.2f MB allocated, %.2f MB live", cfg.N(), totalMB, liveMB)
		if totalMB >= c.maxTotal || liveMB >= c.maxLive {
			t.Errorf("%d nodes: core.New allocated %.2f MB and kept %.2f MB live, want under %g and %g MB",
				cfg.N(), totalMB, liveMB, c.maxTotal, c.maxLive)
		}
	}
}
