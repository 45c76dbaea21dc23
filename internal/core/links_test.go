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
// grant 576 credits, is built in a few megabytes. A system whose fabric
// shape the process has already built reads the shared fabric instead of
// building its own, and one rebuilt from a released simulator of its fabric
// and architecture allocates a small fraction of a new build. Not
// parallel: it reads process-wide allocation counters.
func TestSimulatorFootprint(t *testing.T) {
	const (
		first    = iota // the first build of its shape in the process
		warm            // the fabric shape is already built
		recycled        // a released simulator of the fabric is parked
	)
	for _, c := range []struct {
		arch              SwitchArch
		stages            int
		build             int
		maxTotal, maxLive float64 // MB
	}{
		{InputBuffer, 3, first, 2, 1},
		{InputBuffer, 4, first, 8, 4},
		{CentralBuffer, 3, warm, 0.35, 0.31},
		{CentralBuffer, 4, warm, 1.8, 1.6},
		{CentralBuffer, 3, recycled, 0.015, 0.015},
		{CentralBuffer, 4, recycled, 0.075, 0.075},
	} {
		cfg := DefaultConfig()
		cfg.Arch = c.arch
		cfg.Stages = c.stages
		switch {
		case c.build != first && !reuse:
			t.Logf("%d nodes: skipped, the oracle build shares no fabric and recycles no simulator", cfg.N())
			continue
		case c.build == first:
			fabrics.Lock()
			fabrics.lru = nil // drops the parked simulators too
			fabrics.Unlock()
		default:
			dropParked()
			sim, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if c.build == recycled {
				Release(sim)
			}
		}
		total, live := footprint(t, cfg)
		totalMB, liveMB := float64(total)/1e6, float64(live)/1e6
		t.Logf("%d nodes %v (build %d): %.3f MB allocated, %.3f MB live", cfg.N(), c.arch, c.build, totalMB, liveMB)
		if totalMB >= c.maxTotal || liveMB >= c.maxLive {
			t.Errorf("%d nodes %v: core.New allocated %.3f MB and kept %.3f MB live, want under %g and %g MB",
				cfg.N(), c.arch, totalMB, liveMB, c.maxTotal, c.maxLive)
		}
	}
}
