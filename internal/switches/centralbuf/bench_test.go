package centralbuf

import (
	"math"
	"testing"

	"mdworm/internal/engine"
	"mdworm/internal/switches/switchtest"
)

// BenchmarkStep drives one switch with the randomized switchtest traffic
// for b.N loaded cycles, then drains it. The fault schedule lies past the
// run, so every link stays up. Besides the time and allocations per loaded
// cycle it reports the time per flit the switch forwards.
func BenchmarkStep(b *testing.B) {
	cfg := testConfig()
	tr := switchtest.New(11, 4, cfg.InFIFOFlits, math.MaxInt64)
	sw := New(cfg, tr.Node, tr.Router, tr.Ports, engine.NewRNG(1), &tr.IDs, &tr.Worms, tr.Sim)
	tr.Sim.AddComponent(sw)
	b.ReportAllocs()
	b.ResetTimer()
	tr.Run(b, sw, int64(b.N), func(int64) {})
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(sw.Stats().FlitsOut, 1)), "ns/flit")
}
