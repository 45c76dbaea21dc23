//go:build !mdworm_oracle

package core

import (
	"errors"
	"testing"

	"mdworm/internal/collective"
)

// TestWormPoolStopsCarving checks that worms are recycled on every data
// path: once the in-flight worm population of a loaded fabric has peaked,
// forks and injections reuse released worms and the simulation's pool
// carves no further chunk. Without recycling each contender carves about a
// hundred chunks per 5,000 cycles here.
func TestWormPoolStopsCarving(t *testing.T) {
	const settled, end = 10_000, 40_000
	errEnd := errors.New("end of window")
	for _, c := range []struct {
		name   string
		arch   SwitchArch
		scheme collective.Scheme
	}{
		{"cb-hw", CentralBuffer, collective.HardwareBitString},
		{"ib-hw", InputBuffer, collective.HardwareBitString},
		{"sw-umin", CentralBuffer, collective.SoftwareBinomial},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Arch, cfg.Scheme = c.arch, c.scheme
			cfg.MeasureCycles = end - cfg.WarmupCycles
			cfg.Traffic.OpRate = cfg.Traffic.RateForLoad(0.5)
			sim, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			chunks := map[int64]int{}
			_, err = sim.RunCheckpointed(settled, func(_ []byte, cycle int64) error {
				chunks[cycle] = sim.worms.Chunks()
				if cycle == end {
					return errEnd
				}
				return nil
			})
			if !errors.Is(err, errEnd) {
				t.Fatalf("run ended with %v before cycle %d", err, end)
			}
			t.Logf("worm chunks carved by cycle: %v", chunks)
			if chunks[settled] == 0 || chunks[end] != chunks[settled] {
				t.Fatalf("pool carved %d chunks by cycle %d and %d by cycle %d, want no new chunk",
					chunks[settled], settled, chunks[end], end)
			}
		})
	}
}
