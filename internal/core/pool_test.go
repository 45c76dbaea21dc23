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
			dropParked() // a recycled pool may never need to carve
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

// TestMessageAndOpPoolsStopCarving checks that messages and ops are
// recycled once their last holder lets go: after the live population of a
// loaded fabric has peaked, new ops and messages reuse released ones and
// the pool carves no further message or op chunk. The populations peak at
// 17/16/48 ops and 17/16/146 messages; the last of these peaks, SW-UMIN's
// messages, comes at cycle 22,362. Without recycling each contender carves
// tens of chunks per 5,000 cycles here.
func TestMessageAndOpPoolsStopCarving(t *testing.T) {
	const settled, end = 25_000, 50_000
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
			cfg.Traffic.OpRate = cfg.Traffic.RateForLoad(0.2)
			dropParked() // a recycled pool may never need to carve
			sim, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			msgs, ops := map[int64]int{}, map[int64]int{}
			_, err = sim.RunCheckpointed(5_000, func(_ []byte, cycle int64) error {
				msgs[cycle], ops[cycle] = sim.worms.MessageChunks(), sim.worms.OpChunks()
				if cycle == end {
					return errEnd
				}
				return nil
			})
			if !errors.Is(err, errEnd) {
				t.Fatalf("run ended with %v before cycle %d", err, end)
			}
			t.Logf("message chunks by cycle: %v; op chunks: %v", msgs, ops)
			if msgs[settled] == 0 || msgs[end] != msgs[settled] || ops[settled] == 0 || ops[end] != ops[settled] {
				t.Fatalf("pool carved %d message and %d op chunks by cycle %d, %d and %d by cycle %d; want no new chunk",
					msgs[settled], ops[settled], settled, msgs[end], ops[end], end)
			}
		})
	}
}
