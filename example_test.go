package mdworm_test

import (
	"fmt"

	"mdworm"
)

// ExampleNew runs the baseline system at a light multiple-multicast load
// and prints whether every operation completed.
func ExampleNew() {
	cfg := mdworm.DefaultConfig()
	cfg.WarmupCycles = 500
	cfg.MeasureCycles = 2000
	cfg.Traffic.MulticastFraction = 1.0
	cfg.Traffic.Degree = 8
	cfg.Traffic.OpRate = cfg.Traffic.RateForLoad(0.1)

	sim, err := mdworm.New(cfg)
	if err != nil {
		panic(err)
	}
	res, err := sim.Run()
	if err != nil {
		panic(err)
	}
	fmt.Println("all multicasts delivered:", res.Multicast.OpsCompleted == res.Multicast.OpsGenerated)
	fmt.Println("saturated:", res.Saturated)
	// Output:
	// all multicasts delivered: true
	// saturated: false
}

// ExampleSimulator_RunOp measures one hardware multicast on an idle network.
func ExampleSimulator_RunOp() {
	cfg := mdworm.DefaultConfig()
	cfg.Traffic.OpRate = 0 // idle network
	sim, err := mdworm.New(cfg)
	if err != nil {
		panic(err)
	}
	latency, op, err := sim.RunOp(0, []int{1, 9, 33, 63}, true, 64, 1_000_000)
	if err != nil {
		panic(err)
	}
	fmt.Println("worms injected:", op.MessagesSent)
	fmt.Println("latency positive:", latency > 0)
	// Output:
	// worms injected: 1
	// latency positive: true
}

// ExampleConfig_collectiveBarrier runs one barrier as a collective
// workload (binomial gather, then the release) and compares a hardware
// multidestination release worm with the software U-MIN release tree.
func ExampleConfig_collectiveBarrier() {
	latency := func(scheme mdworm.Scheme) float64 {
		cfg := mdworm.DefaultConfig()
		cfg.Traffic.OpRate = 0 // idle network: the barrier is the only traffic
		cfg.WarmupCycles, cfg.MeasureCycles = 0, 0
		cfg.Scheme = scheme
		cfg.Collective = mdworm.CollectiveSpec{Kind: mdworm.CollectiveBarrier, Reps: 1}
		sim, err := mdworm.New(cfg)
		if err != nil {
			panic(err)
		}
		res, err := sim.Run()
		if err != nil {
			panic(err)
		}
		return res.Collective.LastArrival.Mean
	}
	hw := latency(mdworm.HardwareBitString)
	sw := latency(mdworm.SoftwareBinomial)
	fmt.Println("hardware release faster:", hw < sw)
	// Output:
	// hardware release faster: true
}
