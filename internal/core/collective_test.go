package core

import (
	"encoding/json"
	"reflect"
	"testing"

	"mdworm/internal/collective"
	"mdworm/internal/faults"
)

// collectiveConfig is a small pure-collective system: no stochastic load,
// the driver is the only traffic source.
func collectiveConfig(kind collective.Kind, scheme collective.Scheme) Config {
	cfg := DefaultConfig()
	cfg.Arity = 4
	cfg.Stages = 2 // 16 nodes
	cfg.Scheme = scheme
	cfg.Traffic.OpRate = 0
	cfg.WarmupCycles = 100
	cfg.MeasureCycles = 500
	cfg.DrainCycles = 400_000
	cfg.Collective = collective.Spec{
		Kind:         kind,
		PayloadFlits: 4,
		Reps:         5,
		SkewCycles:   12,
		GapCycles:    20,
	}
	return cfg
}

func allKinds() []collective.Kind {
	return []collective.Kind{
		collective.Barrier, collective.Broadcast, collective.AllReduce,
		collective.AllReduceGather, collective.Scatter, collective.Gather,
	}
}

// TestCollectiveAllKindsAllModes runs every collective in the three modes of
// the paper's comparison and checks completion accounting.
func TestCollectiveAllKindsAllModes(t *testing.T) {
	schemes := []collective.Scheme{
		collective.HardwareBitString, // CB-HW / IB-HW multidestination
		collective.HardwareMultiport,
		collective.SoftwareBinomial, // SW unicast-tree baseline
	}
	for _, kind := range allKinds() {
		for _, scheme := range schemes {
			for _, arch := range []SwitchArch{CentralBuffer, InputBuffer} {
				cfg := collectiveConfig(kind, scheme)
				cfg.Arch = arch
				s, err := New(cfg)
				if err != nil {
					t.Fatalf("%v/%v/%v: %v", kind, scheme, arch, err)
				}
				r, err := s.Run()
				if err != nil {
					t.Fatalf("%v/%v/%v: run: %v", kind, scheme, arch, err)
				}
				c := r.Collective
				if c == nil {
					t.Fatalf("%v/%v/%v: no collective results", kind, scheme, arch)
				}
				if c.Kind != kind.String() || c.Started != 5 || c.Completed != 5 || c.Degraded != 0 {
					t.Fatalf("%v/%v/%v: bad accounting %+v", kind, scheme, arch, c)
				}
				if c.LastArrival.Count != 5 || c.LastArrival.Min <= 0 {
					t.Fatalf("%v/%v/%v: bad latency summary %+v", kind, scheme, arch, c.LastArrival)
				}
				if len(c.Phases) == 0 {
					t.Fatalf("%v/%v/%v: no phase summaries", kind, scheme, arch)
				}
			}
		}
	}
}

// TestCollectivePhaseTiling is the property test of the subsystem: for every
// kind, mode, and skew, each rep's per-phase latencies must sum exactly to
// its end-to-end last-arrival latency (mirroring the critical-path tiling
// guarantee of the span analyzer).
func TestCollectivePhaseTiling(t *testing.T) {
	for _, kind := range allKinds() {
		for _, scheme := range []collective.Scheme{collective.HardwareBitString, collective.SoftwareBinomial} {
			for _, skew := range []int64{0, 37} {
				cfg := collectiveConfig(kind, scheme)
				cfg.Collective.SkewCycles = skew
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.Run(); err != nil {
					t.Fatalf("%v/%v skew=%d: %v", kind, scheme, skew, err)
				}
				coll := &s.col.Coll
				if len(coll.LastArrival) != 5 {
					t.Fatalf("%v/%v skew=%d: %d healthy reps", kind, scheme, skew, len(coll.LastArrival))
				}
				for rep, last := range coll.LastArrival {
					sum := 0.0
					for p, samples := range coll.Phases {
						if len(samples) != len(coll.LastArrival) {
							t.Fatalf("%v/%v: phase %d has %d samples, want %d",
								kind, scheme, p+1, len(samples), len(coll.LastArrival))
						}
						sum += samples[rep]
					}
					if sum != last {
						t.Fatalf("%v/%v skew=%d rep %d: phase sum %v != last-arrival %v",
							kind, scheme, skew, rep, sum, last)
					}
				}
			}
		}
	}
}

// TestCollectiveDeterministic: identical configs yield byte-identical
// results, including with background traffic running alongside.
func TestCollectiveDeterministic(t *testing.T) {
	cfg := collectiveConfig(collective.AllReduce, collective.HardwareBitString)
	cfg.Traffic.OpRate = 0.002 // background unicast load
	cfg.Traffic.MulticastFraction = 0
	run := func() []byte {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		js, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return js
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("results differ:\n%s\n%s", a, b)
	}
}

// TestCollectiveCheckpointResume snapshots mid-collective and verifies the
// restored run finishes byte-identical to the uninterrupted one.
func TestCollectiveCheckpointResume(t *testing.T) {
	for _, kind := range []collective.Kind{collective.Barrier, collective.Scatter} {
		cfg := collectiveConfig(kind, collective.SoftwareBinomial)
		ref, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Run()
		if err != nil {
			t.Fatal(err)
		}

		// Snapshot in the middle of the measurement window, mid-rep.
		var blob []byte
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		stop := cfg.WarmupCycles + 150
		_, err = s.RunCheckpointed(stop, func(data []byte, cycle int64) error {
			if blob == nil && cycle == stop {
				blob = data
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if blob == nil {
			t.Fatalf("%v: no snapshot taken at cycle %d", kind, stop)
		}
		restored, err := Restore(blob)
		if err != nil {
			t.Fatalf("%v: restore: %v", kind, err)
		}
		if restored.cdrv == nil {
			t.Fatalf("%v: restored simulator has no collective driver", kind)
		}
		got, err := restored.Run()
		if err != nil {
			t.Fatalf("%v: resumed run: %v", kind, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%v: resumed results differ\nwant %+v\ngot  %+v", kind, want, got)
		}
	}
}

// TestCollectiveUnderFaults: a link failure mid-run degrades reps (steps
// complete via drop accounting) without wedging the schedule.
func TestCollectiveUnderFaults(t *testing.T) {
	cfg := collectiveConfig(collective.Broadcast, collective.HardwareBitString)
	cfg.Collective.Reps = 8
	cfg.Collective.GapCycles = 50
	cfg.Faults = faults.Plan{Events: []faults.Event{
		// Sever node 1's NIC attachment: the root's broadcasts can no
		// longer reach it, so later reps complete degraded.
		{Kind: faults.LinkDown, At: cfg.WarmupCycles + 120, Switch: 0, Port: 1},
	}}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	c := r.Collective
	if c == nil || c.Completed != 8 {
		t.Fatalf("collective did not finish under faults: %+v", c)
	}
	if c.Degraded == 0 && r.DestsDropped == 0 {
		t.Fatalf("link-down left no trace in collective results: %+v (dropped %d)", c, r.DestsDropped)
	}
	if int64(c.LastArrival.Count) != c.Completed-c.Degraded {
		t.Fatalf("degraded reps leaked latency samples: %+v", c)
	}
}

// TestMulticastKindMatchesRunOp: the Multicast kind's reps are the
// back-to-back single ops RunOp would run on an idle fabric from the same
// draws, each begun on the cycle after the previous one completed: the
// same latencies in order, message count and cycle count.
func TestMulticastKindMatchesRunOp(t *testing.T) {
	const reps = 5
	cfg := DefaultConfig()
	cfg.Scheme = collective.SoftwareBinomial
	cfg.Traffic.OpRate = 0
	ops, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	draw := multicastDraws(cfg.Seed)
	var lats []float64
	var pool []int
	msgs := 0
	for range reps {
		src := draw.Intn(cfg.N())
		dests := draw.Sample(nil, cfg.N(), cfg.Traffic.Degree, src, &pool)
		lat, op, err := ops.RunOp(src, dests, true, cfg.Traffic.McastPayloadFlits, 1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		lats = append(lats, float64(lat))
		msgs += op.MessagesSent
	}

	cfg.WarmupCycles, cfg.MeasureCycles = 0, 0
	cfg.Collective = collective.Spec{Kind: collective.Multicast,
		PayloadFlits: cfg.Traffic.McastPayloadFlits, Reps: reps}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sim.col.Coll.LastArrival, lats) {
		t.Fatalf("rep latencies %v, RunOp latencies %v", sim.col.Coll.LastArrival, lats)
	}
	if got, want := res.Collective.MessagesPerRep, float64(msgs)/reps; got != want {
		t.Fatalf("messages per rep %g, want %g", got, want)
	}
	if sim.Now() != ops.Now() {
		t.Fatalf("run ended at cycle %d, RunOp sequence at %d", sim.Now(), ops.Now())
	}
}

// TestMulticastKindRejectsDegree: a Multicast rep needs between one and
// participants-1 destinations.
func TestMulticastKindRejectsDegree(t *testing.T) {
	for _, d := range []int{0, 16} {
		cfg := collectiveConfig(collective.Multicast, collective.HardwareBitString)
		cfg.Traffic.Degree = d
		if _, err := New(cfg); err == nil {
			t.Errorf("degree %d accepted on 16 participants", d)
		}
	}
}
