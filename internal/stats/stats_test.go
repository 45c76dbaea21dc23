package stats

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Count != 0 || s.Mean != 0 {
		t.Fatalf("empty summary: %+v", s)
	}
	if s.String() != "n=0" {
		t.Fatalf("String = %q", s.String())
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{42})
	if s.Count != 1 || s.Mean != 42 || s.Min != 42 || s.Max != 42 || s.P50 != 42 || s.P95 != 42 {
		t.Fatalf("%+v", s)
	}
}

func TestSummarizeKnown(t *testing.T) {
	samples := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	s := Summarize(samples)
	if s.Count != 10 || s.Mean != 5.5 || s.Min != 1 || s.Max != 10 {
		t.Fatalf("%+v", s)
	}
	if math.Abs(s.P50-5.5) > 1e-9 {
		t.Fatalf("P50 = %g", s.P50)
	}
	if math.Abs(s.P95-9.55) > 1e-9 {
		t.Fatalf("P95 = %g", s.P95)
	}
}

func TestSummarizeDoesNotMutate(t *testing.T) {
	samples := []float64{3, 1, 2}
	Summarize(samples)
	if samples[0] != 3 || samples[1] != 1 || samples[2] != 2 {
		t.Fatal("Summarize sorted the caller's slice")
	}
}

// Property: min <= p50 <= p95 <= p99 <= max and mean within [min, max].
func TestSummarizeQuick(t *testing.T) {
	f := func(raw []float64) bool {
		samples := make([]float64, 0, len(raw))
		for _, v := range raw {
			// Keep values where sums cannot overflow.
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e300/float64(len(raw)+1) {
				samples = append(samples, v)
			}
		}
		if len(samples) == 0 {
			return true
		}
		s := Summarize(samples)
		sorted := append([]float64(nil), samples...)
		sort.Float64s(sorted)
		return s.Min == sorted[0] && s.Max == sorted[len(sorted)-1] &&
			s.Min <= s.P50 && s.P50 <= s.P95 && s.P95 <= s.P99 && s.P99 <= s.Max &&
			s.Mean >= s.Min-1e-9 && s.Mean <= s.Max+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBatchMeansCI(t *testing.T) {
	// Constant samples: zero-width interval.
	constant := make([]float64, 100)
	for i := range constant {
		constant[i] = 42
	}
	if ci := Summarize(constant).CI95; ci != 0 {
		t.Fatalf("constant samples CI = %g", ci)
	}
	// Alternating samples around a mean: CI should be small relative to the
	// spread but non-zero for noisy data.
	noisy := make([]float64, 200)
	for i := range noisy {
		noisy[i] = 100 + float64(i%7) - 3
	}
	s := Summarize(noisy)
	if s.CI95 <= 0 || s.CI95 > 5 {
		t.Fatalf("noisy CI = %g, expected small positive", s.CI95)
	}
	// Too few samples: no CI.
	if ci := Summarize([]float64{1, 2, 3}).CI95; ci != 0 {
		t.Fatalf("tiny sample CI = %g", ci)
	}
}

func TestCollectorWindow(t *testing.T) {
	c := Collector{WarmupEnd: 100, MeasureEnd: 200}
	if c.InWindow(99) || c.InWindow(200) {
		t.Fatal("window boundaries wrong")
	}
	if !c.InWindow(100) || !c.InWindow(199) {
		t.Fatal("window interior wrong")
	}
	if c.WindowCycles() != 100 {
		t.Fatalf("window = %d", c.WindowCycles())
	}
}

func TestCollectorClassSelection(t *testing.T) {
	c := Collector{}
	c.Class(true).OpsGenerated = 5
	c.Class(false).OpsGenerated = 7
	if c.Multicast.OpsGenerated != 5 || c.Unicast.OpsGenerated != 7 {
		t.Fatal("class routing wrong")
	}
}

func TestFinalize(t *testing.T) {
	c := Collector{WarmupEnd: 0, MeasureEnd: 1000}
	c.Multicast.OpsGenerated = 100
	c.Multicast.OpsCompleted = 100
	c.Multicast.LastArrival = []float64{100, 200, 300}
	c.Multicast.MessagesSent = 800
	c.Multicast.DeliveredPayloadFlits = 64000
	c.DeliveredFlits = 70000
	r := c.Finalize(64, 3)
	if r.Cycles != 1000 || r.Nodes != 64 || r.MaxSendQueue != 3 {
		t.Fatalf("%+v", r)
	}
	if r.Multicast.MessagesPerOp != 8 {
		t.Fatalf("messages per op = %g", r.Multicast.MessagesPerOp)
	}
	if got := r.Multicast.DeliveredPayloadPerNodeCycle; math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("delivered payload = %g", got)
	}
	if got := r.DeliveredFlitsPerNodeCycle; math.Abs(got-70000.0/1000/64) > 1e-9 {
		t.Fatalf("raw throughput = %g", got)
	}
	if r.Saturated {
		t.Fatal("fully completed run flagged saturated")
	}
}

func TestFinalizeSaturationHeuristic(t *testing.T) {
	c := Collector{WarmupEnd: 0, MeasureEnd: 1000}
	c.Unicast.OpsGenerated = 1000
	c.Unicast.OpsCompleted = 500
	r := c.Finalize(64, 100)
	if !r.Saturated {
		t.Fatal("half-completed run not flagged saturated")
	}
}

// TestFinalizeAllocatesOnlyResults checks that a warm collector summarizes
// every sample set in its own scratch: Finalize allocates only the results'
// collective summary and its phases, and leaves the samples as they were.
func TestFinalizeAllocatesOnlyResults(t *testing.T) {
	samples := func(seed int) []float64 {
		s := make([]float64, 100)
		for i := range s {
			s[i] = float64((i*37 + seed) % 101)
		}
		return s
	}
	c := Collector{WarmupEnd: 0, MeasureEnd: 1000}
	c.Unicast.LastArrival, c.Unicast.MeanArrival = samples(1), samples(2)
	c.Multicast.LastArrival, c.Multicast.MeanArrival = samples(3), samples(4)
	c.Coll = CollectiveCollector{Active: true, NumPhases: 2, LastArrival: samples(5), Skew: samples(6),
		Phases: [][]float64{samples(7), samples(8)}}
	want := c.Finalize(16, 0) // the first call grows the scratch
	if n := testing.AllocsPerRun(50, func() { c.Finalize(16, 0) }); n != 2 {
		t.Errorf("a warm Finalize allocates %v times, want 2 (the collective summary and its phases)", n)
	}
	if got := c.Finalize(16, 0); got.Multicast.LastArrival != want.Multicast.LastArrival ||
		got.Collective.Phases[1] != want.Collective.Phases[1] {
		t.Error("a warm Finalize summarizes differently")
	}
	if !slices.Equal(c.Multicast.MeanArrival, samples(4)) || !slices.Equal(c.Coll.Phases[0], samples(7)) {
		t.Error("Finalize modified its samples")
	}
	if want.Multicast.LastArrival != Summarize(samples(3)) {
		t.Error("Finalize and Summarize disagree")
	}
}
