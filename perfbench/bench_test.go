package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	var s sample
	for i := 1; i <= 20; i++ {
		s.add(float64(21 - i)) // 20..1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{
		{50, 10}, {75, 15}, {90, 18}, {95, 19}, {99, 20}, {100, 20}, {1, 1},
	} {
		if got := s.percentile(c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if got := (sample{}).percentile(50); got != 0 {
		t.Errorf("empty sample p50 = %g, want 0", got)
	}
}

func TestTailKeepsTenBeyond(t *testing.T) {
	seq := func(n int) sample {
		var s sample
		for i := 1; i <= n; i++ {
			s.add(float64(i))
		}
		return s
	}
	for _, c := range []struct {
		n             int
		value, pct    float64
		samplesBeyond int
	}{
		{1000, 950, 95, 50}, // the ladder tops out at p95
		{200, 190, 95, 10},
		{199, 180, 90, 19}, // p95 would have 9 beyond
		{100, 90, 90, 10},
		{48, 36, 75, 12},
		{40, 30, 75, 10},
		{39, 20, 50, 19}, // no ladder percentile qualifies
	} {
		v, pct := seq(c.n).tail()
		if v != c.value || pct != c.pct {
			t.Errorf("n=%d: tail = %g at p%g, want %g at p%g", c.n, v, pct, c.value, c.pct)
		}
		if beyond := c.n - int(v); beyond != c.samplesBeyond || (pct > 50 && beyond < minBeyond) {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", c.n, beyond, c.samplesBeyond)
		}
	}
}

func at(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Name: "a", Start: at(10), End: at(30)},
		{ID: 3, Parent: 1, Name: "b", Start: at(20), End: at(40)},   // overlaps a: 10..40 covered once
		{ID: 4, Parent: 1, Name: "c", Start: at(90), End: at(120)},  // clipped to the parent at 100
		{ID: 5, Parent: 2, Name: "a1", Start: at(12), End: at(18)},  // grandchild: not root's child
		{ID: 6, Parent: 1, Name: "d", Start: at(150), End: at(160)}, // wholly outside the parent
	}
	self := selfTimes(spans)
	for id, want := range map[int64]time.Duration{1: at(60), 2: at(14), 3: at(20), 5: at(6)} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
}

// TestSweepLayersReconcile checks that the parts reported for a sweep,
// core.new + core.run + experiments.unattributed, add up to the sweep wall
// time when the spans are laid out as a one-worker sweep lays them out.
func TestSweepLayersReconcile(t *testing.T) {
	tr := newTracer()
	t0 := tr.t0
	finish := tr.newID()
	ms := func(n int) time.Time { return t0.Add(at(n)) }
	tr.add(finish, "core.new", "p1", ms(1), ms(3))
	tr.add(finish, "core.run", "p1", ms(3), ms(40))
	tr.add(finish, "core.new", "p2", ms(42), ms(43))
	tr.add(finish, "core.run", "p2", ms(43), ms(90))
	tr.record(finish, 0, "experiments.finish", "", ms(0), ms(100))
	spans := tr.snapshot()

	newS := durations(spans, "core.new", time.Second).sum()
	runS := durations(spans, "core.run", time.Second).sum()
	unattributed := selfTimes(spans)[finish].Seconds()
	if math.Abs(newS-0.003) > 1e-12 || math.Abs(runS-0.084) > 1e-12 || math.Abs(unattributed-0.013) > 1e-12 {
		t.Fatalf("new %g run %g unattributed %g, want 0.003 0.084 0.013", newS, runS, unattributed)
	}
	if wall := 0.1; math.Abs(newS+runS+unattributed-wall) > 1e-12 {
		t.Errorf("parts sum to %g s, sweep wall is %g s", newS+runS+unattributed, wall)
	}
}

func TestGoldenSections(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "results.txt")
	text := "== E1: one ==\nrow 1\n\n\n== A8: eight: with colon ==\nrow 8\n\n"
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := goldenSections(path)
	if err != nil {
		t.Fatal(err)
	}
	if got["E1"] != "== E1: one ==\nrow 1\n\n\n" || got["A8"] != "== A8: eight: with colon ==\nrow 8\n\n" || len(got) != 2 {
		t.Errorf("sections = %q", got)
	}
}

func TestServiceInputsRepeatAnsweredConfigs(t *testing.T) {
	reqs := serviceInputs(3, 5*time.Second)
	again := serviceInputs(3, 5*time.Second)
	if len(reqs) != len(again) {
		t.Fatalf("same seed gave %d and %d requests", len(reqs), len(again))
	}
	first := map[uint64]time.Duration{}
	hits := 0
	for i, r := range reqs {
		if r != again[i] {
			t.Fatalf("request %d differs between runs at one seed", i)
		}
		if r.fresh {
			if _, dup := first[r.seed]; dup {
				t.Fatalf("request %d reuses a fresh seed", i)
			}
			first[r.seed] = r.at
			continue
		}
		hits++
		age := r.at - first[r.seed]
		if _, ok := first[r.seed]; !ok || age < hitMinAge || age > hitMaxAge {
			t.Fatalf("request %d repeats a config %v after it was first sent", i, age)
		}
	}
	if share := float64(hits) / float64(len(reqs)); share < 0.2 || share > 0.35 {
		t.Errorf("hit share %.2f, want about %.2f", share, hitShare)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// program reports in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is not one of %s", w.Name, strings.Join(workloadNames(), ", "))
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			if w := want[i]; m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, m, w)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
