package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	ids := IDs()
	// Definition order: the paper's figures first, then the ablations,
	// then the collective experiments.
	want := []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8",
		"a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8", "a9", "a10", "a11",
		"c1", "c2", "c3", "c4", "c5", "c6"}
	if len(ids) != len(want) {
		t.Fatalf("registry has %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("registry = %v, want %v", ids, want)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := Run("nope", DefaultOptions()); err == nil {
		t.Fatal("unknown id accepted")
	}
}

// TestE8QuickShape runs the cheapest real experiment end to end and checks
// the paper's qualitative shape.
func TestE8QuickShape(t *testing.T) {
	tab, err := Run("e8", Options{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Series) != 7 { // 4 contenders + 3 analytic reference curves
		t.Fatalf("series = %d", len(tab.Series))
	}
	byName := map[string]Series{}
	for _, s := range tab.Series {
		byName[s.Name] = s
	}
	last := func(name string) float64 {
		s := byName[name]
		p := s.Points[len(s.Points)-1]
		if p.Err != nil {
			t.Fatal(p.Err)
		}
		return MetricMcastLatency.Get(p.Results)
	}
	if !(last("cb-hw") < last("sw-umin") && last("sw-umin") < last("sw-sep")) {
		t.Fatalf("d=63 ordering violated: cb=%f umin=%f sep=%f",
			last("cb-hw"), last("sw-umin"), last("sw-sep"))
	}
	// The analytic reference curves ride along and must be sane.
	if last("model-hw") <= 0 || last("model-sw-umin") <= last("model-hw") {
		t.Fatalf("model curves wrong: hw=%f sw=%f", last("model-hw"), last("model-sw-umin"))
	}
	var buf bytes.Buffer
	tab.Format(&buf)
	out := buf.String()
	for _, want := range []string{"E8", "cb-hw", "sw-sep", "mcast_lat"} {
		if !strings.Contains(out, want) {
			t.Fatalf("formatted table missing %q:\n%s", want, out)
		}
	}
}

// TestA5QuickShape checks the encoding ablation: multiport needs more worms
// for scattered sets but has smaller headers.
func TestA5QuickShape(t *testing.T) {
	tab, err := Run("a5", Options{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var bs, mp Series
	for _, s := range tab.Series {
		switch s.Name {
		case "cb-hw":
			bs = s
		case "cb-multiport":
			mp = s
		}
	}
	// At the largest degree, multiport must use several worms while
	// bit-string always uses one.
	bsLast := bs.Points[len(bs.Points)-1]
	mpLast := mp.Points[len(mp.Points)-1]
	if got := MetricMsgsPerOp.Get(bsLast.Results); got != 1 {
		t.Fatalf("bit-string msgs/op = %g", got)
	}
	if got := MetricMsgsPerOp.Get(mpLast.Results); got <= 1 {
		t.Fatalf("multiport msgs/op = %g for d=63", got)
	}
}

func TestWriteCSV(t *testing.T) {
	tab, err := Run("a8", Options{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 3 {
		t.Fatalf("csv too short:\n%s", out)
	}
	if !strings.HasPrefix(lines[0], "experiment,series,nodes,") {
		t.Fatalf("csv header wrong: %q", lines[0])
	}
	for _, l := range lines[1:] {
		if !strings.HasPrefix(l, "A8,") {
			t.Fatalf("csv row missing experiment id: %q", l)
		}
	}
}

// TestAllExperimentsQuick runs the entire registry in quick mode: every
// experiment must produce a non-empty, error-free table.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry run skipped in -short mode")
	}
	// Workers: 4 exercises the parallel point pool (the -race CI run makes
	// this the data-race canary for the whole runner).
	tables, err := RunAll(Options{Quick: true, Seed: 2, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != len(IDs()) {
		t.Fatalf("got %d tables for %d experiments", len(tables), len(IDs()))
	}
	for _, tab := range tables {
		if len(tab.Series) == 0 {
			t.Errorf("%s: no series", tab.ID)
		}
		for _, s := range tab.Series {
			if len(s.Points) == 0 {
				t.Errorf("%s/%s: no points", tab.ID, s.Name)
			}
			for _, p := range s.Points {
				if p.Err != nil {
					// The sync-replication rows of A10 deadlock by
					// design — the paper's point.
					if tab.ID == "A10" && s.Name == "sync" &&
						strings.Contains(p.Err.Error(), "DEADLOCK") {
						continue
					}
					t.Errorf("%s/%s x=%g: %v", tab.ID, s.Name, p.X, p.Err)
				}
			}
		}
	}
}
