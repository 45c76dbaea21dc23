package experiments

import (
	"math"
	"testing"

	"mdworm/internal/analytic"
	"mdworm/internal/collective"
)

// TestA8PointEventsPinned pins a8's quick-mode stream: every point's tag,
// barrier latency and simulated-cycle cost, in planned order. Streams and
// the committed suite tables carry these numbers, so a change to either
// barrier executor must reproduce them to the cycle.
func TestA8PointEventsPinned(t *testing.T) {
	want := []PointEvent{
		{Tag: "a8/sw-barrier/N16", McastLatency: 1080, Cycles: 1081},
		{Tag: "a8/sw-barrier/N64", McastLatency: 1736, Cycles: 1737},
		{Tag: "a8/hw-release-barrier/N16", McastLatency: 661, Cycles: 662},
		{Tag: "a8/hw-release-barrier/N64", McastLatency: 1023, Cycles: 1024},
		{Tag: "a8/hw-combining-barrier/N16", McastLatency: 76, Cycles: 77},
		{Tag: "a8/hw-combining-barrier/N64", McastLatency: 84, Cycles: 85},
	}
	var got []PointEvent
	o := Options{Quick: true, Seed: 1, Workers: 1, OnPoint: func(ev PointEvent) { got = append(got, ev) }}
	if _, err := Run("a8", o); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d: %+v", len(got), len(want), got)
	}
	for i, w := range want {
		g := got[i]
		if g.Err != nil || g.Tag != w.Tag || g.McastLatency != w.McastLatency || g.Cycles != w.Cycles {
			t.Errorf("event %d: got tag=%s mcast_lat=%g cycles=%d err=%v, want tag=%s mcast_lat=%g cycles=%d",
				i, g.Tag, g.McastLatency, g.Cycles, g.Err, w.Tag, w.McastLatency, w.Cycles)
		}
	}
}

// TestA8TracksAnalyticBarrier holds a8's NIC-level barrier rows to the
// closed-form barrier model, an oracle independent of the collective
// executor that measures them.
func TestA8TracksAnalyticBarrier(t *testing.T) {
	o := Options{Seed: 1}
	tab, err := Run("a8", o)
	if err != nil {
		t.Fatal(err)
	}
	models := map[string]struct {
		con  Contender
		band float64
	}{
		"hw-release-barrier": {CBHW, 0.15},
		"sw-barrier":         {SWUMIN, 0.25},
	}
	checked := 0
	for _, s := range tab.Series {
		mod, ok := models[s.Name]
		if !ok {
			continue
		}
		for i, p := range s.Points {
			cfg := baseConfig(o)
			cfg.Stages = 2 + i
			mod.con.Apply(&cfg)
			m := analytic.FromConfig(cfg)
			if p.X != float64(m.N) {
				t.Fatalf("%s point %d: N=%g, model N=%d", s.Name, i, p.X, m.N)
			}
			sim := MetricMcastLatency.Get(p.Results)
			want := m.Barrier(mod.con.Scheme.Hardware())
			rel := math.Abs(want-sim) / sim
			t.Logf("%s N=%d: model %.1f vs simulation %.0f (%+.1f%%)", s.Name, m.N, want, sim, (want-sim)/sim*100)
			if rel > mod.band {
				t.Errorf("%s N=%d: model %.1f vs simulation %.0f, %.1f%% off (band %.0f%%)",
					s.Name, m.N, want, sim, rel*100, mod.band*100)
			}
			checked++
		}
	}
	if checked != 6 {
		t.Fatalf("checked %d barrier rows, want 6", checked)
	}
}

// TestC2TracksAnalyticBroadcast holds c2's broadcast rows to the closed-form
// multicast models — one multidestination worm for the hardware rows, the
// software binomial relay chain for the U-MIN rows — an oracle independent
// of the switch and collective code that measures them.
func TestC2TracksAnalyticBroadcast(t *testing.T) {
	o := Options{Seed: 1}
	tab, err := Run("c2", o)
	if err != nil {
		t.Fatal(err)
	}
	bands := map[string]float64{CBHW.Name: 0.10, IBHW.Name: 0.10, SWUMIN.Name: 0.15}
	contenders := map[string]Contender{CBHW.Name: CBHW, IBHW.Name: IBHW, SWUMIN.Name: SWUMIN}
	checked := 0
	for _, s := range tab.Series {
		con, ok := contenders[s.Name]
		if !ok {
			t.Fatalf("unexpected series %q", s.Name)
		}
		for _, p := range s.Points {
			cfg := collConfig(o, collective.Broadcast)
			cfg.Collective.PayloadFlits = int(p.X)
			con.Apply(&cfg)
			m := analytic.FromConfig(cfg)
			want := m.SoftwareBinomial(int(p.X), m.N-1)
			if con.Scheme.Hardware() {
				want = m.HardwareMulticast(int(p.X), m.N-1)
			}
			sim := p.Results.Collective.LastArrival.Mean
			rel := math.Abs(want-sim) / sim
			t.Logf("%s L=%g: model %.1f vs simulation %.0f (%+.1f%%)", s.Name, p.X, want, sim, (want-sim)/sim*100)
			if rel > bands[s.Name] {
				t.Errorf("%s L=%g: model %.1f vs simulation %.0f, %.1f%% off (band %.0f%%)",
					s.Name, p.X, want, sim, rel*100, bands[s.Name]*100)
			}
			checked++
		}
	}
	if checked != 9 {
		t.Fatalf("checked %d broadcast rows, want 9", checked)
	}
}
