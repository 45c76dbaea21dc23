package experiments

import (
	"strings"
	"sync"
	"testing"

	"mdworm/internal/core"
	"mdworm/internal/stats"
)

// format renders tables as the text report does.
func format(tables []*Table) string {
	var b strings.Builder
	for _, tab := range tables {
		tab.Format(&b)
	}
	return b.String()
}

// TestResolverByteIdentical: a sweep resolved through Options.Resolver (the
// cluster-coordinator path) renders tables byte-identical to the plain local
// sweep, the Resolver sees every planned tag exactly once — the idle-network
// single multicasts and barriers included — and PlannedTags lists the
// deterministic table order.
func TestResolverByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick sweep")
	}
	ids := []string{"e1", "e8", "a5", "a6", "a8"}
	base := Options{Quick: true, Seed: 1, Workers: 4}

	local, _, err := RunIDs(ids, base)
	if err != nil {
		t.Fatal(err)
	}
	want := format(local)

	var (
		mu    sync.Mutex
		calls = map[string]int{}
	)
	o := base
	o.Resolver = func(cfg core.Config, tag string) (stats.Results, int64, error) {
		mu.Lock()
		calls[tag]++
		mu.Unlock()
		// A "remote" measurement is just the same deterministic simulation
		// performed elsewhere.
		sim, err := core.New(cfg)
		if err != nil {
			return stats.Results{}, 0, err
		}
		res, err := sim.Run()
		if err != nil {
			return stats.Results{}, 0, err
		}
		return res, sim.Now(), nil
	}
	tables, err := Plan(ids, o)
	if err != nil {
		t.Fatal(err)
	}
	tags := PlannedTags(tables)
	if len(tags) == 0 {
		t.Fatal("no planned tags")
	}
	for i := 1; i < len(tags); i++ {
		if tags[i] == tags[i-1] {
			t.Fatalf("duplicate planned tag %q", tags[i])
		}
	}
	if _, err := Finish(ids, tables, o); err != nil {
		t.Fatal(err)
	}
	if got := format(tables); got != want {
		t.Errorf("resolver-backed tables differ from local tables:\n--- resolver ---\n%s\n--- local ---\n%s",
			got, want)
	}
	if len(calls) != len(tags) {
		t.Errorf("resolver saw %d distinct tags, planned %d", len(calls), len(tags))
	}
	for _, tag := range tags {
		if calls[tag] != 1 {
			t.Errorf("tag %s resolved %d times, want 1", tag, calls[tag])
		}
	}
}

// TestQuickSuiteStrictInvariants resolves every experiment of the quick
// suite with StrictInvariants set on each point, so the first model
// invariant a point violates fails it, and requires tables byte-identical
// to the plain quick run.
func TestQuickSuiteStrictInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("two full quick sweeps")
	}
	base := Options{Quick: true, Seed: 1, Workers: 2}
	plain, _, err := RunIDs(IDs(), base)
	if err != nil {
		t.Fatal(err)
	}
	o := base
	o.Resolver = func(cfg core.Config, tag string) (stats.Results, int64, error) {
		cfg.StrictInvariants = true
		sim, err := core.New(cfg)
		if err != nil {
			return stats.Results{}, 0, err
		}
		res, err := sim.Run()
		return res, sim.Now(), err
	}
	strict, _, err := RunIDs(IDs(), o)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := format(strict), format(plain); got != want {
		t.Errorf("tables under strict invariants differ from the plain quick run:\n--- strict ---\n%s\n--- plain ---\n%s", got, want)
	}
}
