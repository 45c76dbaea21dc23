package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"mdworm/internal/core"
	"mdworm/internal/experiments"
	"mdworm/internal/stats"
)

// The sweep workloads run one full-fidelity experiment set in process
// through experiments.Plan/Finish with one sweep worker.
var (
	// fabricIDs load every switch, routing decision and NIC up to
	// saturation, across CB-HW, IB-HW and SW.
	fabricIDs = []string{"e1", "e3"}
	// collectiveIDs keep the fabric idle or bursty: components sleep, the
	// clock jumps, and points are short, so simulator set-up weighs more.
	collectiveIDs = []string{"e8", "a8", "c1", "c2", "c3", "c4", "c5"}
)

// planReps is how many times each pass plans its sweep; setup_s is the
// median. Plan takes well under a millisecond, so many builds are cheap.
const planReps = 25

// resultsFile holds the committed full-fidelity tables at the default seed.
const resultsFile = "results_all.txt"

// sweepPass is one Plan/Finish of the experiment set.
type sweepPass struct {
	tables string
	plan   sample // seconds per Plan call
	wall   time.Duration
	points int
	cycles int64

	alloc uint64 // heap bytes allocated during Finish

	// Traced passes only.
	finishID int64
	counts   map[string]int64
	gcs      uint32
}

// runSweepPass plans and resolves ids once. With a tracer it resolves each
// standard point through an Options.Resolver that times core.New and
// Simulator.Run and sums the simulator's exact counters; points measured
// through a custom harness (e8, a8) always run on the local path.
func runSweepPass(e *env, ids []string, tr *tracer) (*sweepPass, error) {
	p := &sweepPass{}
	var pointErr error
	opts := experiments.Options{Seed: e.seed, Workers: 1}
	opts.OnPoint = func(ev experiments.PointEvent) {
		p.points++
		if ev.Err != nil && pointErr == nil {
			pointErr = ev.Err
		}
	}
	if tr != nil {
		p.counts = map[string]int64{}
		opts.Resolver = func(cfg core.Config, tag string) (stats.Results, int64, error) {
			t0 := time.Now()
			sim, err := core.New(cfg)
			t1 := time.Now()
			tr.add(p.finishID, "core.new", tag, t0, t1)
			if err != nil {
				return stats.Results{}, 0, err
			}
			res, err := sim.Run()
			tr.add(p.finishID, "core.run", tag, t1, time.Now())
			addSimCounts(p.counts, sim)
			return res, sim.Now(), err
		}
	}

	// Each pass starts from a collected heap, as a fresh process would, so
	// the previous pass's garbage is not charged to this one.
	runtime.GC()
	var tables []*experiments.Table
	for i := 0; i < planReps; i++ {
		t0 := time.Now()
		tb, err := experiments.Plan(ids, opts)
		t1 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("plan: %w", err)
		}
		p.plan.addDur(t1.Sub(t0), time.Second)
		tr.add(0, "experiments.plan", "", t0, t1)
		tables = tb
	}

	var before runtime.MemStats
	if tr != nil {
		p.finishID = tr.newID()
		runtime.ReadMemStats(&before)
	}
	alloc := heapAllocated()
	start := time.Now()
	st, err := experiments.Finish(ids, tables, opts)
	end := time.Now()
	p.alloc = heapAllocated() - alloc
	if tr != nil {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		p.gcs = after.NumGC - before.NumGC
		tr.record(p.finishID, 0, "experiments.finish", "", start, end)
	}
	if err != nil {
		return nil, fmt.Errorf("finish: %w", err)
	}
	if pointErr != nil {
		return nil, fmt.Errorf("point failed: %w", pointErr)
	}
	if st.Violations != 0 || st.DestsDropped != 0 {
		return nil, fmt.Errorf("%d invariant violations, %d dropped destinations", st.Violations, st.DestsDropped)
	}
	p.wall, p.cycles = end.Sub(start), st.Cycles
	p.tables = renderTables(tables)
	return p, nil
}

// addSimCounts adds one finished simulator's exact counters to c.
func addSimCounts(c map[string]int64, sim *core.Simulator) {
	c["engine.resolved_cycles"] += sim.Now()
	for _, s := range sim.CBStats() {
		c["switches.flits_out"] += s.FlitsOut
		c["switches.decodes"] += s.Decodes
		c["switches.replications"] += s.Replications
		c["centralbuf.buffer_flits"] += s.BufferFlits
		c["centralbuf.bypass_flits"] += s.BypassFlits
		c["centralbuf.reserve_wait_cycles"] += s.ReserveWaitSum
	}
	for _, s := range sim.IBStats() {
		c["switches.flits_out"] += s.FlitsOut
		c["switches.decodes"] += s.Decodes
		c["switches.replications"] += s.Replications
		c["inputbuf.hol_blocked_cycles"] += s.HOLBlockedSum
		c["inputbuf.grant_wait_cycles"] += s.GrantWaitSum
	}
	for _, s := range sim.NICStats() {
		c["nic.flits_injected"] += s.FlitsInjected
		c["nic.forwarded_msgs"] += s.ForwardedMsgs
		c["nic.overhead_cycles"] += s.OverheadCycles
	}
}

// renderTables formats tables exactly as mdwbench prints them.
func renderTables(tables []*experiments.Table) string {
	var b strings.Builder
	for _, t := range tables {
		t.Format(&b)
		b.WriteString("\n")
	}
	return b.String()
}

// sweepWorkload returns the workload that resolves ids in passes of one
// sweep worker each.
func sweepWorkload(ids []string) func(*env) (*outcome, error) {
	return func(e *env) (*outcome, error) {
		if e.tr != nil {
			return tracedSweep(e, ids)
		}
		return untracedSweep(e, ids)
	}
}

// untracedSweep repeats whole passes until e.seconds have been measured.
// Every pass builds fresh simulators, and every pass must render the same
// tables.
func untracedSweep(e *env, ids []string) (*outcome, error) {
	var passes []*sweepPass
	var measured time.Duration
	for len(passes) == 0 || measured < e.seconds {
		p, err := runSweepPass(e, ids, nil)
		if err != nil {
			return nil, err
		}
		if len(passes) > 0 && (p.tables != passes[0].tables || p.cycles != passes[0].cycles) {
			return nil, fmt.Errorf("pass %d differs from pass 1 at the same seed", len(passes)+1)
		}
		passes = append(passes, p)
		measured += p.wall
	}
	if err := checkGolden(e, ids, passes[0].tables); err != nil {
		return nil, err
	}
	var plan, lat sample
	for _, p := range passes {
		plan = append(plan, p.plan...)
		lat.addDur(p.wall, time.Millisecond)
	}
	// Rates come from the median pass, so one pass slowed by a busy host
	// does not move them; every pass does the same work.
	tail, pct := lat.tail()
	pass := lat.median() / 1000
	o := &outcome{attempted: len(passes) * passes[0].points, metrics: map[string]float64{
		"sim_cycles_per_s": float64(passes[0].cycles) / pass,
		"ok_per_s":         float64(passes[0].points) / pass,
		"latency_p50_ms":   lat.median(),
		"latency_tail_ms":  tail,
		"setup_s":          plan.median(),
		"alloc_kb_per_op":  float64(passes[0].alloc) / 1024 / float64(passes[0].points),
	}, counts: map[string]int64{"engine.sim_cycles": passes[0].cycles}}
	o.note("%s: %d passes, %d points, %d simulated cycles per pass, %.3f s measured",
		strings.Join(ids, ","), len(passes), passes[0].points, passes[0].cycles, measured.Seconds())
	o.note("latency: host time to complete the sweep, n=%d passes, tail = p%g", len(lat), pct)
	o.note("setup: Plan, median of %d", len(plan))
	return o, nil
}

// tracedSweep runs one untraced pass and one traced pass; their tables and
// cycle totals must agree, and the difference in wall time is the tracing
// overhead.
func tracedSweep(e *env, ids []string) (*outcome, error) {
	base, err := runSweepPass(e, ids, nil)
	if err != nil {
		return nil, err
	}
	p, err := runSweepPass(e, ids, e.tr)
	if err != nil {
		return nil, err
	}
	if p.tables != base.tables || p.cycles != base.cycles {
		return nil, fmt.Errorf("traced tables or cycle totals differ from the untraced pass")
	}
	if err := checkGolden(e, ids, p.tables); err != nil {
		return nil, err
	}
	spans := e.tr.snapshot()
	newS := durations(spans, "core.new", time.Second).sum()
	runS := durations(spans, "core.run", time.Second).sum()
	unattributed := selfTimes(spans)[p.finishID].Seconds()
	m := map[string]float64{
		"bench.trace_overhead_pct":   100 * (p.wall.Seconds() - base.wall.Seconds()) / base.wall.Seconds(),
		"core.run_s":                 runS,
		"core.new_s":                 newS,
		"core.alloc_mb":              float64(p.alloc) / (1 << 20),
		"core.gc_cycles":             float64(p.gcs),
		"experiments.plan_ms":        1000 * p.plan.median(),
		"experiments.finish_ms":      1000 * p.wall.Seconds(),
		"experiments.unattributed_s": unattributed,
		"engine.sim_cycles":          float64(p.cycles),
	}
	if c := p.counts["engine.resolved_cycles"]; c > 0 {
		m["core.ns_per_sim_cycle"] = 1e9 * runS / float64(c)
	}
	if f := p.counts["switches.flits_out"]; f > 0 {
		m["switches.ns_per_flit"] = 1e9 * runS / float64(f)
	}
	counts := map[string]int64{"engine.sim_cycles": p.cycles}
	for k, v := range p.counts {
		counts[k] = v
		if k != "engine.resolved_cycles" {
			m[k] = float64(v)
		}
	}
	o := &outcome{attempted: p.points, metrics: m, counts: counts}
	o.note("%s: %d points, %d simulated cycles (%d through the resolver)",
		strings.Join(ids, ","), p.points, p.cycles, p.counts["engine.resolved_cycles"])
	o.note("sweep wall %.4f s = core.new %.4f + core.run %.4f + unattributed %.4f (custom-harness points and the sweep's own work)",
		p.wall.Seconds(), newS, runS, unattributed)
	return o, nil
}

// checkGolden compares rendered tables byte for byte with the committed
// results_all.txt sections; the file holds the default seed's tables only.
func checkGolden(e *env, ids []string, rendered string) error {
	if e.seed != defaultSeed {
		return nil
	}
	sections, err := goldenSections(filepath.Join(e.root, resultsFile))
	if err != nil {
		return err
	}
	var want strings.Builder
	for _, id := range ids {
		s, ok := sections[strings.ToUpper(id)]
		if !ok {
			return fmt.Errorf("%s has no %s section", resultsFile, strings.ToUpper(id))
		}
		want.WriteString(s)
	}
	if rendered != want.String() {
		return fmt.Errorf("tables differ from the committed %s sections", resultsFile)
	}
	return nil
}

// goldenSections splits a results file into its table sections keyed by
// table ID. A section runs from its "== ID: title ==" line up to the next
// such line, blank separator lines included.
func goldenSections(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]string{}
	var id string
	var cur strings.Builder
	flush := func() {
		if id != "" {
			out[id] = cur.String()
		}
		cur.Reset()
	}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "== "); ok {
			if head, _, ok := strings.Cut(rest, ":"); ok {
				flush()
				id = head
			}
		}
		cur.WriteString(line)
		cur.WriteString("\n")
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	flush()
	return out, nil
}
