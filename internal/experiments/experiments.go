// Package experiments defines the evaluation of EXPERIMENTS.md as runnable
// sweeps over the simulator, and renders the resulting tables in the layout
// the paper's figures plot. It registers 25 ids, which IDs lists in
// definition order: the paper's experiments e1–e8 (multiple-multicast
// latency and throughput, bimodal unicast and multicast latency, degree,
// message length, system size, single multicast on an idle network); the
// ablations a1–a11 (central-buffer size, chunk size, replicate-on-up-path,
// up-port policy, encoding, software overhead, hot spot, barrier, irregular
// topology, synchronous replication, buffer bandwidth); and the collective
// experiments c1–c6 (barrier size, broadcast length, all-reduce,
// scatter/gather, skew, background load).
package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"

	"mdworm/internal/collective"
	"mdworm/internal/core"
	"mdworm/internal/obs"
	"mdworm/internal/stats"
)

// PointEvent is the structured per-point progress notification delivered to
// Options.OnPoint as pool workers complete measurements. Events arrive in
// completion order (which under a parallel run is not table order) but never
// concurrently: delivery is serialized.
type PointEvent struct {
	// Tag identifies the point within its experiment (series plus sweep
	// parameter, e.g. "e1/cb-hw/load=0.2").
	Tag string
	// X is the point's sweep coordinate.
	X float64
	// McastLatency and UniLatency are mean last-arrival latencies;
	// McastLatency is the table's MetricMcastLatency, a collective's per-rep
	// latency when the run drove one.
	McastLatency float64
	UniLatency   float64
	// Throughput is delivered payload flits per node per cycle, both
	// classes combined.
	Throughput float64
	// Saturated flags a point whose latencies reflect queue growth.
	Saturated bool
	// OpsDegraded and DestsDropped account fault losses: ops that completed
	// with at least one destination dropped, and the individual destinations
	// lost. Zero on fault-free runs.
	OpsDegraded  int64
	DestsDropped int64
	// Violations counts model-invariant checker hits (always 0 on a healthy
	// model).
	Violations int64
	// Cycles is the simulated-cycle cost of the point.
	Cycles int64
	// Err is non-nil for failed points (the other measurement fields are
	// then zero).
	Err error
}

// Options controls a run of the experiment suite.
type Options struct {
	// Quick shrinks windows and point counts for smoke runs and benches.
	Quick bool
	// Seed drives all runs (points vary it deterministically).
	Seed uint64
	// Progress, when non-nil, receives one line per completed point.
	// Under a parallel run lines may interleave across experiments; each
	// line stays whole.
	Progress io.Writer
	// OnPoint, when non-nil, receives a structured event per completed
	// point (the callback form of Progress; mdwd streams these to HTTP
	// clients). Calls are serialized across pool workers.
	OnPoint func(PointEvent)
	// Workers bounds how many sweep points run concurrently; 0 means
	// GOMAXPROCS. Each point is an independent simulator instance, so the
	// rendered tables are byte-identical for every worker count.
	Workers int
	// Context, when non-nil, cancels the sweep: pool workers stop picking
	// up points once it is done, pending points fail with the context's
	// error, and Run/RunIDs return that error. A finished sweep is never
	// affected retroactively.
	Context context.Context
	// Observer, when non-nil, attaches a samples-only occupancy capture to
	// every point's simulator and folds each point's summary into it under
	// the point's tag. The capture carries no tracer, so measured behavior
	// is unchanged; the per-sweep aggregate lands in SweepStats.Occupancy.
	Observer *obs.SweepObserver
	// Resolver, when non-nil, replaces local simulator execution for every
	// measurement point: it receives the point's fully prepared
	// configuration and tag and returns the measured results plus the
	// simulated-cycle cost. The cluster coordinator uses it to run points on
	// peer daemons — determinism makes a remote measurement byte-identical
	// to a local one, so rendered tables are unchanged. Observer is ignored
	// on resolver-backed points (occupancy is not carried over the wire).
	Resolver func(cfg core.Config, tag string) (stats.Results, int64, error)

	// progressMu serializes Progress writes and OnPoint calls across pool
	// workers; installed by forRun before experiment closures capture the
	// options.
	progressMu *sync.Mutex
}

// DefaultOptions returns the full-fidelity settings.
func DefaultOptions() Options { return Options{Seed: 1} }

func (o Options) progress(format string, args ...any) {
	if o.Progress == nil {
		return
	}
	if o.progressMu != nil {
		o.progressMu.Lock()
		defer o.progressMu.Unlock()
	}
	fmt.Fprintf(o.Progress, format+"\n", args...)
}

// point delivers one structured progress event, serialized across workers.
func (o Options) point(ev PointEvent) {
	if o.OnPoint == nil {
		return
	}
	if o.progressMu != nil {
		o.progressMu.Lock()
		defer o.progressMu.Unlock()
	}
	o.OnPoint(ev)
}

// Point is one measurement of one series. Until resolved by the runner, a
// point may be deferred: X, Tag, and table position are fixed, and the
// deferred closure produces the measurement when a pool worker executes it.
type Point struct {
	X float64
	// Tag identifies the point within its experiment (series plus sweep
	// parameter, e.g. "e1/cb-hw/load=0.2"); it is fixed at planning time, so
	// PlannedTags can report the deterministic point order of a sweep before
	// anything runs.
	Tag     string
	Results stats.Results
	Err     error

	deferred func() Point // pending measurement; nil once resolved
	cycles   int64        // simulated cycles this point cost (for SweepStats)
}

// Series is one curve of a figure (one contender).
type Series struct {
	Name   string
	Points []Point
}

// Table is one reproduced figure or table.
type Table struct {
	ID     string
	Title  string
	XLabel string
	// Metrics lists the column extractors to print, in order.
	Metrics []Metric
	Series  []Series
	Notes   string

	// strict promotes the first point error to an experiment error after
	// resolution (experiments whose every point must succeed). Non-strict
	// tables keep point errors in their rows — A10 prints its predicted
	// deadlocks that way.
	strict bool
}

// Metric extracts one printable value from a point's results.
type Metric struct {
	Name string
	Get  func(r stats.Results) float64
}

// Standard metrics. A run that drove a collective (the idle-network
// single-multicast draws and barriers among them) reports its per-rep
// latency and message count as its multicast latency and messages per op;
// any other run reports its multicast class's.
var (
	MetricMcastLatency = Metric{"mcast_lat", func(r stats.Results) float64 {
		if r.Collective != nil {
			return r.Collective.LastArrival.Mean
		}
		return r.Multicast.LastArrival.Mean
	}}
	MetricMcastP95 = Metric{"mcast_p95", func(r stats.Results) float64 {
		return r.Multicast.LastArrival.P95
	}}
	MetricUniLatency = Metric{"uni_lat", func(r stats.Results) float64 {
		return r.Unicast.LastArrival.Mean
	}}
	MetricThroughput = Metric{"delivered_payload", func(r stats.Results) float64 {
		return r.Multicast.DeliveredPayloadPerNodeCycle + r.Unicast.DeliveredPayloadPerNodeCycle
	}}
	MetricMsgsPerOp = Metric{"msgs_per_op", func(r stats.Results) float64 {
		if r.Collective != nil {
			return r.Collective.MessagesPerRep
		}
		return r.Multicast.MessagesPerOp
	}}
)

// Format renders the table as aligned text, one block per series. Saturated
// points are marked with '*' (their latencies reflect queue growth).
func (t *Table) Format(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	if t.Notes != "" {
		fmt.Fprintf(w, "   %s\n", t.Notes)
	}
	header := fmt.Sprintf("%-14s %12s", "series", t.XLabel)
	for _, m := range t.Metrics {
		header += fmt.Sprintf(" %14s", m.Name)
	}
	fmt.Fprintln(w, header)
	fmt.Fprintln(w, strings.Repeat("-", len(header)))
	for _, s := range t.Series {
		for _, p := range s.Points {
			row := fmt.Sprintf("%-14s %12.4g", s.Name, p.X)
			if p.Err != nil {
				fmt.Fprintf(w, "%s  ERROR: %v\n", row, p.Err)
				continue
			}
			for _, m := range t.Metrics {
				row += fmt.Sprintf(" %14.5g", m.Get(p.Results))
			}
			if p.Results.Saturated {
				row += " *"
			}
			fmt.Fprintln(w, row)
		}
		fmt.Fprintln(w)
	}
}

// Contender is one scheme/architecture combination under comparison.
type Contender struct {
	Name   string
	Arch   core.SwitchArch
	Scheme collective.Scheme
}

// The three principal contenders of the paper.
var (
	CBHW   = Contender{"cb-hw", core.CentralBuffer, collective.HardwareBitString}
	IBHW   = Contender{"ib-hw", core.InputBuffer, collective.HardwareBitString}
	SWUMIN = Contender{"sw-umin", core.CentralBuffer, collective.SoftwareBinomial}
	SWSEP  = Contender{"sw-sep", core.CentralBuffer, collective.SoftwareSeparate}
	CBMP   = Contender{"cb-multiport", core.CentralBuffer, collective.HardwareMultiport}
)

// Apply stamps the contender onto a config.
func (c Contender) Apply(cfg *core.Config) {
	cfg.Arch = c.Arch
	cfg.Scheme = c.Scheme
}

// baseConfig returns the experiment baseline, shrunk in quick mode.
func baseConfig(o Options) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = o.Seed
	cfg.WarmupCycles = 4_000
	cfg.MeasureCycles = 20_000
	cfg.DrainCycles = 1_000_000
	if o.Quick {
		cfg.WarmupCycles = 1_000
		cfg.MeasureCycles = 4_000
		cfg.DrainCycles = 400_000
	}
	return cfg
}

// runPoint schedules one configuration as a deferred point at x; the runner
// pool builds and runs the simulator when the point resolves — or, when a
// Resolver is installed, hands the configuration to it instead.
func runPoint(cfg core.Config, x float64, o Options, tag string) Point {
	return Point{X: x, Tag: tag, deferred: func() Point {
		if o.Resolver != nil {
			res, cycles, err := o.Resolver(cfg, tag)
			return finishPoint(cfg, o, tag, x, res, cycles, err)
		}
		sim, err := core.New(cfg)
		if err != nil {
			o.point(PointEvent{Tag: tag, X: x, Err: err})
			return Point{X: x, Tag: tag, Err: err}
		}
		var occ *obs.Capture
		if o.Observer != nil {
			every := o.Observer.SampleEvery
			if every <= 0 {
				every = 64
			}
			occ = &obs.Capture{SampleEvery: every}
			sim.Observe(occ)
		}
		res, err := sim.Run()
		if err == nil && occ != nil {
			o.Observer.Record(tag, occ.Summary())
		}
		cycles := sim.Now()
		core.Release(sim)
		return finishPoint(cfg, o, tag, x, res, cycles, err)
	}}
}

// finishPoint turns one measurement of cfg into its point, emitting the
// progress line and structured event; shared by the local and
// resolver-backed paths so their observable output is identical. A
// collective that completed fewer reps than configured fails the point.
func finishPoint(cfg core.Config, o Options, tag string, x float64, res stats.Results, cycles int64, err error) Point {
	if c := res.Collective; err == nil && c != nil && c.Completed < int64(cfg.Collective.Reps) {
		err = fmt.Errorf("collective incomplete after %d cycles (%d of %d reps)", cycles, c.Completed, cfg.Collective.Reps)
	}
	if err != nil {
		err = fmt.Errorf("%s: %w", tag, err)
		o.point(PointEvent{Tag: tag, X: x, Cycles: cycles, Err: err})
		return Point{X: x, Tag: tag, Err: err, cycles: cycles}
	}
	mcast := MetricMcastLatency.Get(res)
	thr := MetricThroughput.Get(res)
	line := fmt.Sprintf("  %-28s x=%-8.4g mcast=%.1f uni=%.1f thr=%.3f sat=%v",
		tag, x, mcast, res.Unicast.LastArrival.Mean, thr, res.Saturated)
	// Fault-free runs keep the historical line format byte-for-byte.
	if res.DestsDropped > 0 || res.InvariantViolations > 0 {
		line += fmt.Sprintf(" dropped=%d violations=%d", res.DestsDropped, res.InvariantViolations)
	}
	o.progress("%s", line)
	o.point(PointEvent{
		Tag:          tag,
		X:            x,
		McastLatency: mcast,
		UniLatency:   res.Unicast.LastArrival.Mean,
		Throughput:   thr,
		Saturated:    res.Saturated,
		OpsDegraded:  res.OpsDegraded,
		DestsDropped: res.DestsDropped,
		Violations:   res.InvariantViolations,
		Cycles:       cycles,
	})
	return Point{X: x, Tag: tag, Results: res, cycles: cycles}
}

// Registry maps experiment ids to their runners.
type Runner func(Options) (*Table, error)

var registry = map[string]Runner{}
var registryOrder []string

func register(id string, r Runner) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = r
	registryOrder = append(registryOrder, id)
}

// The registry is populated here, in one place, so that definition order is
// explicit: the paper's figures e1–e8 first, then the ablations a1–a11, then
// the collective experiments c1–c6. IDs, RunAll, and mdwbench's listing all
// follow this order.
func init() {
	register("e1", E1MultipleMulticastLatency)
	register("e2", E2MultipleMulticastThroughput)
	register("e3", E3BimodalUnicastLatency)
	register("e4", E4BimodalMulticastLatency)
	register("e5", E5Degree)
	register("e6", E6MessageLength)
	register("e7", E7SystemSize)
	register("e8", E8SingleMulticast)
	register("a1", A1CentralBufferSize)
	register("a2", A2ChunkSize)
	register("a3", A3ReplicateOnUpPath)
	register("a4", A4UpPortPolicy)
	register("a5", A5Encoding)
	register("a6", A6SoftwareOverhead)
	register("a7", A7HotSpot)
	register("a8", A8Barrier)
	register("a9", A9Irregular)
	register("a10", A10SyncReplication)
	register("a11", A11BufferBandwidth)
	register("c1", C1BarrierSize)
	register("c2", C2BroadcastLength)
	register("c3", C3AllReduce)
	register("c4", C4ScatterGather)
	register("c5", C5Skew)
	register("c6", C6Background)
}

// IDs returns all experiment ids in definition order (e1..e8, a1..a11,
// c1..c6) — the same order RunAll executes.
func IDs() []string {
	return append([]string(nil), registryOrder...)
}

// Run executes one experiment by id, resolving its points across the worker
// pool (see Options.Workers).
func Run(id string, o Options) (*Table, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (known, in definition order: %s)",
			id, strings.Join(IDs(), " "))
	}
	o = o.forRun()
	t, err := r(o)
	if err != nil {
		return t, err
	}
	resolve([]*Table{t}, o)
	if cerr := o.canceled(); cerr != nil {
		return t, cerr
	}
	if t.strict {
		if perr := firstPointErr(t); perr != nil {
			return t, perr
		}
	}
	return t, nil
}

// Plan builds the given experiments' tables with every point still deferred.
// Together with Finish it is the two-phase form of RunIDs, exported for the
// cluster coordinator, which needs the deterministic point order of a sweep
// (see PlannedTags) before resolution begins. Closures built here capture o,
// so OnPoint, Progress, and Resolver must be set before Plan, and the same o
// must be passed to Finish.
func Plan(ids []string, o Options) ([]*Table, error) {
	o = o.forRun()
	tables := make([]*Table, 0, len(ids))
	for _, id := range ids {
		r, ok := registry[id]
		if !ok {
			return tables, fmt.Errorf("experiments: unknown experiment %q (known, in definition order: %s)",
				id, strings.Join(IDs(), " "))
		}
		t, err := r(o)
		if err != nil {
			return tables, fmt.Errorf("experiment %s: %w", id, err)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// PlannedTags returns the tags of every still-deferred point of the given
// tables, in table order — the deterministic point order a sweep resolves
// in, and the order the cluster coordinator streams merged results in.
func PlannedTags(tables []*Table) []string {
	var tags []string
	for _, t := range tables {
		for si := range t.Series {
			for pi := range t.Series[si].Points {
				if p := &t.Series[si].Points[pi]; p.deferred != nil {
					tags = append(tags, p.Tag)
				}
			}
		}
	}
	return tags
}

// Finish resolves planned tables across the worker pool and applies the
// strict-table error promotion; ids must parallel tables (as returned by
// Plan) and o must be the value Plan captured.
func Finish(ids []string, tables []*Table, o Options) (SweepStats, error) {
	st := resolve(tables, o)
	if cerr := o.canceled(); cerr != nil {
		return st, cerr
	}
	for i, t := range tables {
		if t.strict {
			if perr := firstPointErr(t); perr != nil {
				return st, fmt.Errorf("experiment %s: %w", ids[i], perr)
			}
		}
	}
	return st, nil
}

// RunIDs executes the given experiments, resolving the points of all of
// them through one shared worker pool so parallelism spans experiment
// boundaries. Tables are returned in argument order regardless of how the
// pool interleaves execution.
func RunIDs(ids []string, o Options) ([]*Table, SweepStats, error) {
	o = o.forRun()
	tables, err := Plan(ids, o)
	if err != nil {
		return tables, SweepStats{}, err
	}
	st, err := Finish(ids, tables, o)
	return tables, st, err
}

// RunAll executes every registered experiment in definition order.
func RunAll(o Options) ([]*Table, error) {
	tables, _, err := RunIDs(IDs(), o)
	return tables, err
}
