// Package mdworm is the public API of the multidestination-worm simulator,
// a reproduction of Stunkel, Sivaram, and Panda, "Implementing
// Multidestination Worms in Switch-Based Parallel Systems: Architectural
// Alternatives and their Impact" (ISCA 1997).
//
// The library simulates, at flit granularity, bidirectional multistage
// interconnection networks (k-ary n-trees of SP-Switch-class 8-port
// switches) carrying unicast and multidestination wormhole traffic, with
// three multicast implementations under comparison:
//
//   - hardware multicast on a central-buffer switch (CB-HW), where a worm is
//     written once into a shared, chunked central buffer and read out by
//     every requested output port;
//   - hardware multicast on an input-buffer switch (IB-HW), with
//     asynchronous replication at full-packet input buffers; and
//   - software multicast (U-MIN binomial trees or separate addressing) built
//     from unicast worms and host send/receive overheads.
//
// # Quick start
//
//	cfg := mdworm.DefaultConfig()
//	cfg.Traffic.OpRate = cfg.Traffic.RateForLoad(0.1)
//	sim, err := mdworm.New(cfg)
//	if err != nil { ... }
//	res, err := sim.Run()
//	fmt.Println(res.Multicast.LastArrival)
//
// Multicast latency follows the last-arrival definition of Nupairoj and Ni:
// one sample per collective operation, from creation to the tail flit at the
// last destination.
//
// The paper's full evaluation is reproducible through RunExperiment /
// AllExperiments (or the cmd/mdwbench binary); see DESIGN.md for the
// experiment index and EXPERIMENTS.md for paper-versus-measured results.
package mdworm

import (
	"io"

	"mdworm/internal/collective"
	"mdworm/internal/core"
	"mdworm/internal/engine"
	"mdworm/internal/experiments"
	"mdworm/internal/faults"
	"mdworm/internal/obs"
	"mdworm/internal/routing"
	"mdworm/internal/stats"
	"mdworm/internal/topology"
	"mdworm/internal/traffic"
)

// Config describes one simulated system and workload.
type Config = core.Config

// Simulator is a fully wired system instance.
type Simulator = core.Simulator

// Results carries the measurements of one run.
type Results = stats.Results

// TrafficSpec describes a stochastic workload.
type TrafficSpec = traffic.Spec

// SwitchArch selects the switch microarchitecture.
type SwitchArch = core.SwitchArch

// Scheme selects how multicasts are realized.
type Scheme = collective.Scheme

// UpPolicy selects how ascending worms pick among equivalent up ports.
type UpPolicy = routing.UpPolicy

// TopologyKind selects the fabric shape (regular BMIN or irregular tree).
type TopologyKind = core.TopologyKind

// TreeSpec describes a NOW-style irregular tree of switches.
type TreeSpec = topology.TreeSpec

// Topology kinds.
const (
	// KaryTree is the regular BMIN of the paper's evaluation.
	KaryTree = core.KaryTree
	// IrregularTree is a random tree of varying-radix switches.
	IrregularTree = core.IrregularTree
)

// Switch architectures.
const (
	// CentralBuffer selects the SP-Switch-like shared-central-buffer switch.
	CentralBuffer = core.CentralBuffer
	// InputBuffer selects the per-input full-packet-buffer switch.
	InputBuffer = core.InputBuffer
)

// Multicast schemes.
const (
	// HardwareBitString sends one worm with an N-bit bit-string header.
	HardwareBitString = collective.HardwareBitString
	// HardwareMultiport sends one worm per multiport product set.
	HardwareMultiport = collective.HardwareMultiport
	// SoftwareBinomial is the U-MIN binomial-tree software multicast.
	SoftwareBinomial = collective.SoftwareBinomial
	// SoftwareSeparate sends one unicast per destination.
	SoftwareSeparate = collective.SoftwareSeparate
)

// CollectiveSpec describes a phase-structured collective workload driven
// alongside (or instead of) stochastic traffic; set it on Config.Collective.
// The zero value disables the driver.
type CollectiveSpec = collective.Spec

// CollectiveKind selects which collective a CollectiveSpec runs.
type CollectiveKind = collective.Kind

// Collective kinds.
const (
	// CollectiveBarrier combines single-flit tokens up a binomial tree and
	// releases with one multidestination worm (hw) or a unicast tree (sw).
	CollectiveBarrier = collective.Barrier
	// CollectiveBroadcast moves one payload from the root to all.
	CollectiveBroadcast = collective.Broadcast
	// CollectiveAllReduce reduces up a combine tree, then broadcasts.
	CollectiveAllReduce = collective.AllReduce
	// CollectiveAllReduceGather reduces by direct gather worms converging on
	// the root, then broadcasts.
	CollectiveAllReduceGather = collective.AllReduceGather
	// CollectiveScatter distributes personalized payloads from the root.
	CollectiveScatter = collective.Scatter
	// CollectiveGather collects personalized payloads at the root.
	CollectiveGather = collective.Gather
	// CollectiveMulticast sends one multicast per rep from a source to
	// Traffic.Degree destinations, both drawn among the participants from
	// the seed (the idle-network single-multicast measurement).
	CollectiveMulticast = collective.Multicast
	// CollectiveCombiningBarrier is the in-switch combining barrier: the
	// switches combine every node's token and broadcast the release. It
	// spans every node and needs an otherwise idle network.
	CollectiveCombiningBarrier = collective.CombiningBarrier
)

// CollectiveKinds lists every collective kind name in declaration order.
func CollectiveKinds() []string { return collective.Kinds() }

// ParseCollectiveKind parses a kind name as printed by CollectiveKind.String
// ("barrier", "broadcast", "all-reduce", "all-reduce-gather", "scatter",
// "gather", "multicast", "combining-barrier").
func ParseCollectiveKind(s string) (CollectiveKind, error) { return collective.ParseKind(s) }

// Up-port selection policies.
const (
	// UpHash spreads messages across parents by hashing message identity.
	UpHash = routing.UpHash
	// UpRandom picks a random parent per hop.
	UpRandom = routing.UpRandom
	// UpAdaptive picks the first free parent port.
	UpAdaptive = routing.UpAdaptive
)

// FaultPlan is a deterministic fault plan injected through Config.Faults:
// a sorted list of scheduled events applied by the engine's event loop.
type FaultPlan = faults.Plan

// FaultEvent is one scheduled fault of a FaultPlan.
type FaultEvent = faults.Event

// Fault kinds.
const (
	// FaultLinkDown permanently severs both directions of a switch port's
	// link at the next worm boundary.
	FaultLinkDown = faults.LinkDown
	// FaultPortStuck freezes a switch port's outgoing link, permanently or
	// for a bounded window.
	FaultPortStuck = faults.PortStuck
	// FaultCBShrink withdraws central-buffer chunks mid-run.
	FaultCBShrink = faults.CBShrink
	// FaultNICStall pauses a host's injection, permanently or for a window.
	FaultNICStall = faults.NICStall
)

// ParseFaultSpec parses the compact fault-plan grammar, e.g.
// "link-down@1000:sw3.p2;nic-stall@500+200:n5".
func ParseFaultSpec(s string) (FaultPlan, error) { return faults.ParseSpec(s) }

// DeadlockError reports that the watchdog observed no forward progress; the
// structured form names the components still holding work.
type DeadlockError = engine.DeadlockError

// InvariantError reports a model-invariant violation in strict mode (see
// Config.StrictInvariants).
type InvariantError = engine.InvariantError

// Tracer receives message-level simulation events (see Simulator.SetTracer).
type Tracer = engine.Tracer

// TraceEvent is one observation of the simulated system.
type TraceEvent = engine.TraceEvent

// NewWriterTracer returns a tracer that formats one line per event on w.
func NewWriterTracer(w io.Writer) Tracer { return &engine.WriterTracer{W: w} }

// Capture collects a run's observability data — trace events and cycle-
// sampled buffer occupancy — when attached via Simulator.Observe. Set Stream
// to write an ndjson timeline for cmd/mdwtrace; set CaptureEvents for
// in-process analysis (Trace, WritePerfetto).
type Capture = obs.Capture

// Timeline is the analyzable form of a captured run: reconstructed operation
// and message spans, the occupancy time series, and last-arrival critical
// paths with per-phase attribution.
type Timeline = obs.Trace

// OccupancySummary condenses a run's occupancy samples into peaks and means.
type OccupancySummary = obs.Summary

// SweepObserver aggregates occupancy summaries across an experiment sweep;
// attach one through ExperimentOptions.Observer and read SweepStats.Occupancy.
type SweepObserver = obs.SweepObserver

// NewCapture returns a capture that retains events and samples occupancy
// every 64 cycles — the defaults for in-process analysis.
func NewCapture() *Capture { return obs.NewCapture() }

// ReadTimeline parses an ndjson timeline written by a streaming Capture.
func ReadTimeline(r io.Reader) (*Timeline, error) { return obs.ReadTrace(r) }

// WritePerfetto exports a timeline as Perfetto/Chrome trace-event JSON.
func WritePerfetto(w io.Writer, t *Timeline) error { return obs.WritePerfetto(w, t) }

// DefaultConfig returns the experiments' baseline system: a 64-node 3-stage
// BMIN of 8-port central-buffer switches with hardware bit-string multicast.
func DefaultConfig() Config { return core.DefaultConfig() }

// New builds a simulator, raising buffer parameters as the workload needs.
func New(cfg Config) (*Simulator, error) { return core.New(cfg) }

// Restore rebuilds a simulator from a Simulator.Snapshot blob. The restored
// simulator continues the run cycle-exactly: its results are byte-identical
// to those of the uninterrupted original. Corrupt or truncated blobs fail
// with a structured error, never a panic.
func Restore(data []byte) (*Simulator, error) { return core.Restore(data) }

// ExperimentTable is one reproduced figure or table.
type ExperimentTable = experiments.Table

// ExperimentOptions controls experiment runs. Set Workers to fan sweep
// points across a pool (0 = GOMAXPROCS); every worker count renders
// byte-identical tables.
type ExperimentOptions = experiments.Options

// SweepStats summarizes the cost of one resolved experiment batch.
type SweepStats = experiments.SweepStats

// ExperimentIDs lists the available experiment identifiers in definition
// order: e1..e8 for the paper's figures and tables, a1..a11 for the
// design-choice ablations, then c1..c6 for the collective experiments.
func ExperimentIDs() []string { return experiments.IDs() }

// RunExperiment reproduces one experiment by id.
func RunExperiment(id string, o ExperimentOptions) (*ExperimentTable, error) {
	return experiments.Run(id, o)
}

// RunExperiments reproduces the given experiments through one shared worker
// pool and reports the batch cost.
func RunExperiments(ids []string, o ExperimentOptions) ([]*ExperimentTable, SweepStats, error) {
	return experiments.RunIDs(ids, o)
}

// AllExperiments reproduces the full suite in order.
func AllExperiments(o ExperimentOptions) ([]*ExperimentTable, error) {
	return experiments.RunAll(o)
}

// WriteTables formats tables to w, separated by blank lines.
func WriteTables(w io.Writer, tables []*ExperimentTable) {
	for _, t := range tables {
		t.Format(w)
		io.WriteString(w, "\n")
	}
}
