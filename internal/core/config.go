// Package core assembles the full simulated system — topology, links,
// switch models, NICs, traffic generation, and measurement — and runs the
// warmup / measure / drain methodology used by every experiment.
package core

import (
	"fmt"

	"mdworm/internal/collective"
	"mdworm/internal/faults"
	"mdworm/internal/flit"
	"mdworm/internal/nic"
	"mdworm/internal/routing"
	"mdworm/internal/switches"
	"mdworm/internal/switches/centralbuf"
	"mdworm/internal/switches/inputbuf"
	"mdworm/internal/topology"
	"mdworm/internal/traffic"
)

// TopologyKind selects the fabric shape.
type TopologyKind uint8

const (
	// KaryTree is the regular BMIN of the paper's evaluation, built from
	// Arity and Stages.
	KaryTree TopologyKind = iota
	// IrregularTree is a NOW-style random tree of varying-radix switches,
	// built from the Tree spec.
	IrregularTree
)

// String names the topology kind.
func (k TopologyKind) String() string {
	if k == KaryTree {
		return "kary-tree"
	}
	return "irregular-tree"
}

// SwitchArch selects the switch microarchitecture.
type SwitchArch uint8

const (
	// CentralBuffer is the SP-Switch-like shared-central-buffer switch.
	CentralBuffer SwitchArch = iota
	// InputBuffer is the per-input full-packet-buffer switch.
	InputBuffer
)

// String names the architecture.
func (a SwitchArch) String() string {
	if a == CentralBuffer {
		return "central-buffer"
	}
	return "input-buffer"
}

// Config describes one simulated system and workload. DefaultConfig returns
// a complete baseline; New only raises buffer parameters when the workload
// needs it (larger headers or packets), never lowers them.
type Config struct {
	// Topology selects the fabric shape (default KaryTree).
	Topology TopologyKind
	// Arity is the number of down (and up) ports per switch; an 8-port
	// SP-class switch has arity 4. (KaryTree only.)
	Arity int
	// Stages is the number of switch stages; the system has Arity^Stages
	// processors. (KaryTree only.)
	Stages int
	// Tree describes the irregular network (IrregularTree only).
	Tree topology.TreeSpec

	// Arch selects the switch microarchitecture.
	Arch SwitchArch
	// CB configures central-buffer switches (used when Arch == CentralBuffer).
	CB centralbuf.Config
	// IB configures input-buffer switches (used when Arch == InputBuffer).
	IB inputbuf.Config
	// NIC configures the host interfaces.
	NIC nic.Config

	// Scheme selects how multicasts are realized.
	Scheme collective.Scheme
	// ReplicateOnUpPath lets ascending worms branch downward before the
	// LCA stage.
	ReplicateOnUpPath bool
	// UpPolicy selects the up-port choice.
	UpPolicy routing.UpPolicy

	// LinkLatency is the wire latency in cycles (>= 1).
	LinkLatency int
	// FlitBits is the flit payload width used to size headers.
	FlitBits int

	// Traffic describes the stochastic workload (ignored by single-shot
	// experiments that call InjectOp directly).
	Traffic traffic.Spec

	// Collective describes a phase-structured collective workload (barrier,
	// broadcast, all-reduce, scatter/gather) driven alongside — or, with
	// Traffic.OpRate zero, instead of — the stochastic load. The zero value
	// disables it. Multicast steps are realized through Scheme, so the same
	// spec runs in hardware-multidestination or software-tree mode.
	Collective collective.Spec

	// WarmupCycles, MeasureCycles, and DrainCycles delimit the run.
	WarmupCycles  int64
	MeasureCycles int64
	DrainCycles   int64

	// Seed drives every random decision of the run.
	Seed uint64
	// WatchdogLimit is the deadlock watchdog threshold in cycles.
	WatchdogLimit int64

	// Faults is the deterministic fault plan injected during the run
	// (empty by default). The plan is part of the canonical configuration,
	// so cached results key on it.
	Faults faults.Plan
	// StrictInvariants upgrades model-invariant violations from counters
	// to hard run failures.
	StrictInvariants bool
}

// DefaultConfig returns the baseline system of the experiments: a 64-node
// 3-stage BMIN of 8-port central-buffer switches with hardware bit-string
// multicast.
func DefaultConfig() Config {
	return Config{
		Arity:             4,
		Stages:            3,
		Arch:              CentralBuffer,
		CB:                centralbuf.DefaultConfig(),
		IB:                inputbuf.DefaultConfig(),
		NIC:               nic.DefaultConfig(),
		Scheme:            collective.HardwareBitString,
		ReplicateOnUpPath: true,
		UpPolicy:          routing.UpHash,
		LinkLatency:       1,
		FlitBits:          16,
		Traffic: traffic.Spec{
			OpRate:            0.001,
			MulticastFraction: 1.0,
			Degree:            8,
			UniPayloadFlits:   32,
			McastPayloadFlits: 64,
		},
		WarmupCycles:  5_000,
		MeasureCycles: 20_000,
		DrainCycles:   200_000,
		Seed:          1,
		WatchdogLimit: 50_000,
	}
}

// N returns the number of processors of a KaryTree configuration (for
// irregular trees the count depends on the random draw; use Simulator.Net).
func (c *Config) N() int {
	n := 1
	for i := 0; i < c.Stages; i++ {
		n *= c.Arity
	}
	return n
}

// buildTopology constructs the fabric described by the configuration.
func (c *Config) buildTopology() (*topology.Network, error) {
	switch c.Topology {
	case KaryTree:
		if c.Arity < 2 || c.Stages < 1 {
			return nil, fmt.Errorf("core: Arity must be >= 2 and Stages >= 1")
		}
		return topology.NewKaryTree(c.Arity, c.Stages)
	case IrregularTree:
		return topology.NewRandomTree(c.Tree)
	default:
		return nil, fmt.Errorf("core: unknown topology kind %d", c.Topology)
	}
}

// headerFlitsFor returns the header size of a message class on the given
// fabric.
func (c *Config) headerFlitsFor(class flit.Class, net *topology.Network) int {
	enc := flit.EncUnicast
	if class == flit.ClassMulticast {
		enc = c.Scheme.Encoding()
	}
	stages, arity := net.Stages, net.Arity
	if !net.Kary {
		arity = 1 // multiport is rejected on irregular fabrics anyway
	}
	return flit.HeaderFlits(enc, net.N, stages, arity, c.FlitBits)
}

// maxHeaderFlits returns the largest header any message of the run carries.
func (c *Config) maxHeaderFlits(net *topology.Network) int {
	h := c.headerFlitsFor(flit.ClassUnicast, net)
	if m := c.headerFlitsFor(flit.ClassMulticast, net); m > h {
		h = m
	}
	return h
}

// maxPacketFlits returns the largest packet of the run, headers included.
func (c *Config) maxPacketFlits(net *topology.Network) int {
	u := c.headerFlitsFor(flit.ClassUnicast, net) + c.Traffic.UniPayloadFlits
	m := c.headerFlitsFor(flit.ClassMulticast, net) + c.Traffic.McastPayloadFlits
	return max(u, m)
}

// normalize raises buffer parameters to fit the workload on the built
// fabric and validates the result.
func (c *Config) normalize(net *topology.Network) error {
	if c.LinkLatency < 1 {
		return fmt.Errorf("core: LinkLatency must be >= 1")
	}
	if c.FlitBits < 1 || c.FlitBits > 64 {
		return fmt.Errorf("core: FlitBits must be in [1,64]")
	}
	if c.Scheme == collective.HardwareMultiport && !net.Kary {
		return fmt.Errorf("core: the multiport encoding requires a regular k-ary tree")
	}
	for _, sw := range net.Switches {
		if sw.NumPorts() > switches.MaxPorts {
			return fmt.Errorf("core: switch %d has %d ports; the switch models support at most %d",
				sw.ID, sw.NumPorts(), switches.MaxPorts)
		}
	}
	maxHeader := c.maxHeaderFlits(net)
	maxPacket := c.maxPacketFlits(net)

	if c.Collective.Enabled() {
		if err := c.Collective.Normalize(net.N); err != nil {
			return err
		}
		sched, err := collective.BuildSchedule(c.Collective, net.N, c.Scheme.Hardware())
		if err != nil {
			return err
		}
		// Software scatter/gather steps carry whole subtrees of payload;
		// the packet bound must cover the largest of them.
		if p := sched.MaxPayload() + maxHeader; p > maxPacket {
			maxPacket = p
		}
	} else {
		// Canonicalize every disabled spec to the zero value so stray
		// fields cannot split the result cache.
		c.Collective = collective.Spec{}
	}

	c.CB.InFIFOFlits = max(c.CB.InFIFOFlits, maxHeader)
	c.CB.MaxPacketFlits = max(c.CB.MaxPacketFlits, maxPacket)
	if c.CB.ChunkFlits < 1 {
		c.CB.ChunkFlits = 1
	}
	// Each direction pool of the central buffer must hold a full packet.
	needChunks := (c.CB.MaxPacketFlits + c.CB.ChunkFlits - 1) / c.CB.ChunkFlits
	c.CB.Chunks = max(c.CB.Chunks, 2*needChunks)

	c.IB.MaxPacketFlits = max(c.IB.MaxPacketFlits, maxPacket)
	c.IB.BufFlits = max(c.IB.BufFlits, c.IB.MaxPacketFlits+16)

	switch c.Arch {
	case CentralBuffer:
		if err := c.CB.Validate(maxHeader); err != nil {
			return err
		}
	case InputBuffer:
		if err := c.IB.Validate(maxHeader); err != nil {
			return err
		}
	default:
		return fmt.Errorf("core: unknown switch architecture %d", c.Arch)
	}
	if err := c.NIC.Validate(); err != nil {
		return err
	}
	if err := c.Traffic.Validate(net.N); err != nil {
		return err
	}
	return c.normalizeFaults(net, needChunks)
}

// normalizeFaults validates the fault plan against the built fabric and
// stores it in canonical (sorted) form.
func (c *Config) normalizeFaults(net *topology.Network, needChunks int) error {
	if c.Faults.Empty() {
		c.Faults = faults.Plan{}
		return nil
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	shrunk := map[int]int{}
	for i, e := range c.Faults.Events {
		switch e.Kind {
		case faults.LinkDown, faults.PortStuck:
			if e.Switch < 0 || e.Switch >= len(net.Switches) {
				return fmt.Errorf("core: fault event %d: switch %d out of range (fabric has %d switches)",
					i, e.Switch, len(net.Switches))
			}
			if e.Port < 0 || e.Port >= net.Switches[e.Switch].NumPorts() {
				return fmt.Errorf("core: fault event %d: port %d out of range (sw%d has %d ports)",
					i, e.Port, e.Switch, net.Switches[e.Switch].NumPorts())
			}
		case faults.CBShrink:
			if c.Arch != CentralBuffer {
				return fmt.Errorf("core: fault event %d: cb-shrink requires the central-buffer architecture", i)
			}
			if e.Switch < 0 || e.Switch >= len(net.Switches) {
				return fmt.Errorf("core: fault event %d: switch %d out of range (fabric has %d switches)",
					i, e.Switch, len(net.Switches))
			}
			shrunk[e.Switch] += e.Chunks
			// Each direction pool must keep room for one full packet, or a
			// legitimately reserved packet could wedge forever.
			if limit := c.CB.Chunks - 2*needChunks; shrunk[e.Switch] > limit {
				return fmt.Errorf("core: fault events shrink sw%d by %d chunks; at most %d can go (%d chunks minus one max packet per pool)",
					e.Switch, shrunk[e.Switch], limit, c.CB.Chunks)
			}
		case faults.NICStall:
			if e.Node < 0 || e.Node >= net.N {
				return fmt.Errorf("core: fault event %d: node %d out of range (%d nodes)", i, e.Node, net.N)
			}
		}
	}
	c.Faults = c.Faults.Normalized()
	return nil
}
