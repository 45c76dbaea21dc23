// Package core assembles the full simulated system — topology, links,
// switch models, NICs, traffic generation, and measurement — and runs the
// warmup / measure / drain methodology used by every experiment.
package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

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

	// Traffic describes the stochastic workload. Its Degree also sets the
	// destination count of each rep of a Multicast collective.
	Traffic traffic.Spec

	// Collective describes a phase-structured collective workload (barrier,
	// broadcast, all-reduce, scatter/gather, single multicasts, the
	// in-switch combining barrier) driven alongside — or, with
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

// fabricKey names a fabric by exactly the configuration fields that define
// it: Arity and Stages for a k-ary tree, Tree for an irregular one.
type fabricKey struct {
	kind          TopologyKind
	arity, stages int
	tree          topology.TreeSpec
}

func (c *Config) fabricKey() fabricKey {
	if c.Topology == IrregularTree {
		return fabricKey{kind: IrregularTree, tree: c.Tree}
	}
	return fabricKey{kind: c.Topology, arity: c.Arity, stages: c.Stages}
}

// build constructs the fabric the key names.
func (k fabricKey) build() (*topology.Network, error) {
	switch k.kind {
	case KaryTree:
		if k.arity < 2 || k.stages < 1 {
			return nil, fmt.Errorf("core: Arity must be >= 2 and Stages >= 1")
		}
		return topology.NewKaryTree(k.arity, k.stages)
	case IrregularTree:
		return topology.NewRandomTree(k.tree)
	default:
		return nil, fmt.Errorf("core: unknown topology kind %d", k.kind)
	}
}

// maxFabrics bounds the fabrics the process keeps built.
const maxFabrics = 16

// fabrics memoizes built fabrics, least recently used first. A fabric is
// immutable once built, so every simulator and every canonicalization of
// one shape reads the same instance. Each entry also holds the released
// simulators of its fabric, per architecture, that New builds into.
var fabrics struct {
	sync.Mutex
	lru []fabricEntry
}

type fabricEntry struct {
	key    fabricKey
	net    *topology.Network
	parked [2][]*Simulator // by SwitchArch
}

// parking returns the parked simulators of fabric net under key and
// architecture arch, or nil when the memo no longer holds net. The caller
// holds the memo's lock.
func parking(key fabricKey, net *topology.Network, arch SwitchArch) *[]*Simulator {
	for i := range fabrics.lru {
		if e := &fabrics.lru[i]; e.key == key && e.net == net {
			return &e.parked[arch]
		}
	}
	return nil
}

// takeParked returns a released simulator of fabric net and architecture
// arch for New to build into, or nil when none is parked.
func takeParked(key fabricKey, net *topology.Network, arch SwitchArch) *Simulator {
	fabrics.Lock()
	defer fabrics.Unlock()
	if p := parking(key, net, arch); p != nil && len(*p) > 0 {
		s := (*p)[len(*p)-1]
		*p = slices.Delete(*p, len(*p)-1, len(*p))
		return s
	}
	return nil
}

// Release parks a simulator its caller has finished with, so that a later
// New of the same fabric and architecture builds into its storage. Nothing
// may use s afterwards, and releasing it twice panics. At most GOMAXPROCS
// simulators park per fabric and architecture, holding only that storage
// and the work live at release; evicting the fabric drops them. Under the
// mdworm_oracle build tag nothing parks, and s is poisoned: it has no
// kernel, so running it or reading its clock panics.
func Release(s *Simulator) {
	if s.released {
		panic("core: simulator released twice")
	}
	if !reuse {
		*s = Simulator{released: true}
		return
	}
	s.released = true
	s.capture, s.userTracer, s.fdrv, s.cdrv, s.deliverHook = nil, nil, nil, nil, nil
	s.sim.Reset(0, 0, 0)
	fabrics.Lock()
	defer fabrics.Unlock()
	if p := parking(s.cfg.fabricKey(), s.net, s.cfg.Arch); p != nil && len(*p) < runtime.GOMAXPROCS(0) {
		*p = append(*p, s)
	}
}

// buildTopology returns the fabric the configuration describes, shared with
// every configuration of its shape: it is built on first use and kept while
// it is among the maxFabrics most recently used. Under the mdworm_oracle
// build tag every call builds a fresh one.
func (c *Config) buildTopology() (*topology.Network, error) {
	key := c.fabricKey()
	if !reuse {
		return key.build()
	}
	fabrics.Lock()
	defer fabrics.Unlock()
	for i, e := range fabrics.lru {
		if e.key == key {
			fabrics.lru = append(slices.Delete(fabrics.lru, i, i+1), e)
			return e.net, nil
		}
	}
	net, err := key.build()
	if err != nil {
		return nil, err
	}
	if len(fabrics.lru) == maxFabrics {
		fabrics.lru = slices.Delete(fabrics.lru, 0, 1)
	}
	fabrics.lru = append(fabrics.lru, fabricEntry{key: key, net: net})
	return net, nil
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
// fabric and validates the result. It returns the collective workload's
// schedule (the zero Schedule when none is configured), a pure function of
// the normalized configuration.
func (c *Config) normalize(net *topology.Network) (sched collective.Schedule, err error) {
	if c.LinkLatency < 1 {
		return sched, fmt.Errorf("core: LinkLatency must be >= 1")
	}
	if c.FlitBits < 1 || c.FlitBits > 64 {
		return sched, fmt.Errorf("core: FlitBits must be in [1,64]")
	}
	// Only the fields of its topology kind define the fabric, as in its
	// memo key; zero the others so that they cannot split the result cache.
	key := c.fabricKey()
	c.Arity, c.Stages, c.Tree = key.arity, key.stages, key.tree
	if c.Scheme == collective.HardwareMultiport && !net.Kary {
		return sched, fmt.Errorf("core: the multiport encoding requires a regular k-ary tree")
	}
	for _, sw := range net.Switches {
		if sw.NumPorts() > switches.MaxPorts {
			return sched, fmt.Errorf("core: switch %d has %d ports; the switch models support at most %d",
				sw.ID, sw.NumPorts(), switches.MaxPorts)
		}
	}
	maxHeader := c.maxHeaderFlits(net)
	maxPacket := c.maxPacketFlits(net)

	if c.Collective.Enabled() {
		if c.Collective.Kind == collective.CombiningBarrier {
			if c.Traffic.OpRate > 0 {
				return sched, fmt.Errorf("core: the combining barrier requires an idle network (Traffic.OpRate 0)")
			}
			c.Collective.Participants = net.N
		}
		if err := c.Collective.Normalize(net.N); err != nil {
			return sched, err
		}
		if p := c.Collective.Participants; c.Collective.Kind == collective.Multicast &&
			(c.Traffic.Degree < 1 || c.Traffic.Degree > p-1) {
			return sched, fmt.Errorf("core: multicast degree %d out of range [1,%d]", c.Traffic.Degree, p-1)
		}
		if sched, err = collective.BuildSchedule(c.Collective, net.N, c.Scheme.Hardware()); err != nil {
			return sched, err
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
			return sched, err
		}
	case InputBuffer:
		if err := c.IB.Validate(maxHeader); err != nil {
			return sched, err
		}
	default:
		return sched, fmt.Errorf("core: unknown switch architecture %d", c.Arch)
	}
	if err := c.NIC.Validate(); err != nil {
		return sched, err
	}
	if err := c.Traffic.Validate(net.N); err != nil {
		return sched, err
	}
	return sched, c.normalizeFaults(net, needChunks)
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
