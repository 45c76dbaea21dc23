package core

import (
	"fmt"

	"mdworm/internal/collective"
	"mdworm/internal/engine"
	"mdworm/internal/flit"
	"mdworm/internal/nic"
	"mdworm/internal/obs"
	"mdworm/internal/routing"
	"mdworm/internal/stats"
	"mdworm/internal/switches"
	"mdworm/internal/switches/centralbuf"
	"mdworm/internal/switches/inputbuf"
	"mdworm/internal/topology"
	"mdworm/internal/traffic"
)

// Simulator owns one fully wired system instance.
type Simulator struct {
	cfg    Config
	net    *topology.Network
	sim    *engine.Simulation
	router *routing.Router
	nics   []*nic.NIC
	sws    []switches.Switch // one per topology switch, in switch-ID order
	gen    *traffic.Generator
	col    stats.Collector
	ids    engine.IDGen
	worms  flit.WormArena // the only pool of worms, messages and ops; every switch and NIC shares it
	fac    *factory       // built once; every NIC and inject shares it
	// planned is inject's scratch for a multicast's messages, emptied once
	// they are submitted: derived state, never serialized.
	planned []*flit.Message

	// ports holds each switch's per-port link pair; the fault driver uses
	// it to fail or stall specific links at their scheduled cycles.
	ports [][]switches.PortIO

	outstanding int // ops not yet fully delivered
	genOn       bool

	// Run's phase machine, checkpointable mid-run: phase tracks how far the
	// methodology has advanced, backlog is the NIC queue depth measured at
	// the end of the load phase (a saturation input), and drainEnd is the
	// drain budget's absolute deadline. fdrv is the registered fault driver,
	// if any (its event cursor is part of a checkpoint).
	phase    runPhase
	backlog  int
	drainEnd int64
	fdrv     *faultDriver
	// cdrv drives the configured collective workload, if any (its per-rep
	// progress is part of a checkpoint).
	cdrv *collectiveDriver

	// userTracer and capture are composed into the engine's single tracer
	// slot: SetTracer and Observe may both be in effect on one run.
	userTracer engine.Tracer
	capture    *obs.Capture

	// deliverHook, when non-nil, observes every message delivery (after
	// op accounting); tests use it to audit deliveries.
	deliverHook func(m *flit.Message, proc int, now int64)
}

// factory builds messages from the simulation's pool, with
// configuration-derived header sizes.
type factory struct {
	cfg  *Config
	net  *topology.Network
	ids  *engine.IDGen
	pool *flit.WormArena
}

// NewMessage implements collective.MessageFactory.
func (f *factory) NewMessage(src int, dests []int, class flit.Class, payload int,
	op *flit.Op, now int64) *flit.Message {

	m := f.pool.NewMessage(op)
	m.ID = f.ids.Next()
	m.Src = src
	m.Dests = dests
	m.Class = class
	m.PayloadFlits = payload
	m.HeaderFlits = f.cfg.headerFlitsFor(class, f.net)
	m.Created = now
	return m
}

// New builds a simulator from the configuration (normalizing buffer sizes to
// fit the workload on the built fabric).
func New(cfg Config) (*Simulator, error) {
	net, err := cfg.buildTopology()
	if err != nil {
		return nil, err
	}
	if err := cfg.normalize(net); err != nil {
		return nil, err
	}
	s := &Simulator{
		cfg: cfg,
		net: net,
		sim: engine.NewSimulation(cfg.WatchdogLimit),
		router: &routing.Router{
			Net:               net,
			ReplicateOnUpPath: cfg.ReplicateOnUpPath,
			Policy:            cfg.UpPolicy,
		},
	}
	s.sim.Invariants().Strict = cfg.StrictInvariants
	s.router.OnDrop = s.onWormDrop
	if cfg.Traffic.OpRate > 0 {
		g, err := traffic.NewGenerator(cfg.Traffic, net.N, cfg.Seed)
		if err != nil {
			return nil, err
		}
		s.gen = g
	}
	s.build()
	return s, nil
}

// switchCredits returns the credit count links into switches grant.
func (s *Simulator) switchCredits() int {
	if s.cfg.Arch == CentralBuffer {
		return s.cfg.CB.InFIFOFlits
	}
	return s.cfg.IB.BufFlits
}

// build instantiates links, switches, and NICs.
func (s *Simulator) build() {
	cfg := &s.cfg
	rootRNG := engine.NewRNG(cfg.Seed ^ 0xabcdef)
	s.fac = &factory{cfg: cfg, net: s.net, ids: &s.ids, pool: &s.worms}

	// Per-switch port IO, filled as links are created.
	ports := make([][]switches.PortIO, len(s.net.Switches))
	for i, sw := range s.net.Switches {
		ports[i] = make([]switches.PortIO, sw.NumPorts())
	}
	s.ports = ports

	// Inter-switch links: one pair per wired connection; create when
	// scanning the down-port side so each connection is built once.
	for _, sw := range s.net.Switches {
		for pn := range sw.Ports {
			pt := &sw.Ports[pn]
			if pt.PeerSwitch < 0 || pt.Kind != topology.Down {
				continue
			}
			peer := s.net.Switches[pt.PeerSwitch]
			down := s.sim.NewLink(
				fmt.Sprintf("sw%d.p%d->sw%d.p%d", sw.ID, pn, peer.ID, pt.PeerPort),
				cfg.LinkLatency, s.switchCredits())
			up := s.sim.NewLink(
				fmt.Sprintf("sw%d.p%d->sw%d.p%d", peer.ID, pt.PeerPort, sw.ID, pn),
				cfg.LinkLatency, s.switchCredits())
			ports[sw.ID][pn].Out = down
			ports[peer.ID][pt.PeerPort].In = down
			ports[peer.ID][pt.PeerPort].Out = up
			ports[sw.ID][pn].In = up
		}
	}

	// NIC attachment links.
	injects := make([]*engine.Link, s.net.N)
	ejects := make([]*engine.Link, s.net.N)
	for p := 0; p < s.net.N; p++ {
		swID, pn := s.net.ProcAttach(p)
		inj := s.sim.NewLink(fmt.Sprintf("nic%d->sw%d.p%d", p, swID, pn),
			cfg.LinkLatency, s.switchCredits())
		ej := s.sim.NewLink(fmt.Sprintf("sw%d.p%d->nic%d", swID, pn, p),
			cfg.LinkLatency, cfg.NIC.RecvFIFOFlits)
		ports[swID][pn].In = inj
		ports[swID][pn].Out = ej
		injects[p] = inj
		ejects[p] = ej
	}

	// Fault driver, registered before the switches so every injected fault
	// takes effect at the start of its scheduled cycle. Its event source is
	// the fault timetable: the kernel sleeps it until the next scheduled
	// event (or steps it every cycle while a stall window feeds the
	// watchdog).
	if !cfg.Faults.Empty() {
		s.fdrv = newFaultDriver(s, cfg.Faults)
		s.sim.AddComponent(s.fdrv)
		s.sim.DeclareEventDriven(s.fdrv)
	}

	// Collective driver, event-driven like the fault driver: it sleeps on
	// its own timetable (rep starts, post-dependency launch times) and is
	// re-armed by op completions. The schedule is a pure function of the
	// (normalized) configuration, so it is rebuilt — never serialized — on
	// restore. normalize validated the build already.
	if cfg.Collective.Enabled() {
		sched, err := collective.BuildSchedule(cfg.Collective, s.net.N, cfg.Scheme.Hardware())
		if err != nil {
			panic(fmt.Sprintf("core: collective schedule invalid after normalize: %v", err))
		}
		s.cdrv = newCollectiveDriver(s, cfg.Collective, sched)
		s.sim.AddComponent(s.cdrv)
		s.sim.DeclareEventDriven(s.cdrv)
	}

	// Switches. Declaring the input links makes a switch eligible for
	// active-set skipping: fully idle switches cost nothing per cycle and
	// are re-armed by the first flit sent toward them.
	for _, node := range s.net.Switches {
		rng := rootRNG.Fork(uint64(node.ID))
		var sw switches.Switch
		switch cfg.Arch {
		case CentralBuffer:
			sw = centralbuf.New(cfg.CB, node, s.router, ports[node.ID], rng, &s.ids, &s.worms, s.sim)
		case InputBuffer:
			sw = inputbuf.New(cfg.IB, node, s.router, ports[node.ID], rng, &s.ids, &s.worms, s.sim)
		}
		s.sws = append(s.sws, sw)
		s.sim.AddComponent(sw)
		ins := make([]*engine.Link, 0, len(ports[node.ID]))
		for _, pio := range ports[node.ID] {
			if pio.In != nil {
				ins = append(ins, pio.In)
			}
		}
		s.sim.DeclareInputs(sw, ins...)
	}

	// NICs. The eject link is a NIC's only fabric input; Submit wakes it for
	// out-of-band message injection.
	s.nics = make([]*nic.NIC, s.net.N)
	for p := 0; p < s.net.N; p++ {
		n := nic.New(cfg.NIC, p, s.net.N, injects[p], ejects[p], &s.ids, &s.worms, s.sim, s.fac, s.onDelivered)
		n.SetOnDrop(s.onWormDrop)
		s.nics[p] = n
		s.sim.AddComponent(n)
		s.sim.DeclareInputs(n, ejects[p])
	}
}

// Net returns the underlying topology.
func (s *Simulator) Net() *topology.Network { return s.net }

// SetTracer installs an event tracer (nil removes it). Events cover
// message-level milestones: op start/completion, injection, delivery,
// routing decisions, reservations, and grants — never individual flits.
// A tracer composes with an attached observability capture (Observe).
func (s *Simulator) SetTracer(t engine.Tracer) {
	s.userTracer = t
	s.installTracer()
}

// installTracer wires the engine's single tracer slot from the user tracer
// and the event-consuming capture, whichever are present.
func (s *Simulator) installTracer() {
	var cap engine.Tracer
	if s.capture != nil && s.capture.WantsEvents() {
		cap = s.capture
	}
	switch {
	case s.userTracer != nil && cap != nil:
		s.sim.SetTracer(engine.MultiTracer{s.userTracer, cap})
	case s.userTracer != nil:
		s.sim.SetTracer(s.userTracer)
	default:
		s.sim.SetTracer(cap)
	}
}

// Observe attaches an observability capture to the run: trace events are
// mirrored into c (alongside any tracer installed with SetTracer), and when
// c.SampleEvery > 0 a probe component samples fabric occupancy on that
// period. Call once, before running; the capture's meta is stamped from the
// configuration. A samples-only capture (WantsEvents false) leaves the
// engine's tracer path untouched.
func (s *Simulator) Observe(c *obs.Capture) {
	routeDelay := s.cfg.CB.RouteDelay
	if s.cfg.Arch == InputBuffer {
		routeDelay = s.cfg.IB.RouteDelay
	}
	c.SetMeta(obs.Meta{
		Version:     1,
		Arch:        s.cfg.Arch.String(),
		Scheme:      s.cfg.Scheme.String(),
		Nodes:       s.net.N,
		RouteDelay:  routeDelay,
		LinkLatency: s.cfg.LinkLatency,
		Links:       len(s.sim.Links()),
		SampleEvery: c.SampleEvery,
	})
	s.capture = c
	s.installTracer()
	if c.SampleEvery > 0 {
		// Registered after the fabric's components, the probe samples
		// post-step state; its event source is the sampling period, so the
		// kernel sleeps it between boundaries.
		probe := &obs.Probe{Every: c.SampleEvery, Source: s, Cap: c}
		s.sim.AddComponent(probe)
		s.sim.DeclareEventDriven(probe)
	}
}

// SampleGauges implements obs.GaugeSource: an instantaneous snapshot of
// link, switch, and NIC occupancy across the fabric.
func (s *Simulator) SampleGauges() obs.Sample {
	var sm obs.Sample
	for _, l := range s.sim.Links() {
		sm.LinkFlits += l.InFlight()
		sm.LinkCarried += l.Carried()
	}
	for _, sw := range s.sws {
		o := sw.Occupancy()
		sm.InputFlits += o.InputFlits
		sm.MaxInputQ = max(sm.MaxInputQ, o.MaxInputQ)
		sm.OutputFlits += o.OutputFlits
		sm.CBChunks += o.CBChunks
		sm.MaxBranchRefs = max(sm.MaxBranchRefs, o.MaxBranchRefs)
	}
	for _, n := range s.nics {
		q := n.QueueLen()
		sm.NICQueue += q
		if q > sm.MaxNICQueue {
			sm.MaxNICQueue = q
		}
	}
	return sm
}

// Now returns the current simulation cycle.
func (s *Simulator) Now() int64 { return s.sim.Now }

// Config returns the normalized configuration in effect.
func (s *Simulator) Config() Config { return s.cfg }

// NICStats returns per-NIC counters.
func (s *Simulator) NICStats() []nic.Stats {
	out := make([]nic.Stats, len(s.nics))
	for i, n := range s.nics {
		out[i] = n.Stats()
	}
	return out
}

// CBStats returns per-switch counters for central-buffer runs (nil
// otherwise).
func (s *Simulator) CBStats() []centralbuf.Stats {
	if s.cfg.Arch != CentralBuffer {
		return nil
	}
	out := make([]centralbuf.Stats, len(s.sws))
	for i, sw := range s.sws {
		out[i] = sw.(*centralbuf.Switch).Stats()
	}
	return out
}

// IBStats returns per-switch counters for input-buffer runs (nil otherwise).
func (s *Simulator) IBStats() []inputbuf.Stats {
	if s.cfg.Arch != InputBuffer {
		return nil
	}
	out := make([]inputbuf.Stats, len(s.sws))
	for i, sw := range s.sws {
		out[i] = sw.(*inputbuf.Switch).Stats()
	}
	return out
}

// onDelivered records deliveries and op completions.
func (s *Simulator) onDelivered(m *flit.Message, at *nic.NIC, now int64) {
	if now >= s.col.WarmupEnd && now < s.col.MeasureEnd {
		s.col.DeliveredFlits += int64(m.Len())
		s.col.Class(m.Class == flit.ClassMulticast).DeliveredPayloadFlits += int64(m.PayloadFlits)
	}
	op := m.Op
	if op != nil && op.Deliver(now) {
		s.opCompleted(op)
	}
	if s.deliverHook != nil {
		s.deliverHook(m, at.Proc(), now)
	}
}

// opCompleted retires an operation whose every destination is delivered or
// accounted dropped, then drops the op's completion hold: a pool-made op
// goes back to the pool once no message names it either, so nothing may
// read op past this call.
func (s *Simulator) opCompleted(op *flit.Op) {
	s.retire(op)
	s.worms.ReleaseOp(op)
}

// retire accounts a completed op. Degraded ops (any drops) yield no latency
// samples: a partial last-arrival time is not comparable to a healthy one.
func (s *Simulator) retire(op *flit.Op) {
	s.outstanding--
	if op.Dropped > 0 {
		s.col.OpsDegraded++
		if op.Dropped == op.NumDests {
			s.col.OpsDropped++
		}
	}
	if s.sim.Tracing() {
		s.sim.Emit(engine.TraceEvent{Kind: engine.TraceOpDone, Actor: "core", Op: op.ID,
			Detail: fmt.Sprintf("latency=%d msgs=%d dropped=%d", op.LastLatency(), op.MessagesSent, op.Dropped)})
	}
	// Collective steps are measured by the collective driver (per-rep
	// last-arrival and phase tiling), not as windowed class samples.
	if s.cdrv != nil {
		if idx, ok := s.cdrv.opStep[op.ID]; ok {
			s.cdrv.onOpDone(idx, op, s.sim.Now)
			return
		}
	}
	if s.col.InWindow(op.Created) {
		cc := s.col.Class(op.Class == flit.ClassMulticast)
		cc.OpsCompleted++
		cc.MessagesSent += int64(op.MessagesSent)
		if op.Dropped == 0 {
			cc.LastArrival = append(cc.LastArrival, float64(op.LastLatency()))
			cc.MeanArrival = append(cc.MeanArrival, op.MeanLatency())
		}
	}
}

// onWormDrop accounts destinations abandoned because of an injected fault.
// Routing its losses through Op.DropN keeps the drain predicate reachable:
// the op completes when its last destination is delivered or dropped.
func (s *Simulator) onWormDrop(m *flit.Message, ndests int, now int64) {
	s.col.DestsDropped += int64(ndests)
	if op := m.Op; op != nil && op.DropN(ndests) {
		s.opCompleted(op)
	}
}

// StartOp creates and injects one operation from src to dests at the
// current cycle, using the configured scheme for multicasts. It returns the
// op for completion tracking. The op is the caller's: it never goes back to
// the simulation's pool, so it may be read after completion.
func (s *Simulator) StartOp(src int, dests []int, multicast bool, payload int) (*flit.Op, error) {
	return s.startOp(nil, src, dests, multicast, payload)
}

// startOp is StartOp with the op drawn from pool: the simulation's pool for
// generated traffic, whose ops go back to it once finished with, or nil for
// an op the caller keeps.
func (s *Simulator) startOp(pool *flit.WormArena, src int, dests []int, multicast bool, payload int) (*flit.Op, error) {
	op, err := s.inject(pool, src, dests, multicast, payload)
	if err == nil && s.col.InWindow(op.Created) {
		s.col.Class(multicast).OpsGenerated++
	}
	return op, err
}

// startCollectiveStep injects one collective schedule step as a pool-made
// op at the current cycle. Unlike StartOp it attributes nothing to the
// windowed class collectors: collective steps are measured per rep by the
// driver.
func (s *Simulator) startCollectiveStep(st collective.Step) (*flit.Op, error) {
	return s.inject(&s.worms, st.Src, st.Dests, st.Multicast, st.Payload)
}

// inject creates one op from src to dests at the current cycle, drawn from
// pool (nil allocates it on the heap), planned under the configured scheme
// when multicast, and submits its messages to the source NIC. A unicast op
// needs exactly one destination. The op copies dests into its group, so the
// caller may reuse them.
func (s *Simulator) inject(pool *flit.WormArena, src int, dests []int, multicast bool, payload int) (*flit.Op, error) {
	now := s.sim.Now
	class := flit.ClassUnicast
	if multicast {
		class = flit.ClassMulticast
	}
	op := pool.NewOp(s.ids.Next(), class, src, len(dests), now)
	if multicast {
		msgs, err := collective.Plan(s.planned[:0], s.cfg.Scheme, s.net, s.fac, src, dests, payload, op, now)
		if err != nil {
			return nil, err
		}
		s.nics[src].Submit(msgs...)
		clear(msgs)
		s.planned = msgs[:0]
	} else {
		if len(dests) != 1 {
			return nil, fmt.Errorf("core: unicast op needs exactly one destination")
		}
		op.Phases = 1
		group := op.SetGroup(dests, false)
		s.nics[src].Submit(s.fac.NewMessage(src, group[1:], class, payload, op, now))
	}
	s.outstanding++
	if s.sim.Tracing() {
		s.sim.Emit(engine.TraceEvent{Kind: engine.TraceOpStart, Actor: "core", Op: op.ID,
			Detail: fmt.Sprintf("src=%d dests=%v scheme=%v", src, dests, s.cfg.Scheme)})
	}
	return op, nil
}

// generate draws this cycle's new operations from the traffic generator.
func (s *Simulator) generate() error {
	if !s.genOn || s.gen == nil {
		return nil
	}
	for node := 0; node < s.net.N; node++ {
		req, ok := s.gen.Draw(node)
		if !ok {
			continue
		}
		if _, err := s.startOp(&s.worms, req.Src, req.Dests, req.Multicast, req.Payload); err != nil {
			return err
		}
	}
	return nil
}

// runPhase tracks how far Run's methodology has advanced, so a simulator
// restored from a mid-run checkpoint resumes exactly where it stopped.
type runPhase uint8

const (
	phaseNew   runPhase = iota // Run not yet started
	phaseLoad                  // warmup + measurement, generation on
	phaseDrain                 // generation off, draining outstanding ops
	phaseDone                  // methodology complete
)

// Run executes the full methodology: warmup and measurement with load on,
// then a drain with load off until every operation completes. It returns
// the measured results; the error is non-nil only for protocol failures
// (deadlock watchdog, invalid configuration interactions).
func (s *Simulator) Run() (stats.Results, error) {
	return s.RunCheckpointed(0, nil)
}

// RunCheckpointed is Run with periodic checkpointing: when every > 0, sink
// receives a serialized Snapshot at each cycle divisible by every (taken
// between cycles, after the step completes). A sink error aborts the run.
// With every <= 0 or a nil sink the hot loop is exactly Run's — no snapshot
// machinery is touched. A simulator restored from a checkpoint continues
// from its saved phase, producing output byte-identical to the
// uninterrupted run.
func (s *Simulator) RunCheckpointed(every int64, sink func(data []byte, cycle int64) error) (r stats.Results, err error) {
	// In strict mode invariant violations surface as panics from deep in
	// the model; convert them into ordinary run errors.
	defer func() {
		if p := recover(); p != nil {
			ie, ok := p.(*engine.InvariantError)
			if !ok {
				panic(p)
			}
			r, err = stats.Results{}, ie
		}
	}()
	checkpointing := every > 0 && sink != nil
	checkpoint := func() error {
		if !checkpointing || s.sim.Now%every != 0 {
			return nil
		}
		data, err := s.Snapshot()
		if err != nil {
			return err
		}
		return sink(data, s.sim.Now)
	}

	if s.phase == phaseNew {
		s.col.WarmupEnd = s.sim.Now + s.cfg.WarmupCycles
		s.col.MeasureEnd = s.col.WarmupEnd + s.cfg.MeasureCycles
		s.genOn = true
		s.phase = phaseLoad
	}

	if s.phase == phaseLoad {
		for s.sim.Now < s.col.MeasureEnd {
			if err := s.generate(); err != nil {
				return stats.Results{}, err
			}
			s.sim.Step()
			if err := s.watchdog(); err != nil {
				return stats.Results{}, err
			}
			if err := checkpoint(); err != nil {
				return stats.Results{}, err
			}
		}
		s.backlog = 0
		for _, n := range s.nics {
			s.backlog += n.QueueLen()
		}
		s.genOn = false
		s.drainEnd = s.sim.Now + s.cfg.DrainCycles
		s.phase = phaseDrain
	}

	// The drain replicates RunUntil's semantics (predicate checked before
	// each advance, and again at budget exhaustion) so results are identical
	// to the pre-checkpoint engine-driven loop. Advance steps cycle by cycle
	// while any component is awake and jumps the clock across fully idle
	// spans (wire latency, fault timetables); with checkpointing on, each
	// jump is capped at the next checkpoint cycle so the sink observes the
	// exact same snapshot cadence as per-cycle stepping.
	drained := false
	if s.phase == phaseDrain {
		pred := func() bool {
			return s.outstanding == 0 && s.sim.Quiesced() &&
				(s.cdrv == nil || s.cdrv.finished())
		}
		if s.cfg.DrainCycles <= 0 {
			// Delegate to RunUntil for the identical budget-rejection error.
			_, rerr := s.sim.RunUntil(pred, s.cfg.DrainCycles)
			return stats.Results{}, rerr
		}
		for s.sim.Now < s.drainEnd {
			if pred() {
				drained = true
				break
			}
			limit := s.drainEnd
			if checkpointing {
				if next := s.sim.Now - s.sim.Now%every + every; next < limit {
					limit = next
				}
			}
			if err := s.sim.Advance(limit); err != nil {
				return stats.Results{}, err
			}
			if err := checkpoint(); err != nil {
				return stats.Results{}, err
			}
		}
		if !drained {
			drained = pred()
		}
		s.phase = phaseDone
	} else {
		// Finalizing from a checkpoint taken at phaseDone (possible only
		// through direct API use) re-evaluates the predicate.
		drained = s.outstanding == 0 && s.sim.Quiesced() &&
			(s.cdrv == nil || s.cdrv.finished())
	}

	maxQ := 0
	for _, n := range s.nics {
		if st := n.Stats(); st.SendQueueMax > maxQ {
			maxQ = st.SendQueueMax
		}
	}
	r = s.col.Finalize(s.net.N, maxQ)
	r.DrainCycles = s.sim.Now - s.col.MeasureEnd
	r.InvariantViolations = s.sim.Invariants().Total()
	// Saturation: the drain never finishing, or a backlog at measure end
	// exceeding a couple of ops per node, means generation outran the
	// network and latencies reflect queue growth.
	r.Saturated = r.Saturated || !drained || s.backlog > 2*s.net.N
	return r, nil
}

// Invariants exposes the run's invariant checker for inspection.
func (s *Simulator) Invariants() *engine.Invariants { return s.sim.Invariants() }

// RunOp injects a single operation on an otherwise idle network and runs
// until it completes, returning its last-arrival latency. It is the
// primitive behind the unloaded-latency experiments.
func (s *Simulator) RunOp(src int, dests []int, multicast bool, payload int, budget int64) (int64, *flit.Op, error) {
	op, err := s.StartOp(src, dests, multicast, payload)
	if err != nil {
		return 0, nil, err
	}
	done, err := s.sim.RunUntil(op.Done, budget)
	if err != nil {
		return 0, op, err
	}
	if !done {
		return 0, op, fmt.Errorf("core: op from %d to %d destinations incomplete after %d cycles",
			src, len(dests), budget)
	}
	return op.LastLatency(), op, nil
}

// Quiesced reports whether the whole system is idle (including a configured
// collective workload having run to completion).
func (s *Simulator) Quiesced() bool {
	return s.outstanding == 0 && s.sim.Quiesced() && (s.cdrv == nil || s.cdrv.finished())
}

// Drain runs with generation off until the system is idle.
func (s *Simulator) Drain(budget int64) (bool, error) {
	s.genOn = false
	return s.sim.RunUntil(s.Quiesced, budget)
}

func (s *Simulator) watchdog() error {
	return s.sim.CheckWatchdog()
}
