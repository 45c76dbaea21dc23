package engine

import (
	"sort"

	"mdworm/internal/ckpt"
	"mdworm/internal/flit"
)

// Checkpoint support: the engine serializes exactly the state that evolves
// at runtime — clock, activity counters, scheduler sleep flags, link queues
// and credits, RNG stream positions — and skips everything fixed at
// construction (names, latencies, capacities, wiring), which the restoring
// process rebuilds from the run configuration.

// State returns the RNG stream position.
func (r *RNG) State() uint64 { return r.state }

// SetState repositions the RNG stream.
func (r *RNG) SetState(s uint64) { r.state = s }

// State returns the last identifier handed out.
func (g *IDGen) State() uint64 { return g.n }

// SetState restores the identifier counter.
func (g *IDGen) SetState(n uint64) { g.n = n }

// CollectState adds every worm referenced by the link's queues to the
// checkpoint object graph.
func (l *Link) CollectState(g *ckpt.Graph) {
	for i := 0; i < l.inflight.len(); i++ {
		g.AddWorm(l.inflight.at(i).v.W)
	}
	g.AddWorm(l.expectWorm)
}

// EncodeState writes the link's mutable state.
func (l *Link) EncodeState(e *ckpt.Enc, g *ckpt.Graph) {
	e.Int(l.inflight.len())
	for i := 0; i < l.inflight.len(); i++ {
		f := l.inflight.at(i)
		e.U64(g.WormID(f.v.W))
		e.Int(f.v.Idx)
		e.I64(f.at)
	}
	e.Int(l.creditsQ.len())
	for i := 0; i < l.creditsQ.len(); i++ {
		c := l.creditsQ.at(i)
		e.Int(c.v)
		e.I64(c.at)
	}
	e.Int(l.credits)
	e.I64(l.lastSend)
	e.I64(l.lastTake)
	e.I64(l.carried)
	e.Bool(l.failed)
	e.Bool(l.midWorm)
	e.I64(l.stuckUntil)
	e.U64(g.WormID(l.expectWorm))
	e.Int(l.expectIdx)
}

// DecodeState restores the link's mutable state over a freshly constructed
// link (same name/latency/capacity). Malformed input sets the decoder error.
// A queue longer than the link's ring (a blob holding returns the sender
// had not yet folded) grows the ring; the cached due cycles are re-derived.
func (l *Link) DecodeState(d *ckpt.Dec, g *ckpt.Graph) {
	l.inflight.reset()
	nf := d.Count(24)
	for i := 0; i < nf && d.Err() == nil; i++ {
		w := g.WormAt(d, d.U64())
		idx := d.Int()
		at := d.I64()
		if d.Err() != nil {
			return
		}
		if w == nil || idx < 0 || idx >= w.Len() {
			d.Fail("link %s: in-flight flit %d/%d out of range", l.name, i, nf)
			return
		}
		l.inflight.push(timed[flit.Ref]{v: flit.Ref{W: w, Idx: idx}, at: at})
	}
	l.creditsQ.reset()
	nc := d.Count(16)
	for i := 0; i < nc && d.Err() == nil; i++ {
		v := d.Int()
		at := d.I64()
		l.creditsQ.push(timed[int]{v: v, at: at})
	}
	l.credits = d.Int()
	l.lastSend = d.I64()
	l.lastTake = d.I64()
	l.carried = d.I64()
	l.failed = d.Bool()
	l.midWorm = d.Bool()
	l.stuckUntil = d.I64()
	l.expectWorm = g.WormAt(d, d.U64())
	l.expectIdx = d.Int()
	l.syncArrival()
	l.syncDue()
	if d.Err() != nil {
		return
	}
	if l.credits < 0 || l.credits > l.capacity {
		d.Fail("link %s: %d credits outside [0,%d]", l.name, l.credits, l.capacity)
	}
}

// syncDue re-derives the cached due cycles from the fronts of the rings.
func (l *Link) syncDue() {
	l.headAt, l.creditAt = noWake, noWake
	if l.inflight.len() > 0 {
		l.headAt = l.inflight.front().at
	}
	if l.creditsQ.len() > 0 {
		l.creditAt = l.creditsQ.front().at
	}
}

// CollectState adds worms held by every link to the graph.
func (s *Simulation) CollectState(g *ckpt.Graph) {
	for _, l := range s.links {
		l.CollectState(g)
	}
}

// EncodeState writes the simulation's clock, activity counters, scheduler
// sleep flags (by registration index), and every registered link's state
// (by registration order).
func (s *Simulation) EncodeState(e *ckpt.Enc, g *ckpt.Graph) {
	e.I64(s.Now)
	e.I64(s.activity)
	e.I64(s.lastActivity)
	e.Int(len(s.comps))
	for i := range s.comps {
		e.Bool(s.comps[i].asleep)
	}
	e.Int(len(s.links))
	for _, l := range s.links {
		l.EncodeState(e, g)
	}
}

// DecodeState restores the simulation over a freshly built twin: the
// component and link counts must match the encoding or the decoder error is
// set (a checkpoint from a different configuration).
func (s *Simulation) DecodeState(d *ckpt.Dec, g *ckpt.Graph) {
	s.Now = d.I64()
	s.activity = d.I64()
	s.lastActivity = d.I64()
	nc := d.Count(1)
	if d.Err() != nil {
		return
	}
	if nc != len(s.comps) {
		d.Fail("simulation: %d components, checkpoint has %d", len(s.comps), nc)
		return
	}
	for i := 0; i < nc; i++ {
		s.comps[i].asleep = d.Bool()
	}
	nl := d.Count(1)
	if d.Err() != nil {
		return
	}
	if nl != len(s.links) {
		d.Fail("simulation: %d links, checkpoint has %d", len(s.links), nl)
		return
	}
	for _, l := range s.links {
		l.DecodeState(d, g)
		if d.Err() != nil {
			return
		}
	}
	// Rebuild the derived scheduler state: the awake bitmap mirrors the
	// asleep flags, the busy-link census mirrors the decoded wires, and the
	// event queue starts empty (DecodeEvents fills in wakes).
	for i := range s.awake {
		s.awake[i] = 0
	}
	s.awakeCount = 0
	for i := range s.comps {
		s.comps[i].wakeAt = noWake
		if !s.comps[i].asleep {
			s.awake[i>>6] |= 1 << uint(i&63)
			s.awakeCount++
		}
	}
	s.busyLinks = 0
	for _, l := range s.links {
		if l.inflight.len() > 0 {
			s.busyLinks++
		}
	}
	s.evq.reset(s.Now)
}

// eventSectionVersion tags the encoding of the kernel's event-queue
// section so future layouts can coexist with old blobs.
const eventSectionVersion = 1

// EncodeEvents writes the kernel's queued wake events — sorted by (cycle,
// component) into a canonical order so restore followed by re-snapshot is
// byte-stable — plus each component's pending-wake marker, which suppresses
// redundant event pushes and must survive the round trip exactly for a
// resumed run to schedule the same events as the original.
func (s *Simulation) EncodeEvents(e *ckpt.Enc) {
	e.Int(eventSectionVersion)
	events := s.evq.collect(nil)
	sort.Slice(events, func(i, j int) bool {
		if events[i].at != events[j].at {
			return events[i].at < events[j].at
		}
		return events[i].comp < events[j].comp
	})
	e.Int(len(events))
	for _, ev := range events {
		e.I64(ev.at)
		e.Int(int(ev.comp))
	}
	e.Int(len(s.comps))
	for i := range s.comps {
		if s.comps[i].wakeAt == noWake {
			e.Bool(false)
		} else {
			e.Bool(true)
			e.I64(s.comps[i].wakeAt)
		}
	}
}

// DecodeEvents restores the event queue and pending-wake markers written by
// EncodeEvents. It must run after DecodeState (it validates against the
// restored clock and component set).
func (s *Simulation) DecodeEvents(d *ckpt.Dec) {
	if v := d.Int(); v != eventSectionVersion {
		d.Fail("events: unsupported section version %d", v)
		return
	}
	s.evq.reset(s.Now)
	n := d.Count(16)
	for i := 0; i < n && d.Err() == nil; i++ {
		at := d.I64()
		comp := d.Int()
		if d.Err() != nil {
			return
		}
		if comp < 0 || comp >= len(s.comps) {
			d.Fail("events: component %d outside [0,%d)", comp, len(s.comps))
			return
		}
		if at < s.Now {
			d.Fail("events: wake at cycle %d before clock %d", at, s.Now)
			return
		}
		s.evq.push(at, int32(comp))
	}
	nc := d.Count(1)
	if d.Err() != nil {
		return
	}
	if nc != len(s.comps) {
		d.Fail("events: %d components, checkpoint has %d", len(s.comps), nc)
		return
	}
	for i := 0; i < nc && d.Err() == nil; i++ {
		if d.Bool() {
			s.comps[i].wakeAt = d.I64()
		} else {
			s.comps[i].wakeAt = noWake
		}
	}
}

// EncodeState writes the checker's counters and bounded samples. Strict is
// a configuration bit, not state.
func (inv *Invariants) EncodeState(e *ckpt.Enc) {
	e.I64(inv.total)
	rules := make([]string, 0, len(inv.byRule))
	for r := range inv.byRule {
		rules = append(rules, r)
	}
	sort.Strings(rules)
	e.Int(len(rules))
	for _, r := range rules {
		e.String(r)
		e.I64(inv.byRule[r])
	}
	e.Int(len(inv.samples))
	for _, v := range inv.samples {
		e.I64(v.Cycle)
		e.String(v.Rule)
		e.String(v.Detail)
	}
}

// DecodeState restores the checker counters.
func (inv *Invariants) DecodeState(d *ckpt.Dec) {
	inv.total = d.I64()
	inv.byRule = make(map[string]int64)
	nr := d.Count(16)
	for i := 0; i < nr && d.Err() == nil; i++ {
		r := d.String()
		inv.byRule[r] = d.I64()
	}
	inv.samples = nil
	ns := d.Count(24)
	if ns > maxViolationSamples {
		d.Fail("invariants: %d samples exceeds bound %d", ns, maxViolationSamples)
		return
	}
	for i := 0; i < ns && d.Err() == nil; i++ {
		inv.samples = append(inv.samples, Violation{Cycle: d.I64(), Rule: d.String(), Detail: d.String()})
	}
}
