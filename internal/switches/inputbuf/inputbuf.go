// Package inputbuf implements the input-buffer-based switch architecture of
// the paper: one FIFO buffer per input port, each large enough to hold the
// largest packet in the system, with asynchronous replication of
// multidestination worms performed at the input buffer. The head worm of an
// input requests all the output ports of its branch set; flits are forwarded
// to whichever outputs the worm has acquired so far, each branch advancing
// at its own pace (blocked branches do not block the others). A flit's
// buffer slot is freed — and its credit returned upstream — once every
// branch has forwarded it.
//
// Because an input buffer can hold an entire packet, an accepted
// multidestination worm can always be completely buffered, satisfying the
// paper's deadlock-freedom requirement. The price relative to the central
// buffer is static partitioning of buffer space and head-of-line blocking:
// everything behind the head worm of an input waits, even if its own output
// is free.
package inputbuf

import (
	"fmt"
	"math/bits"
	"slices"

	"mdworm/internal/engine"
	"mdworm/internal/flit"
	"mdworm/internal/routing"
	"mdworm/internal/switches"
	"mdworm/internal/topology"
)

// Config holds the microarchitectural parameters of the switch.
type Config struct {
	// BufFlits is the capacity of each input buffer; it is also the
	// credit count granted to the upstream link and must be at least
	// MaxPacketFlits so a worm can always be fully buffered.
	BufFlits int
	// RouteDelay is the decode latency in cycles after a complete header
	// reaches the head of an input buffer.
	RouteDelay int
	// MaxPacketFlits bounds packet size.
	MaxPacketFlits int
	// SyncReplication switches multidestination forwarding from the
	// paper's asynchronous replication to the lock-step alternative it
	// argues against: a flit is forwarded only when *every* branch has
	// acquired its output and can move that flit in the same cycle, so a
	// blocked branch stalls all the others. Ablation knob; default off.
	// (With full-packet input buffers this costs latency, not deadlock.)
	SyncReplication bool
}

// DefaultConfig returns defaults matching the paper's requirement that each
// input buffer holds the largest packet, with a little slack.
func DefaultConfig() Config {
	return Config{BufFlits: 512 + 64, RouteDelay: 4, MaxPacketFlits: 512}
}

// Validate checks internal consistency.
func (c Config) Validate(maxHeaderFlits int) error {
	switch {
	case c.BufFlits < 1:
		return fmt.Errorf("inputbuf: buffer must hold >= 1 flit")
	case c.RouteDelay < 0:
		return fmt.Errorf("inputbuf: negative route delay")
	case c.BufFlits < c.MaxPacketFlits:
		return fmt.Errorf("inputbuf: buffer (%d flits) smaller than max packet (%d flits); "+
			"multidestination worms could not be fully buffered", c.BufFlits, c.MaxPacketFlits)
	case maxHeaderFlits > c.BufFlits:
		return fmt.Errorf("inputbuf: header (%d flits) exceeds input buffer (%d flits)", maxHeaderFlits, c.BufFlits)
	}
	return nil
}

// Stats exposes per-switch counters.
type Stats struct {
	switches.Stats
	GrantWaitSum    int64 // cycles branches spent requesting an output
	HOLBlockedSum   int64 // cycles an active input head moved no flit (grant, credit, or data stall)
	MaxBufOccupancy int
}

type inputMode uint8

const (
	modeIdle inputMode = iota
	modeHeader
	modeDecode
	modeActive
	// modeSink consumes a head worm whose every branch died (fault
	// degradation): flits are freed as they arrive so upstream drains.
	modeSink
)

// String names the mode for diagnostics. DecodeState rejects unknown modes.
func (m inputMode) String() string {
	return [...]string{"idle", "header", "decode", "active", "sink"}[m]
}

type wormRecv struct {
	w   *flit.Worm
	got int // flits received so far
}

// branch is one output branch of an input's head worm. Records are recycled
// through the switch's free list once the head worm finishes. A done branch
// drops its child: the downstream switch or NIC may release that worm while
// a slower sibling keeps the head worm alive.
type branch struct {
	in      int // owning input port
	out     int
	child   *flit.Worm // nil once the branch is done
	sent    int
	granted bool
	done    bool
	reqAt   int64
}

type inputState struct {
	queue      []wormRecv // worms in the buffer, arrival order; [0] is head
	occupancy  int        // buffered flits not yet freed
	mode       inputMode
	decodeLeft int
	branches   []*branch
	minSent    int
	movedAt    int64 // last cycle any branch of this input forwarded a flit
}

type outputState struct {
	bound *branch
	arb   *switches.RoundRobin
}

// Switch is one input-buffered switch instance.
type Switch struct {
	switches.Base
	cfg Config

	in  []inputState
	out []outputState

	// Decode storage the switch owns: the plan every decode refills (it is
	// copied into branch records at once), and branch records of finished
	// head worms awaiting reuse. Both derived state, never serialized.
	plans        []switches.Planned
	freeBranches []*branch

	// reqBits[o] has bit i set while input i holds a requestable (created,
	// ungranted, not yet done) branch for output o, so arbitration skips
	// outputs and inputs with nothing to ask in O(1) instead of rescanning
	// every branch list every cycle.
	reqBits []uint64

	// Port activity bitmaps (bit p = port p): each per-cycle loop visits
	// only the set bits of its bitmap, in ascending port order. arrivals
	// and activeIn may hold stale bits — a stale visit is a no-op and is
	// cleared — but never miss a port whose loop body could act; boundOut
	// and reqOut are exact. DecodeState rebuilds them; they are never
	// serialized.
	arrivals uint64 // input links with flits on the wire (Link.TrySend sets, Take clears)
	activeIn uint64 // inputs holding worms (acceptArrivals sets, stepInputs clears)
	boundOut uint64 // outputs bound to a branch (arbitrate sets, unbind clears)
	reqOut   uint64 // outputs with a nonzero reqBits word (request sets, withdraw clears)

	stats Stats
}

// New creates a switch bound to its topology node and port links. worms is
// the simulation's worm pool: the switch forks child worms and barrier
// tokens from it and releases every worm whose tail it consumes. A
// standalone switch, whose driver keeps the worms it injects, gets nil: it
// allocates children on the heap and releases nothing.
func New(cfg Config, node *topology.Switch, router *routing.Router, ports []switches.PortIO,
	rng *engine.RNG, ids *engine.IDGen, worms *flit.WormArena, sim *engine.Simulation) *Switch {

	s := &Switch{
		cfg:     cfg,
		in:      make([]inputState, len(ports)),
		out:     make([]outputState, len(ports)),
		reqBits: make([]uint64, len(ports)),
	}
	s.Init("ib", node, router, ports, rng, ids, worms, sim, &s.stats.Stats, &s.arrivals, s.placeToken)
	for o := range s.out {
		s.out[o].arb = switches.NewRoundRobin(len(ports))
	}
	return s
}

// Stats returns a snapshot of the switch counters.
func (s *Switch) Stats() Stats { return s.stats }

// Occupancy returns an instantaneous snapshot of the buffered state for the
// observability probe.
func (s *Switch) Occupancy() switches.Occupancy {
	var o switches.Occupancy
	for i := range s.in {
		n := s.in[i].occupancy
		o.InputFlits += n
		if n > o.MaxInputQ {
			o.MaxInputQ = n
		}
	}
	return o
}

// Quiesced reports whether the switch holds no flits or packet state.
func (s *Switch) Quiesced() bool {
	if !s.Tokens.Quiesced() || s.boundOut != 0 {
		return false
	}
	// Inputs outside activeIn hold nothing.
	for m := s.activeIn; m != 0; m &= m - 1 {
		in := &s.in[bits.TrailingZeros64(m)]
		if len(in.queue) != 0 || in.mode != modeIdle {
			return false
		}
	}
	return true
}

// Step advances the switch one cycle: bound branches forward flits,
// unbound outputs arbitrate among requesting branches, input heads decode,
// and new arrivals are accepted.
func (s *Switch) Step(now int64) {
	s.serveOutputs(now)
	s.Tokens.Drain(now)
	s.dropDeadBranches(now)
	s.arbitrate(now)
	s.stepInputs(now)
	s.acceptArrivals(now)
}

// dropDeadBranches abandons branches whose output link died before they
// began sending; a branch that already sent its head finishes normally
// (failure lands at worm boundaries, so flit conservation holds).
func (s *Switch) dropDeadBranches(now int64) {
	for m := s.activeIn; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		in := &s.in[i]
		if in.mode != modeActive {
			continue
		}
		for _, b := range in.branches {
			if b.done || b.sent > 0 {
				continue
			}
			out := s.Ports[b.out].Out
			if out == nil || !out.Dead() {
				continue
			}
			s.ReportDrop(now, b.child, b.child.Dests)
			b.done = true
			b.child = nil
			b.sent = in.queue[0].w.Len()
			if b.granted && s.out[b.out].bound == b {
				s.unbind(b.out)
			}
			if !b.granted {
				s.withdraw(b.out, i)
			}
		}
	}
}

// placeToken is the combiner's hook: it sends a barrier token straight
// onto output port's link while no branch holds the output.
func (s *Switch) placeToken(now int64, port int, tok flit.Ref) bool {
	out := s.Ports[port].Out
	return s.out[port].bound == nil && out != nil && out.TrySend(now, tok)
}

// serveOutputs forwards one flit per bound output, directly onto the link.
// Under synchronous replication, a multidestination head moves a flit only
// when every branch can move it in lock-step.
func (s *Switch) serveOutputs(now int64) {
	if s.cfg.SyncReplication {
		s.serveOutputsSync(now)
		s.finishHeads(now)
		return
	}
	for m := s.boundOut; m != 0; m &= m - 1 {
		o := bits.TrailingZeros64(m)
		b := s.out[o].bound
		in := &s.in[b.in]
		head := &in.queue[0]
		out := s.Ports[o].Out
		if b.sent >= head.got || out == nil || !out.TrySend(now, flit.Ref{W: b.child, Idx: b.sent}) {
			continue
		}
		b.sent++
		in.movedAt = now
		s.stats.FlitsOut++
		if b.sent == head.w.Len() {
			b.done = true
			b.child = nil
			s.unbind(o)
		}
		s.advanceFreeing(b.in, now)
	}
	s.finishHeads(now)
}

// serveOutputsSync forwards flits with all branches of a head advancing in
// lock-step (the feedback-coupled replication the paper rejects).
func (s *Switch) serveOutputsSync(now int64) {
	for m := s.activeIn; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		in := &s.in[i]
		if in.mode != modeActive || len(in.branches) == 0 {
			continue
		}
		head := &in.queue[0]
		ready := true
		for _, b := range in.branches {
			if b.done {
				continue
			}
			if !b.granted || b.sent >= head.got ||
				s.Ports[b.out].Out == nil || !s.Ports[b.out].Out.CanSend(now) {
				ready = false
				break
			}
		}
		if !ready {
			continue
		}
		for _, b := range in.branches {
			if b.done {
				continue
			}
			if !s.Ports[b.out].Out.TrySend(now, flit.Ref{W: b.child, Idx: b.sent}) {
				panic(fmt.Sprintf("%s: output %d refused a lock-step flit after CanSend granted it", s.Name(), b.out))
			}
			b.sent++
			s.stats.FlitsOut++
			if b.sent == head.w.Len() {
				b.done = true
				b.child = nil
				s.unbind(b.out)
			}
		}
		in.movedAt = now
		s.advanceFreeing(i, now)
	}
}

// advanceFreeing returns credits for flits every branch has forwarded. The
// floor is clamped to the flits actually received: a branch dropped by a
// fault has sent == Len() and must not free (or return credits for) flits
// still on their way in.
func (s *Switch) advanceFreeing(i int, now int64) {
	in := &s.in[i]
	m := in.queue[0].got
	for _, b := range in.branches {
		if b.sent < m {
			m = b.sent
		}
	}
	if m > in.minSent {
		delta := m - in.minSent
		in.minSent = m
		in.occupancy -= delta
		if in.occupancy < 0 {
			s.Sim.Invariants().Violate(now, "ib-occupancy",
				"%s: input %d occupancy %d after freeing %d flits", s.Name(), i, in.occupancy, delta)
			in.occupancy = 0
		}
		s.Ports[i].In.ReturnCredit(now, delta)
	}
}

// finishHeads pops head worms whose branches are all done.
func (s *Switch) finishHeads(now int64) {
	for m := s.activeIn; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		in := &s.in[i]
		if in.mode != modeActive || len(in.branches) == 0 {
			continue
		}
		alldone := true
		for _, b := range in.branches {
			if !b.done {
				alldone = false
				break
			}
		}
		if !alldone {
			continue
		}
		head := &in.queue[0]
		if head.got < head.w.Len() {
			// Dropped branches outran arrival (fault path): keep freeing
			// flits as they trickle in and pop once the tail arrives.
			s.advanceFreeing(i, now)
			continue
		}
		s.advanceFreeing(i, now)
		if in.minSent != head.w.Len() {
			s.Sim.Invariants().Violate(now, "ib-occupancy",
				"%s: popping head with %d/%d flits freed", s.Name(), in.minSent, head.w.Len())
			if delta := head.w.Len() - in.minSent; delta > 0 {
				in.occupancy -= delta
				if in.occupancy < 0 {
					in.occupancy = 0
				}
				s.Ports[i].In.ReturnCredit(now, delta)
			}
		}
		s.Worms.Release(head.w)
		in.queue = slices.Delete(in.queue, 0, 1)
		s.freeBranches = append(s.freeBranches, in.branches...)
		clear(in.branches)
		in.branches = in.branches[:0]
		in.minSent = 0
		in.mode = modeIdle
		s.Sim.Progress()
	}
}

// arbitrate grants unbound outputs to requesting head branches, round-robin
// across inputs.
func (s *Switch) arbitrate(now int64) {
	for m := s.reqOut &^ s.boundOut; m != 0; m &= m - 1 {
		o := bits.TrailingZeros64(m)
		st := &s.out[o]
		req := s.reqBits[o]
		picked := st.arb.Pick(func(i int) bool {
			return req&(1<<uint(i)) != 0
		})
		if picked < 0 {
			continue
		}
		in := &s.in[picked]
		for _, b := range in.branches {
			if b.out == o && !b.granted && !b.done {
				b.granted = true
				s.withdraw(o, picked)
				st.bound = b
				s.boundOut |= 1 << uint(o)
				s.stats.GrantWaitSum += now - b.reqAt
				if s.Sim.Tracing() {
					s.Sim.Emit(engine.TraceEvent{Kind: engine.TraceGrant, Actor: s.Name(),
						Msg: b.child.Msg.ID, Worm: b.child.ID,
						Detail: fmt.Sprintf("in=%d out=%d waited=%d", picked, o, now-b.reqAt)})
				}
				s.Sim.Progress()
				break
			}
		}
	}
}

// unbind releases output o from its branch.
func (s *Switch) unbind(o int) {
	s.out[o].bound = nil
	s.boundOut &^= 1 << uint(o)
}

// request records that input i holds a requestable branch for output o.
func (s *Switch) request(o, i int) {
	s.reqBits[o] |= 1 << uint(i)
	s.reqOut |= 1 << uint(o)
}

// withdraw removes input i's request for output o.
func (s *Switch) withdraw(o, i int) {
	s.reqBits[o] &^= 1 << uint(i)
	if s.reqBits[o] == 0 {
		s.reqOut &^= 1 << uint(o)
	}
}

func (s *Switch) stepInputs(now int64) {
	for m := s.activeIn; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		s.stepInput(i, now)
		if len(s.in[i].queue) == 0 {
			s.activeIn &^= 1 << uint(i)
		}
	}
}

func (s *Switch) stepInput(i int, now int64) {
	in := &s.in[i]
	switch in.mode {
	case modeIdle:
		if len(in.queue) == 0 {
			return
		}
		if head := &in.queue[0]; head.w.Msg.Class == flit.ClassBarrier {
			// Barrier tokens are combined, never routed. The token
			// is one flit; it is fully present once queued.
			if head.got < head.w.Len() {
				return
			}
			w := head.w
			in.queue = slices.Delete(in.queue, 0, 1)
			in.occupancy--
			s.Ports[i].In.ReturnCredit(now, 1)
			s.Tokens.Handle(i, w)
			s.Worms.Release(w)
			return
		}
		in.mode = modeHeader
		fallthrough
	case modeHeader:
		head := &in.queue[0]
		need := min(head.w.HeaderFlits(), head.w.Len())
		if head.got < need {
			return
		}
		in.decodeLeft = s.cfg.RouteDelay
		in.mode = modeDecode
		fallthrough
	case modeDecode:
		if in.decodeLeft > 0 {
			in.decodeLeft--
			s.Sim.Progress()
			return
		}
		s.decode(i, now)
	case modeActive:
		// Branches are driven from serveOutputs/arbitrate; count
		// cycles the head could not move a single flit (whether
		// blocked on grants, downstream credits, or missing data).
		if in.movedAt != now {
			s.stats.HOLBlockedSum++
		}
	case modeSink:
		s.sinkHead(i, now)
	}
}

func (s *Switch) decode(i int, now int64) {
	in := &s.in[i]
	plans := s.Decode(s.plans[:0], i, in.queue[0].w, func(port int) bool { return s.out[port].bound == nil }, now)
	s.plans = plans
	if len(plans) == 0 {
		// Every branch died: swallow the worm so upstream drains.
		in.mode = modeSink
		s.sinkHead(i, now)
		return
	}
	for _, p := range plans {
		in.branches = append(in.branches, s.newBranch(i, p, now))
		s.request(p.Port, i)
	}
	clear(plans)
	in.minSent = 0
	in.mode = modeActive
}

// newBranch takes a record from the free list (or allocates one) for input
// i's branch p requested at cycle now, clearing every field a previous
// branch left behind.
func (s *Switch) newBranch(i int, p switches.Planned, now int64) *branch {
	var b *branch
	if n := len(s.freeBranches); n > 0 {
		b = s.freeBranches[n-1]
		s.freeBranches[n-1] = nil
		s.freeBranches = s.freeBranches[:n-1]
	} else {
		b = new(branch)
	}
	*b = branch{in: i, out: p.Port, child: p.Child, reqAt: now}
	return b
}

// sinkHead frees the head worm's flits as they arrive and pops it at the
// tail, for worms whose every branch died at decode.
func (s *Switch) sinkHead(i int, now int64) {
	in := &s.in[i]
	head := &in.queue[0]
	if head.got > in.minSent {
		delta := head.got - in.minSent
		in.minSent = head.got
		in.occupancy -= delta
		if in.occupancy < 0 {
			s.Sim.Invariants().Violate(now, "ib-occupancy",
				"%s: input %d occupancy %d while sinking", s.Name(), i, in.occupancy)
			in.occupancy = 0
		}
		s.Ports[i].In.ReturnCredit(now, delta)
	}
	if head.got == head.w.Len() {
		s.Worms.Release(head.w)
		in.queue = slices.Delete(in.queue, 0, 1)
		in.minSent = 0
		in.mode = modeIdle
		s.Sim.Progress()
	}
}

func (s *Switch) acceptArrivals(now int64) {
	for m := s.arrivals; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		link := s.Ports[i].In
		r, ok := link.Take(now)
		if !ok {
			continue
		}
		in := &s.in[i]
		if in.occupancy >= s.cfg.BufFlits {
			panic(fmt.Sprintf("%s: input %d buffer overflow (credit protocol violated)", s.Name(), i))
		}
		if n := len(in.queue); n > 0 && in.queue[n-1].w == r.W {
			if r.Idx != in.queue[n-1].got {
				panic(fmt.Sprintf("%s: input %d non-contiguous flit %v", s.Name(), i, r))
			}
			in.queue[n-1].got++
		} else {
			if r.Idx != 0 {
				panic(fmt.Sprintf("%s: input %d new worm starting at flit %d", s.Name(), i, r.Idx))
			}
			in.queue = append(in.queue, wormRecv{w: r.W, got: 1})
			s.activeIn |= 1 << uint(i)
		}
		in.occupancy++
		if in.occupancy > s.stats.MaxBufOccupancy {
			s.stats.MaxBufOccupancy = in.occupancy
		}
		s.stats.FlitsIn++
	}
}

// rebuildActivity re-derives the port bitmaps from restored state. The
// arrival bits are re-derived by the input links themselves.
func (s *Switch) rebuildActivity() {
	s.activeIn, s.boundOut, s.reqOut = 0, 0, 0
	for i := range s.in {
		if len(s.in[i].queue) != 0 {
			s.activeIn |= 1 << uint(i)
		}
	}
	for o := range s.out {
		if s.out[o].bound != nil {
			s.boundOut |= 1 << uint(o)
		}
		if s.reqBits[o] != 0 {
			s.reqOut |= 1 << uint(o)
		}
	}
}
