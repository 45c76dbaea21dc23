// Package centralbuf implements the central-buffer-based switch
// architecture of the paper, modeled on the IBM SP2 High Performance
// Switch / SP Switch: a dynamically shared central buffer organized in
// chunks with per-output queuing, a cut-through bypass path for unblocked
// traffic, and multidestination worm replication performed by writing the
// worm into the central buffer once and letting every requested output port
// read it out independently (reference-counted chunks).
//
// Deadlock freedom follows the paper's rule that a packet accepted for
// transmission can always be completely buffered at the switch: every
// central-buffer entry — unicast or multidestination — reserves its full
// chunk count before its first flit is written, so every resident packet is
// guaranteed to finish writing and output queues always drain. (Letting
// unicasts buffer partially wedges the switch: a chunk-starved,
// partially-written packet at the head of an output queue blocks the
// fully-written packets behind it that hold all the chunks.)
//
// A single shared pool would couple ascending and descending channels of the
// up*/down* routing into a cyclic buffer dependency (a classic
// store-and-forward deadlock: two switches, each full of packets whose
// readers wait on the other's input FIFO, whose head waits on a
// reservation). The pool is therefore partitioned by direction — one
// sub-pool for packets that arrived ascending (on down ports) and one for
// packets arriving descending (on up ports) — restoring an acyclic
// structured-buffer-pool order: descending pools drain by induction from
// stage 0 (NICs always consume), ascending pools drain by induction from the
// top stage into descending pools. Each sub-pool holds at least one maximum
// packet, and reservations accrue to a single FIFO head per sub-pool, which
// prevents both starvation and circular partial holds.
package centralbuf

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
	// InFIFOFlits is the capacity of each input FIFO; it is also the
	// credit count granted to the upstream link. It must be at least the
	// largest header (the whole header must be buffered to decode).
	InFIFOFlits int
	// OutFIFOFlits is the capacity of each output FIFO.
	OutFIFOFlits int
	// Chunks is the number of chunks in the central buffer. The pool is
	// split evenly between ascending and descending traffic (see the
	// package comment); each half must hold the largest packet.
	Chunks int
	// ChunkFlits is the chunk size in flits.
	ChunkFlits int
	// RouteDelay is the decode/arbitration latency in cycles charged
	// after a complete header reaches the front of an input FIFO.
	RouteDelay int
	// MaxPacketFlits bounds packet size; the central buffer must hold the
	// largest packet (Chunks*ChunkFlits >= MaxPacketFlits).
	MaxPacketFlits int
	// MulticastBypassSingle lets a multidestination worm whose branch set
	// at this switch is a single output use the unicast cut-through path
	// instead of being fully buffered. This is an ablation knob; the
	// paper's conservative design fully buffers every multidestination
	// worm, which is the default (false).
	MulticastBypassSingle bool
	// PortBandwidth bounds how many flits may be written into and (independently)
	// read out of the central buffer per cycle, modeling the memory
	// implementation: the authors' companion work shows flit-wide RAMs or a
	// register pipeline sustain one flit per port per cycle (the default,
	// 0 = unlimited), while a naive single-ported memory would bottleneck
	// at 1-2 transfers per cycle. Ablation knob.
	PortBandwidth int
}

// DefaultConfig returns SP-Switch-plausible defaults.
func DefaultConfig() Config {
	return Config{
		InFIFOFlits:    8,
		OutFIFOFlits:   8,
		Chunks:         128,
		ChunkFlits:     8,
		RouteDelay:     4,
		MaxPacketFlits: 512,
	}
}

// Validate checks internal consistency given the largest header in flits.
func (c Config) Validate(maxHeaderFlits int) error {
	switch {
	case c.InFIFOFlits < 1 || c.OutFIFOFlits < 1:
		return fmt.Errorf("centralbuf: FIFO sizes must be >= 1")
	case c.Chunks < 1 || c.ChunkFlits < 1:
		return fmt.Errorf("centralbuf: central buffer must have >= 1 chunk of >= 1 flit")
	case c.RouteDelay < 0:
		return fmt.Errorf("centralbuf: negative route delay")
	case c.MaxPacketFlits > (c.Chunks/2)*c.ChunkFlits:
		return fmt.Errorf("centralbuf: max packet (%d flits) exceeds a central-buffer direction pool (%d flits); "+
			"multidestination worms could never be fully buffered",
			c.MaxPacketFlits, (c.Chunks/2)*c.ChunkFlits)
	case maxHeaderFlits > c.InFIFOFlits:
		return fmt.Errorf("centralbuf: header (%d flits) exceeds input FIFO (%d flits); decode could never complete",
			maxHeaderFlits, c.InFIFOFlits)
	}
	return nil
}

// Stats exposes per-switch counters for ablation studies.
type Stats struct {
	switches.Stats
	BypassFlits     int64 // flits that cut through without touching the central buffer
	BufferFlits     int64 // flits written into the central buffer
	AdmittedMcasts  int64 // multidestination worms admitted to the central buffer
	ReserveWaitSum  int64 // total cycles multicasts waited for reservation
	MaxChunksInUse  int   // high-water mark of allocated chunks
	MaxBranchRefs   int   // high-water mark of output references (readers) on one buffered worm
	UnicastCBEnters int64 // unicast packets diverted through the central buffer (busy output)
}

// Direction pools of the central buffer (see the package comment).
const (
	poolUp   = 0 // packets that arrived ascending (on down ports)
	poolDown = 1 // packets that arrived descending (on up ports)
)

type inputMode uint8

const (
	modeIdle inputMode = iota
	modeHeader
	modeDecode
	modeReserve
	modeBypass
	modeWrite
	// modeSink consumes the remaining flits of a worm whose every branch
	// died (fault degradation): flits are popped and credits returned, so
	// upstream drains instead of wedging on a doomed worm.
	modeSink
)

var inputModeNames = [...]string{
	modeIdle:    "idle",
	modeHeader:  "header",
	modeDecode:  "decode",
	modeReserve: "reserve",
	modeBypass:  "bypass",
	modeWrite:   "write",
	modeSink:    "sink",
}

// String names the mode for diagnostics.
func (m inputMode) String() string {
	if int(m) < len(inputModeNames) {
		return inputModeNames[m]
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

type inputState struct {
	q          switches.FIFO
	mode       inputMode
	worm       *flit.Worm
	decodeLeft int
	plans      []switches.Planned // the head worm's branches; storage reused across worms
	pb         *packetBuf
	bypassOut  int
	waitSince  int64
}

// idle reports whether the input holds no flits and no worm in progress.
func (in *inputState) idle() bool { return in.mode == modeIdle && in.q.Empty() }

type outputMode uint8

const (
	outIdle outputMode = iota
	outBypass
	outCB
)

type outputState struct {
	fifo    refFIFO
	mode    outputMode
	boundIn int       // input index when mode == outBypass
	cur     *cbBranch // branch being served when mode == outCB
	queue   []*cbBranch
}

// serving reports whether the output has a central-buffer branch in service
// or queued.
func (st *outputState) serving() bool { return st.mode == outCB || len(st.queue) != 0 }

// packetBuf is one worm stored in (or streaming through) the central buffer.
// Records are recycled through the switch's free list: nothing may read a
// packet after retirePB, which drops every pointer the record holds.
type packetBuf struct {
	worm        *flit.Worm
	total       int
	written     int
	reserved    int // chunks reserved but not yet allocated
	chunksAlloc int
	chunksFreed int
	branches    []cbBranch // stored inline; outputs hold pointers into it while the packet lives
	multicast   bool
	need        int // total chunks needed (multicast reservation target)
	input       int
	pool        int // direction pool the packet allocates from
}

// cbBranch is one output's reader of a buffered packet. A branch that has
// read the packet's tail drops its child: the downstream switch or NIC may
// release that worm while a slower sibling keeps the packet alive.
type cbBranch struct {
	pb    *packetBuf
	child *flit.Worm // nil once the branch is finished
	out   int
	read  int
}

// finish marks the branch as having read the whole packet, whether it read
// the tail or was dropped: it holds none of the packet's chunks any more,
// and it drops its child.
func (b *cbBranch) finish() {
	b.read = b.pb.total
	b.child = nil
}

func (pb *packetBuf) minRead() int {
	m := pb.total
	for k := range pb.branches {
		m = min(m, pb.branches[k].read)
	}
	return m
}

func (pb *packetBuf) chunkEnd(c int, chunkFlits int) int {
	e := (c + 1) * chunkFlits
	if e > pb.total {
		e = pb.total
	}
	return e
}

// Switch is one central-buffer switch instance.
type Switch struct {
	switches.Base
	cfg Config

	in  []inputState
	out []outputState

	// Retired packet records awaiting reuse: derived state, never
	// serialized.
	freePB []*packetBuf

	// Port activity bitmaps (bit p = port p). Each per-cycle loop visits
	// only the set bits of its bitmap, in ascending port order. They are
	// derived state: a bit may be stale — its visit is a no-op and clears
	// it — but a port whose loop body could act always has its bit set.
	// DecodeState rebuilds them; they are never serialized.
	arrivals uint64 // input links with flits on the wire (Link.TrySend sets, Take clears)
	activeIn uint64 // inputs that are not idle (acceptArrivals sets, stepInputs clears)
	drainOut uint64 // outputs whose FIFO holds flits (emit sets, stepOutputsDrain clears)
	serveOut uint64 // outputs serving or queueing branches (admit sets, stepOutputsServe clears)

	free        [2]int // free chunks per direction pool
	chunksInUse int
	wrBudget    int // central-buffer write slots left this cycle
	rdBudget    int // central-buffer read slots left this cycle

	reservedTotal int    // chunks reserved (not yet allocated) across all packets
	poolCap       [2]int // initial capacity per direction pool
	removed       [2]int // chunks permanently removed per pool (CBShrink fault)
	pendingShrink int    // shrink capacity still to absorb as chunks free
	minPool       int    // chunks a pool must retain to hold a maximum packet
	leakLatch     bool   // suppresses repeated chunk-conservation reports

	pendingRes [2][]*packetBuf // reservation queue per direction pool
	livePB     int

	stats Stats
}

// New creates a switch bound to its topology node and port links. All ports
// of the node must be wired to links by the caller (unconnected ports get
// nil PortIO entries). worms is the simulation's worm pool: the switch forks
// child worms and barrier tokens from it and releases every worm whose tail
// it consumes. A standalone switch, whose driver keeps the worms it injects,
// gets nil: it allocates children on the heap and releases nothing.
func New(cfg Config, node *topology.Switch, router *routing.Router, ports []switches.PortIO,
	rng *engine.RNG, ids *engine.IDGen, worms *flit.WormArena, sim *engine.Simulation) *Switch {

	s := new(Switch)
	s.Reset(cfg, node, router, ports, rng, ids, worms, sim)
	return s
}

// Reset rebuilds s in place as New builds a switch, keeping the storage of
// its port arrays, queues and retired packet records.
func (s *Switch) Reset(cfg Config, node *topology.Switch, router *routing.Router, ports []switches.PortIO,
	rng *engine.RNG, ids *engine.IDGen, worms *flit.WormArena, sim *engine.Simulation) {

	in := engine.Reuse(s.in, len(ports))
	for i := range in {
		in[i].q.Reset()
		in[i] = inputState{q: in[i].q, plans: engine.Empty(in[i].plans), bypassOut: -1}
	}
	out := engine.Reuse(s.out, len(ports))
	for o := range out {
		out[o] = outputState{fifo: refFIFO{buf: engine.Empty(out[o].fifo.buf)}, boundIn: -1, queue: engine.Empty(out[o].queue)}
	}
	*s = Switch{Base: s.Base, cfg: cfg, in: in, out: out, freePB: s.freePB,
		pendingRes: [2][]*packetBuf{engine.Empty(s.pendingRes[poolUp]), engine.Empty(s.pendingRes[poolDown])}}
	s.Init("cb", node, router, ports, rng, ids, worms, sim, &s.stats.Stats, &s.arrivals, s.placeToken)
	s.free[poolUp] = cfg.Chunks / 2
	s.free[poolDown] = cfg.Chunks - cfg.Chunks/2
	s.poolCap = s.free
	s.minPool = (cfg.MaxPacketFlits + cfg.ChunkFlits - 1) / cfg.ChunkFlits
}

// Stats returns a snapshot of the switch counters.
func (s *Switch) Stats() Stats { return s.stats }

// Occupancy returns an instantaneous snapshot of the buffered state for the
// observability probe.
func (s *Switch) Occupancy() switches.Occupancy {
	var o switches.Occupancy
	for i := range s.in {
		n := s.in[i].q.Len()
		o.InputFlits += n
		if n > o.MaxInputQ {
			o.MaxInputQ = n
		}
	}
	for i := range s.out {
		o.OutputFlits += s.out[i].fifo.Len()
	}
	o.CBChunks = s.chunksInUse
	o.MaxBranchRefs = s.stats.MaxBranchRefs
	return o
}

// Quiesced reports whether the switch holds no flits or packet state.
func (s *Switch) Quiesced() bool {
	if s.livePB != 0 || len(s.pendingRes[poolUp]) != 0 || len(s.pendingRes[poolDown]) != 0 {
		return false
	}
	if !s.Tokens.Quiesced() {
		return false
	}
	// Ports outside the bitmaps hold nothing. (An output bound to a bypass
	// is covered by its input, which stays active until the tail passes.)
	for m := s.activeIn; m != 0; m &= m - 1 {
		if !s.in[bits.TrailingZeros64(m)].idle() {
			return false
		}
	}
	for m := s.drainOut | s.serveOut; m != 0; m &= m - 1 {
		st := &s.out[bits.TrailingZeros64(m)]
		if st.mode != outIdle || st.fifo.Len() != 0 || len(st.queue) != 0 {
			return false
		}
	}
	return true
}

// Step advances the switch one cycle: outputs drain to links and pull from
// the central buffer, inputs decode and move flits, the reservation heads
// accrue freed chunks, and new arrivals are accepted.
func (s *Switch) Step(now int64) {
	if s.cfg.PortBandwidth > 0 {
		s.wrBudget = s.cfg.PortBandwidth
		s.rdBudget = s.cfg.PortBandwidth
	} else {
		s.wrBudget = len(s.in)
		s.rdBudget = len(s.out)
	}
	s.stepOutputsDrain(now)
	s.Tokens.Drain(now)
	s.stepOutputsServe(now)
	s.stepInputs(now)
	s.accrueReservations(now)
	s.acceptArrivals(now)
	s.checkChunkConservation(now)
}

// checkChunkConservation asserts, every cycle, that free + in-use + reserved
// + removed chunks account for exactly the configured capacity. The latch
// reports a broken ledger once instead of flooding the counters.
func (s *Switch) checkChunkConservation(now int64) {
	total := s.free[poolUp] + s.free[poolDown] + s.chunksInUse + s.reservedTotal +
		s.removed[poolUp] + s.removed[poolDown]
	if total != s.cfg.Chunks {
		if !s.leakLatch {
			s.leakLatch = true
			s.Sim.Invariants().Violate(now, "cb-chunk-leak",
				"%s: %d chunks accounted of %d (free=%v inUse=%d reserved=%d removed=%v)",
				s.Name(), total, s.cfg.Chunks, s.free, s.chunksInUse, s.reservedTotal, s.removed)
		}
		return
	}
	s.leakLatch = false
}

func (s *Switch) stepOutputsDrain(now int64) {
	for m := s.drainOut; m != 0; m &= m - 1 {
		o := bits.TrailingZeros64(m)
		st := &s.out[o]
		if out := s.Ports[o].Out; st.fifo.Len() != 0 && out != nil {
			if out.TrySend(now, st.fifo.Front()) {
				st.fifo.Pop()
				s.stats.FlitsOut++
			} else if out.Dead() && !out.MidWorm() && st.fifo.Front().Head() {
				// The head worm never started transmission and never will;
				// discard it at this clean boundary instead of wedging.
				s.discardOutput(o, now)
			}
		}
		if st.fifo.Len() == 0 {
			s.drainOut &^= 1 << uint(o)
		}
	}
}

// emit stages flit r on output o's FIFO and marks the output for draining.
func (s *Switch) emit(o int, r flit.Ref) {
	s.out[o].fifo.Push(r)
	s.drainOut |= 1 << uint(o)
}

// discardOutput drops the output FIFO's head worm when its link died before
// the worm began transmission, unwinding whichever data path was feeding it
// (central-buffer read, bypass stream, or an already-complete buffered worm)
// so upstream state drains and the drop is accounted.
func (s *Switch) discardOutput(o int, now int64) {
	st := &s.out[o]
	head := st.fifo.Front()
	if head.W.Msg.Class == flit.ClassBarrier {
		// A severed barrier tree cannot complete; leave the token for the
		// watchdog to convert into a structured deadlock report.
		return
	}
	switch {
	case st.mode == outCB && st.cur != nil && st.cur.child == head.W:
		b := st.cur
		s.ReportDrop(now, b.child, b.child.Dests)
		s.purgeFIFO(st, head.W)
		st.cur = nil
		st.mode = outIdle
		b.finish()
		s.advanceFreeing(b.pb, now)
	case st.mode == outBypass && st.boundIn >= 0 && s.in[st.boundIn].mode == modeBypass &&
		s.in[st.boundIn].plans[0].Child == head.W:
		in := &s.in[st.boundIn]
		s.ReportDrop(now, head.W, head.W.Dests)
		s.purgeFIFO(st, head.W)
		in.mode = modeSink
		in.bypassOut = -1
		st.mode = outIdle
		st.boundIn = -1
	default:
		// The worm is fully present in the FIFO (a finished central-buffer
		// read or completed bypass).
		s.ReportDrop(now, head.W, head.W.Dests)
		s.purgeFIFO(st, head.W)
	}
}

// purgeFIFO removes every flit of worm w from the output FIFO, preserving
// the order of other worms' flits.
func (s *Switch) purgeFIFO(st *outputState, w *flit.Worm) {
	live := st.fifo.All()
	kept := live[:0]
	for _, r := range live {
		if r.W != w {
			kept = append(kept, r)
		}
	}
	st.fifo.Rebuild(kept)
}

// placeToken is the combiner's hook: it stages a barrier token on output
// port at a packet boundary, where the output is idle with nothing queued
// and its FIFO, which must have room, does not end mid-worm.
func (s *Switch) placeToken(now int64, port int, tok flit.Ref) bool {
	st := &s.out[port]
	if st.mode != outIdle || len(st.queue) != 0 || st.fifo.Len() >= s.cfg.OutFIFOFlits ||
		(st.fifo.Len() != 0 && !st.fifo.Last().Tail()) {
		return false
	}
	s.emit(port, tok)
	s.Sim.Progress()
	return true
}

func (s *Switch) stepOutputsServe(now int64) {
	for m := s.serveOut; m != 0; m &= m - 1 {
		o := bits.TrailingZeros64(m)
		s.serveOutput(o, now)
		if !s.out[o].serving() {
			s.serveOut &^= 1 << uint(o)
		}
	}
}

// serveOutput starts the next queued branch on an idle output and reads one
// flit of the branch in service from the central buffer into the output
// FIFO.
func (s *Switch) serveOutput(o int, now int64) {
	st := &s.out[o]
	if st.mode == outIdle {
		out := s.Ports[o].Out
		for len(st.queue) > 0 {
			b := st.queue[0]
			st.queue = slices.Delete(st.queue, 0, 1)
			if out != nil && out.Dead() {
				// The branch can never be transmitted; account the
				// drop and release its hold on the packet.
				s.ReportDrop(now, b.child, b.child.Dests)
				b.finish()
				s.advanceFreeing(b.pb, now)
				continue
			}
			st.cur = b
			st.mode = outCB
			break
		}
	}
	if st.mode != outCB {
		return
	}
	b := st.cur
	if s.rdBudget == 0 || st.fifo.Len() >= s.cfg.OutFIFOFlits || b.read >= b.pb.written {
		return
	}
	s.rdBudget--
	s.emit(o, flit.Ref{W: b.child, Idx: b.read})
	b.read++
	// The last read may retire the packet, so finish with b first.
	pb := b.pb
	if b.read == pb.total {
		b.finish()
		st.cur = nil
		st.mode = outIdle
	}
	s.advanceFreeing(pb, now)
}

// advanceFreeing releases chunks every reader has fully consumed.
func (s *Switch) advanceFreeing(pb *packetBuf, now int64) {
	m := pb.minRead()
	for pb.chunksFreed < pb.chunksAlloc && m >= pb.chunkEnd(pb.chunksFreed, s.cfg.ChunkFlits) {
		pb.chunksFreed++
		s.chunksInUse--
		s.free[pb.pool]++
	}
	if s.pendingShrink > 0 {
		s.absorbShrink()
	}
	if m == pb.total && pb.written == pb.total {
		s.retirePB(pb, now)
	}
}

// retirePB retires a fully-written, fully-read packet and recycles its
// record. The reference counts must have reached zero exactly here; anything
// else is a model bug, reported to the checker and repaired so the run can
// continue in lenient mode. No input, output or reservation queue refers to
// the packet any more, and its caller must not read it afterwards.
func (s *Switch) retirePB(pb *packetBuf, now int64) {
	if pb.chunksFreed != pb.chunksAlloc {
		s.Sim.Invariants().Violate(now, "cb-refcount",
			"%s: retiring packet (worm %d) with %d/%d chunks freed",
			s.Name(), pb.worm.ID, pb.chunksFreed, pb.chunksAlloc)
		for pb.chunksFreed < pb.chunksAlloc {
			pb.chunksFreed++
			s.chunksInUse--
			s.free[pb.pool]++
		}
	}
	if pb.reserved != 0 {
		s.Sim.Invariants().Violate(now, "cb-refcount",
			"%s: retiring packet (worm %d) with %d reserved chunks",
			s.Name(), pb.worm.ID, pb.reserved)
		s.free[pb.pool] += pb.reserved
		s.reservedTotal -= pb.reserved
		pb.reserved = 0
	}
	s.livePB--
	s.Worms.Release(pb.worm)
	pb.worm = nil
	clear(pb.branches)
	s.freePB = append(s.freePB, pb)
}

// Shrink permanently removes n chunks of central-buffer capacity (the
// CBShrink fault). Free chunks are withdrawn immediately, preferring the
// larger free pool; capacity still in use is absorbed as packets drain. A
// pool never shrinks below the chunks needed to hold one maximum packet, so
// the buffering-completeness guarantee — and with it deadlock freedom —
// survives the fault (any excess shrink beyond that floor stays pending
// forever, i.e. is refused).
func (s *Switch) Shrink(n int) {
	if n <= 0 {
		return
	}
	s.pendingShrink += n
	s.absorbShrink()
}

func (s *Switch) absorbShrink() {
	for s.pendingShrink > 0 {
		best := -1
		for pool := range s.free {
			if s.free[pool] == 0 || s.poolCap[pool]-s.removed[pool] <= s.minPool {
				continue
			}
			if best < 0 || s.free[pool] > s.free[best] {
				best = pool
			}
		}
		if best < 0 {
			return
		}
		s.free[best]--
		s.removed[best]++
		s.pendingShrink--
	}
}

// accrueReservations gives freed chunks to the head of each direction
// pool's reservation queue; a fully reserved multicast is admitted: its
// branches join the output queues and its input may start writing.
func (s *Switch) accrueReservations(now int64) {
	if s.pendingShrink > 0 {
		s.absorbShrink()
	}
	for pool := range s.pendingRes {
		for len(s.pendingRes[pool]) > 0 {
			head := s.pendingRes[pool][0]
			want := head.need - head.reserved
			grab := min(want, s.free[pool])
			if grab > 0 {
				head.reserved += grab
				s.free[pool] -= grab
				s.reservedTotal += grab
				s.Sim.Progress()
			}
			if head.reserved < head.need {
				break
			}
			s.admit(head, now)
			s.pendingRes[pool] = slices.Delete(s.pendingRes[pool], 0, 1)
		}
	}
}

func (s *Switch) admit(pb *packetBuf, now int64) {
	for k := range pb.branches {
		b := &pb.branches[k]
		s.out[b.out].queue = append(s.out[b.out].queue, b)
		s.serveOut |= 1 << uint(b.out)
	}
	in := &s.in[pb.input]
	in.mode = modeWrite
	in.pb = pb
	if pb.multicast {
		s.stats.AdmittedMcasts++
	}
	if n := len(pb.branches); n > s.stats.MaxBranchRefs {
		s.stats.MaxBranchRefs = n
	}
	s.stats.ReserveWaitSum += now - in.waitSince
	if s.Sim.Tracing() {
		s.Sim.Emit(engine.TraceEvent{Kind: engine.TraceAdmit, Actor: s.Name(),
			Msg: pb.worm.Msg.ID, Worm: pb.worm.ID,
			Detail: fmt.Sprintf("waited=%d chunks=%d", now-in.waitSince, pb.need)})
	}
	s.Sim.Progress()
}

func (s *Switch) stepInputs(now int64) {
	// The service origin rotates one slot per cycle. It is derived from the
	// clock (not a stored counter) so that cycles the active-set scheduler
	// skips — during which the stored counter could not advance — leave the
	// arbitration sequence bit-identical to an always-stepped switch. Active
	// inputs at and above the origin go first, then those below it; an
	// input's step touches no other input, so the bitmap is read once.
	off := uint((now + 1) % int64(len(s.in)))
	below := uint64(1)<<off - 1
	for _, m := range [2]uint64{s.activeIn &^ below, s.activeIn & below} {
		for ; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			s.stepInput(i, now)
			if s.in[i].idle() {
				s.activeIn &^= 1 << uint(i)
			}
		}
	}
}

func (s *Switch) stepInput(i int, now int64) {
	in := &s.in[i]
	switch in.mode {
	case modeIdle:
		if w := in.q.HeadWorm(); w != nil && w.Msg.Class == flit.ClassBarrier {
			// Barrier tokens never enter the routing pipeline: consume
			// and hand to the combining logic.
			r := in.q.Pop()
			s.Ports[i].In.ReturnCredit(now, 1)
			s.Tokens.Handle(i, r.W)
			s.Worms.Release(r.W)
			return
		}
		if w := in.q.HeadWorm(); w != nil {
			if in.q.HeadIdx() != 0 {
				panic(fmt.Sprintf("%s: input %d head worm starts at flit %d", s.Name(), i, in.q.HeadIdx()))
			}
			in.worm = w
			in.mode = modeHeader
		}
		if in.mode != modeHeader {
			return
		}
		fallthrough
	case modeHeader:
		need := min(in.worm.HeaderFlits(), in.worm.Len())
		if in.q.HeadAvail() < need {
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
	case modeReserve:
		// Waiting for accrueReservations to admit; nothing to do.
	case modeBypass:
		s.pushBypass(i, now)
	case modeWrite:
		s.writeCB(i, now)
	case modeSink:
		s.sinkInput(i, now)
	}
}

// sinkInput consumes one flit per cycle of a worm whose branches all died,
// returning credits so the upstream sender drains.
func (s *Switch) sinkInput(i int, now int64) {
	in := &s.in[i]
	if in.q.Empty() || in.q.HeadWorm() != in.worm {
		return
	}
	r := in.q.Pop()
	s.Ports[i].In.ReturnCredit(now, 1)
	s.Sim.Progress()
	if r.Tail() {
		s.clearInput(in)
		s.Worms.Release(r.W)
	}
}

// decode routes the head worm and chooses its data path.
func (s *Switch) decode(i int, now int64) {
	in := &s.in[i]
	plans := s.Decode(in.plans[:0], i, in.worm, func(port int) bool {
		return s.out[port].mode == outIdle && len(s.out[port].queue) == 0
	}, now)
	in.plans = plans
	if len(plans) == 0 {
		// Every branch died: swallow the worm so upstream drains.
		in.mode = modeSink
		s.sinkInput(i, now)
		return
	}

	unicastLike := in.worm.Msg.Class == flit.ClassUnicast ||
		(len(plans) == 1 && s.cfg.MulticastBypassSingle)
	if unicastLike && len(plans) != 1 {
		panic(fmt.Sprintf("%s: unicast worm %d produced %d branches", s.Name(), in.worm.ID, len(plans)))
	}

	pool := poolDown
	if switches.Ascending(s.Node, i) {
		pool = poolUp
	}

	if unicastLike {
		o := plans[0].Port
		if s.out[o].mode == outIdle && len(s.out[o].queue) == 0 {
			s.out[o].mode = outBypass
			s.out[o].boundIn = i
			in.bypassOut = o
			in.mode = modeBypass
			s.pushBypass(i, now)
			return
		}
		s.stats.UnicastCBEnters++
	}

	// Divert through the central buffer. Every central-buffer entry —
	// unicast or multidestination — reserves its full chunk count before
	// its first flit is written (the paper's rule that an accepted packet
	// can always be completely buffered). A partially-buffered packet at
	// the head of an output queue whose writer is chunk-starved would
	// otherwise wedge the switch: every chunk behind it belongs to
	// fully-written packets that can never be read past it.
	pb := s.newPacketBuf(i, !unicastLike, pool)
	pb.need = (pb.total + s.cfg.ChunkFlits - 1) / s.cfg.ChunkFlits
	s.livePB++
	in.pb = pb
	in.waitSince = now
	if len(s.pendingRes[pool]) == 0 && s.free[pool] >= pb.need {
		pb.reserved = pb.need
		s.free[pool] -= pb.need
		s.reservedTotal += pb.need
		s.admit(pb, now)
		s.writeCB(i, now)
		return
	}
	in.mode = modeReserve
	s.pendingRes[pool] = append(s.pendingRes[pool], pb)
	if s.Sim.Tracing() {
		s.Sim.Emit(engine.TraceEvent{Kind: engine.TraceReserve, Actor: s.Name(),
			Msg: in.worm.Msg.ID, Worm: in.worm.ID,
			Detail: fmt.Sprintf("need=%d pool=%d queue=%d", pb.need, pool, len(s.pendingRes[pool]))})
	}
}

// newPacketBuf takes a record from the free list (or allocates one) and
// clears every field a previous packet left behind.
func (s *Switch) newPacketBuf(i int, multicast bool, pool int) *packetBuf {
	in := &s.in[i]
	var pb *packetBuf
	if n := len(s.freePB); n > 0 {
		pb = s.freePB[n-1]
		s.freePB[n-1] = nil
		s.freePB = s.freePB[:n-1]
	} else {
		pb = new(packetBuf)
	}
	*pb = packetBuf{
		worm:      in.worm,
		total:     in.worm.Len(),
		multicast: multicast,
		input:     i,
		pool:      pool,
		branches:  pb.branches[:0],
	}
	for _, p := range in.plans {
		pb.branches = append(pb.branches, cbBranch{pb: pb, child: p.Child, out: p.Port})
	}
	return pb
}

// pushBypass moves one flit from the input FIFO straight to the bound
// output FIFO.
func (s *Switch) pushBypass(i int, now int64) {
	in := &s.in[i]
	o := in.bypassOut
	st := &s.out[o]
	if in.q.Empty() || in.q.HeadWorm() != in.worm || st.fifo.Len() >= s.cfg.OutFIFOFlits {
		return
	}
	r := in.q.Pop()
	s.Ports[i].In.ReturnCredit(now, 1)
	s.emit(o, flit.Ref{W: in.plans[0].Child, Idx: r.Idx})
	s.stats.BypassFlits++
	if r.Tail() {
		st.mode = outIdle
		st.boundIn = -1
		s.clearInput(in)
		s.Worms.Release(r.W)
	}
}

// writeCB moves one flit from the input FIFO into the central buffer.
func (s *Switch) writeCB(i int, now int64) {
	in := &s.in[i]
	pb := in.pb
	if s.wrBudget == 0 || in.q.Empty() || in.q.HeadWorm() != in.worm {
		return
	}
	if pb.written%s.cfg.ChunkFlits == 0 {
		// Convert one reserved chunk into an allocation; full up-front
		// reservation guarantees this never runs dry.
		if pb.reserved == 0 {
			panic(fmt.Sprintf("%s: input %d writer out of reserved chunks at flit %d/%d",
				s.Name(), i, pb.written, pb.total))
		}
		pb.reserved--
		s.reservedTotal--
		pb.chunksAlloc++
		s.chunksInUse++
		if s.chunksInUse > s.stats.MaxChunksInUse {
			s.stats.MaxChunksInUse = s.chunksInUse
		}
	}
	r := in.q.Pop()
	s.Ports[i].In.ReturnCredit(now, 1)
	if r.Idx != pb.written {
		panic(fmt.Sprintf("%s: input %d wrote flit %d, expected %d", s.Name(), i, r.Idx, pb.written))
	}
	pb.written++
	s.wrBudget--
	s.stats.BufferFlits++
	s.Sim.Progress()
	if r.Tail() {
		s.clearInput(in)
		s.advanceFreeing(pb, now)
	}
}

func (s *Switch) clearInput(in *inputState) {
	in.mode = modeIdle
	in.worm = nil
	clear(in.plans)
	in.plans = in.plans[:0]
	in.pb = nil
	in.bypassOut = -1
}

func (s *Switch) acceptArrivals(now int64) {
	for m := s.arrivals; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		link := s.Ports[i].In
		r, ok := link.Take(now)
		if !ok {
			continue
		}
		if s.in[i].q.Len() >= s.cfg.InFIFOFlits {
			panic(fmt.Sprintf("%s: input %d FIFO overflow (credit protocol violated)", s.Name(), i))
		}
		s.in[i].q.Push(r)
		s.activeIn |= 1 << uint(i)
		s.stats.FlitsIn++
	}
}

// rebuildActivity re-derives the port bitmaps from restored port state. The
// arrival bits are re-derived by the input links themselves.
func (s *Switch) rebuildActivity() {
	s.activeIn, s.drainOut, s.serveOut = 0, 0, 0
	for i := range s.in {
		if !s.in[i].idle() {
			s.activeIn |= 1 << uint(i)
		}
	}
	for o := range s.out {
		if s.out[o].fifo.Len() != 0 {
			s.drainOut |= 1 << uint(o)
		}
		if s.out[o].serving() {
			s.serveOut |= 1 << uint(o)
		}
	}
}
