package engine

import (
	"fmt"
	"math/bits"

	"mdworm/internal/flit"
)

// Link is a unidirectional channel between an output port and an input port
// with a fixed latency in cycles and a bandwidth of one flit per cycle.
// Flow control is credit-based: the sender holds one credit per free slot of
// the receiver's buffer, consumes a credit per flit sent, and regains
// credits (after the same link latency) when the receiver frees buffer
// space. With this discipline the receiver never overflows, so arriving
// flits can always be accepted.
//
// A link's queues are sized by the wire, not by the receiver's buffer. A
// receiver that takes each flit on its arrival cycle leaves at most
// latency+1 flits on the wire (the ones sent from now-latency to now), and
// ReturnCredit folds every return already due into the sender's count, so
// at most latency returns are pending. Both rings start at those bounds;
// they grow only when a receiver leaves flits on the wire, which the credit
// count still bounds.
type Link struct {
	// Per-flit state. headAt and creditAt cache the due cycles at the front
	// of the two rings, so a refused send or take reads no ring memory.
	headAt   int64 // arrival cycle of the oldest flit on the wire; noWake if none
	creditAt int64 // due cycle of the oldest pending credit return; noWake if none
	lastSend int64 // cycle of the most recent send, for the 1 flit/cycle limit
	lastTake int64 // cycle of the most recent take
	latency  int64
	credits  int // sender-visible credits, every return due so far folded in

	inflight ring[flit.Ref] // flits on the wire, in send order
	creditsQ ring[int]      // credit returns on the reverse wire, one per due cycle

	sim *Simulation // owning kernel; nil for standalone links
	// arrWord is the receiver's arrival bitmap, nil while no receiver is
	// bound; bit arrShift of it marks this link (see BindArrival).
	arrWord  *uint64
	recv     int32 // receiving component index, -1 if undeclared
	arrShift uint8
	failed   bool // LinkDown fault: refuse new worms at the next boundary
	midWorm  bool // a worm's head has crossed without its tail

	name       string
	carried    int64 // flits delivered over the lifetime of the link
	capacity   int32 // initial credit count, the overflow ceiling
	send       int32 // sending component index, -1 if undeclared
	stuckUntil int64 // PortStuck fault: no sends strictly before this cycle

	inv        *Invariants // checker sink; nil for standalone links
	expectWorm *flit.Worm  // conservation: worm whose next flit must follow
	expectIdx  int
}

type timed[T any] struct {
	v  T
	at int64
}

// ring is an index-based FIFO over a power-of-two backing array. Pops
// advance a head index and pushes reuse freed slots, so a link in steady
// state allocates nothing.
type ring[T any] struct {
	buf  []timed[T]
	head int
	n    int
}

func (r *ring[T]) len() int { return r.n }

// front returns the oldest element; the ring must be non-empty.
func (r *ring[T]) front() *timed[T] { return &r.buf[r.head] }

// at returns the i-th queued element (0 = oldest) without consuming it.
func (r *ring[T]) at(i int) *timed[T] {
	return &r.buf[(r.head+i)&(len(r.buf)-1)]
}

func (r *ring[T]) push(v timed[T]) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

func (r *ring[T]) pop() timed[T] {
	e := r.buf[r.head]
	var zero timed[T]
	r.buf[r.head] = zero // drop references so retired worms can be collected
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return e
}

// grow doubles the ring on the heap. Wire-sized rings reach it only when a
// receiver leaves arrived flits on the wire, or on restoring a checkpoint
// that holds more pending returns than the wire bound.
func (r *ring[T]) grow() {
	buf := make([]timed[T], 2*len(r.buf))
	for i := 0; i < r.n; i++ {
		buf[i] = *r.at(i)
	}
	r.buf = buf
	r.head = 0
}

// reset empties the ring, keeping its storage.
func (r *ring[T]) reset() {
	clear(r.buf)
	r.head, r.n = 0, 0
}

// wireSlots returns the initial ring sizes of a link: latency+1 flits on the
// wire and latency pending credit returns, neither above the credit count,
// each rounded up to a power of two.
func wireSlots(latency, credits int) (flits, returns int) {
	if latency < 1 {
		panic("engine: link latency must be >= 1")
	}
	if credits < 1 {
		panic("engine: link credits must be >= 1")
	}
	pow2 := func(n int) int { return 1 << bits.Len(uint(n-1)) }
	return pow2(min(latency+1, credits)), pow2(min(latency, credits))
}

// NewLink creates a standalone link with the given latency (>= 1) and
// initial credit count (the capacity of the receiver's buffer).
func NewLink(name string, latency, credits int) *Link {
	nf, nc := wireSlots(latency, credits)
	l := new(Link)
	l.init(name, latency, credits, make([]timed[flit.Ref], nf), make([]timed[int], nc))
	return l
}

// init sets up l in place over the given ring storage.
func (l *Link) init(name string, latency, credits int, flits []timed[flit.Ref], returns []timed[int]) {
	*l = Link{
		headAt:   noWake,
		creditAt: noWake,
		lastSend: -1,
		lastTake: -1,
		latency:  int64(latency),
		credits:  credits,
		inflight: ring[flit.Ref]{buf: flits},
		creditsQ: ring[int]{buf: returns},
		recv:     -1,
		send:     -1,
		name:     name,
		capacity: int32(credits),
	}
}

// Name returns the link's diagnostic name.
func (l *Link) Name() string { return l.name }

// Carried returns the number of flits delivered so far.
func (l *Link) Carried() int64 { return l.carried }

// InFlight returns the number of flits currently on the wire.
func (l *Link) InFlight() int { return l.inflight.len() }

// fold moves every credit return due by now into the sender's count. The
// overflow check runs here, the only place credits are regained.
func (l *Link) fold(now int64) {
	q := &l.creditsQ
	for q.len() > 0 && q.front().at <= now {
		l.credits += q.pop().v
	}
	l.creditAt = noWake
	if q.len() > 0 {
		l.creditAt = q.front().at
	}
	if l.credits > int(l.capacity) && l.inv != nil {
		l.inv.Violate(now, "credit-overflow",
			"link %s: %d credits exceed capacity %d", l.name, l.credits, l.capacity)
		l.credits = int(l.capacity)
	}
}

// CanSend reports whether the sender may push a flit this cycle: the link is
// not stuck or (at a worm boundary) failed, a credit is available, and the
// per-cycle bandwidth is unused. A failed link still grants the remaining
// flits of a worm whose head already crossed — failure lands at worm
// boundaries so flit conservation holds. Senders use TrySend; CanSend is
// the query for senders that must know every link grants before moving any
// flit (lock-step replication).
func (l *Link) CanSend(now int64) bool {
	if l.creditAt <= now {
		l.fold(now)
	}
	if now < l.stuckUntil {
		return false
	}
	if l.failed && !l.midWorm {
		return false
	}
	return l.credits > 0 && l.lastSend < now
}

// TrySend pushes flit r onto the wire if CanSend grants it and reports
// whether it did; the flit arrives at now+latency. A refused send leaves
// the wire, the credit count and the conservation tracking untouched.
func (l *Link) TrySend(now int64, r flit.Ref) bool {
	if !l.CanSend(now) {
		return false
	}
	l.checkOrder(now, r)
	l.credits--
	l.lastSend = now
	l.midWorm = !r.Tail()
	at := now + l.latency
	if l.inflight.len() == 0 {
		l.headAt = at
		if l.arrWord != nil {
			*l.arrWord |= 1 << l.arrShift
		}
		if l.sim != nil {
			l.sim.busyLinks++
		}
	}
	l.inflight.push(timed[flit.Ref]{v: r, at: at})
	if s := l.sim; s != nil {
		s.activity++
		if l.recv >= 0 {
			s.noteSend(l.recv, at)
		}
	}
	return true
}

// checkOrder enforces per-link flit conservation: a worm's flits cross a
// link contiguously (no interleaving with another worm) and in index order,
// head first, tail last. Violations are reported and the tracking state
// resynchronizes to the offending flit.
func (l *Link) checkOrder(now int64, r flit.Ref) {
	if l.inv != nil {
		switch {
		case l.expectWorm == nil:
			if r.Idx != 0 {
				l.inv.Violate(now, "flit-order",
					"link %s: worm %d starts mid-worm at flit %d", l.name, r.W.ID, r.Idx)
			}
		case r.W != l.expectWorm:
			l.inv.Violate(now, "flit-interleave",
				"link %s: worm %d preempts unfinished worm %d", l.name, r.W.ID, l.expectWorm.ID)
		case r.Idx != l.expectIdx:
			l.inv.Violate(now, "flit-order",
				"link %s: worm %d flit %d where flit %d was due", l.name, r.W.ID, r.Idx, l.expectIdx)
		}
	}
	if r.Tail() {
		l.expectWorm = nil
	} else {
		l.expectWorm = r.W
		l.expectIdx = r.Idx + 1
	}
}

// Take consumes the oldest flit on the wire if it has arrived by now and
// the receiver has not already taken one this cycle. The receiver is
// responsible for storing it (credit discipline guarantees space) and for
// returning a credit once the space frees. Taking the last flit off the
// wire clears the bound arrival bit.
func (l *Link) Take(now int64) (flit.Ref, bool) {
	if l.headAt > now || l.lastTake >= now {
		return flit.Ref{}, false
	}
	r := l.inflight.pop().v
	if l.inflight.len() == 0 {
		l.headAt = noWake
		if l.sim != nil {
			l.sim.busyLinks--
		}
		if l.arrWord != nil {
			*l.arrWord &^= 1 << l.arrShift
		}
	} else {
		l.headAt = l.inflight.front().at
	}
	l.lastTake = now
	l.carried++
	return r, true
}

// ReturnCredit notifies the sender (after the link latency) that n slots of
// the receiver's buffer have been freed. Returns already due are folded into
// the sender's count first, and a return due the same cycle as the last
// pending one merges with it, so the queue holds one entry per cycle of the
// reverse wire.
func (l *Link) ReturnCredit(now int64, n int) {
	if n <= 0 {
		panic("engine: ReturnCredit with non-positive n")
	}
	if l.creditAt <= now {
		l.fold(now)
	}
	at := now + l.latency
	q := &l.creditsQ
	if k := q.len(); k > 0 {
		if last := q.at(k - 1); last.at == at {
			last.v += n
			return
		}
	} else {
		l.creditAt = at
	}
	q.push(timed[int]{v: n, at: at})
}

// Quiesced reports whether no flits are on the wire.
func (l *Link) Quiesced() bool { return l.inflight.len() == 0 }

// BindArrival registers bit of *word as the receiver's arrival flag for this
// link: TrySend sets it and Take clears it once the wire is empty, so the
// bit is set whenever a flit is on the wire (possibly not yet arrived). A
// receiver scans only the ports whose bits are set instead of polling every
// input link each cycle. The flag is derived from the wire and is never
// serialized; DecodeState re-derives it.
func (l *Link) BindArrival(word *uint64, bit int) {
	if bit < 0 || bit > 63 {
		panic(fmt.Sprintf("engine: link %s: arrival bit %d outside a 64-bit word", l.name, bit))
	}
	l.arrWord = word
	l.arrShift = uint8(bit)
	l.syncArrival()
}

// syncArrival re-derives the bound arrival flag from the wire.
func (l *Link) syncArrival() {
	if l.arrWord == nil {
		return
	}
	if l.inflight.len() > 0 {
		*l.arrWord |= 1 << l.arrShift
	} else {
		*l.arrWord &^= 1 << l.arrShift
	}
}

// Fail marks the link permanently dead at worm granularity (LinkDown fault):
// a worm mid-transfer finishes, after which CanSend refuses new worms.
// In-flight flits are never dropped. A sender declared with DeclareOutputs
// that sleeps while holding work wakes, so it sees the failure this cycle.
func (l *Link) Fail() {
	l.failed = true
	if l.send >= 0 && l.sim.comps[l.send].busy {
		l.sim.wakeIdx(l.send)
	}
}

// Dead reports whether Fail was applied. Senders and routing use it to drop
// or reroute new worms at a clean boundary instead of waiting forever.
func (l *Link) Dead() bool { return l.failed }

// MidWorm reports whether a worm's head has crossed without its tail, i.e.
// a transfer is committed and must be allowed to finish even on a dead link.
func (l *Link) MidWorm() bool { return l.midWorm }

// StickUntil blocks new sends strictly before the given cycle (PortStuck
// fault); overlapping windows keep the latest deadline.
func (l *Link) StickUntil(cycle int64) {
	if cycle > l.stuckUntil {
		l.stuckUntil = cycle
	}
}
