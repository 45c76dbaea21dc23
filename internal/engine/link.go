package engine

import (
	"fmt"

	"mdworm/internal/flit"
)

// Link is a unidirectional channel between an output port and an input port
// with a fixed latency in cycles and a bandwidth of one flit per cycle.
// Flow control is credit-based: the sender holds one credit per free slot of
// the receiver's buffer, consumes a credit per flit sent, and regains
// credits (after the same link latency) when the receiver frees buffer
// space. With this discipline the receiver never overflows, so arriving
// flits can always be accepted.
type Link struct {
	name    string
	latency int64

	inflight ring[flit.Ref] // flits on the wire, in send order
	creditsQ ring[int]      // credit returns on the reverse wire
	credits  int            // sender-visible credits (after draining creditsQ)

	lastSend int64 // cycle of most recent Send, for the 1 flit/cycle limit
	lastTake int64 // cycle of most recent TakeArrived

	carried  int64       // flits delivered over the lifetime of the link
	activity *int64      // simulation activity counter
	sim      *Simulation // owning kernel; nil for standalone links
	// arrWord is the receiver's arrival bitmap, nil while no receiver is
	// bound; bit arrShift of it marks this link (see BindArrival).
	arrWord *uint64

	capacity   int   // initial credit count, the overflow ceiling
	stuckUntil int64 // PortStuck fault: no sends strictly before this cycle
	recv       int32 // receiving component index, -1 if undeclared
	arrShift   uint8
	failed     bool // LinkDown fault: refuse new worms at the next boundary
	midWorm    bool // a worm's head has crossed without its tail

	inv        *Invariants // checker sink; nil for standalone links
	expectWorm *flit.Worm  // conservation: worm whose next flit must follow
	expectIdx  int
}

type timed[T any] struct {
	v  T
	at int64
}

// ring is an index-based FIFO over a power-of-two backing array. Unlike the
// re-sliced append queue it replaces, pops advance a head index and pushes
// reuse freed slots, so a link in steady state allocates nothing.
type ring[T any] struct {
	buf  []timed[T]
	head int
	n    int
}

func (r *ring[T]) len() int { return r.n }

// front returns the oldest element; the ring must be non-empty.
func (r *ring[T]) front() *timed[T] { return &r.buf[r.head] }

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

func (r *ring[T]) grow() {
	size := 2 * len(r.buf)
	if size == 0 {
		size = 4
	}
	buf := make([]timed[T], size)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = buf
	r.head = 0
}

// NewLink creates a link with the given latency (>= 1) and initial credit
// count (the capacity of the receiver's buffer).
func NewLink(name string, latency, credits int) *Link {
	if latency < 1 {
		panic("engine: link latency must be >= 1")
	}
	if credits < 1 {
		panic("engine: link credits must be >= 1")
	}
	var noop int64
	l := &Link{
		name:     name,
		latency:  int64(latency),
		credits:  credits,
		capacity: credits,
		lastSend: -1,
		lastTake: -1,
		activity: &noop,
		recv:     -1,
	}
	// Credit discipline bounds both rings at the credit capacity, so size
	// them up front instead of growing through the first busy worms.
	size := 4
	for size < credits {
		size *= 2
	}
	l.inflight.buf = make([]timed[flit.Ref], size)
	l.creditsQ.buf = make([]timed[int], size)
	return l
}

// Name returns the link's diagnostic name.
func (l *Link) Name() string { return l.name }

// Carried returns the number of flits delivered so far.
func (l *Link) Carried() int64 { return l.carried }

// InFlight returns the number of flits currently on the wire.
func (l *Link) InFlight() int { return l.inflight.len() }

func (l *Link) drainCredits(now int64) {
	for l.creditsQ.len() > 0 && l.creditsQ.front().at <= now {
		l.credits += l.creditsQ.pop().v
	}
	if l.credits > l.capacity && l.inv != nil {
		l.inv.Violate(now, "credit-overflow",
			"link %s: %d credits exceed capacity %d", l.name, l.credits, l.capacity)
		l.credits = l.capacity
	}
}

// CanSend reports whether the sender may push a flit this cycle: the link is
// not stuck or (at a worm boundary) failed, a credit is available, and the
// per-cycle bandwidth is unused. A failed link still grants the remaining
// flits of a worm whose head already crossed — failure lands at worm
// boundaries so flit conservation holds.
func (l *Link) CanSend(now int64) bool {
	l.drainCredits(now)
	if now < l.stuckUntil {
		return false
	}
	if l.failed && !l.midWorm {
		return false
	}
	return l.credits > 0 && l.lastSend < now
}

// Credits returns the sender-visible credit count.
func (l *Link) Credits(now int64) int {
	l.drainCredits(now)
	return l.credits
}

// Send pushes one flit onto the wire; it arrives at now+latency. It panics
// if called without CanSend — senders must check first.
func (l *Link) Send(now int64, r flit.Ref) {
	if !l.CanSend(now) {
		panic(fmt.Sprintf("engine: link %s: Send without credit/bandwidth at cycle %d", l.name, now))
	}
	l.checkOrder(now, r)
	l.credits--
	l.lastSend = now
	l.midWorm = !r.Tail()
	if l.inflight.len() == 0 && l.sim != nil {
		l.sim.busyLinks++
	}
	l.inflight.push(timed[flit.Ref]{v: r, at: now + l.latency})
	if l.arrWord != nil {
		*l.arrWord |= 1 << l.arrShift
	}
	*l.activity++
	if l.recv >= 0 {
		l.sim.noteSend(l.recv, now+l.latency)
	}
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

// Arrived returns the oldest flit whose arrival time has passed, without
// consuming it. The second result is false if nothing has arrived or the
// receiver already took a flit this cycle.
func (l *Link) Arrived(now int64) (flit.Ref, bool) {
	if l.lastTake >= now || l.inflight.len() == 0 || l.inflight.front().at > now {
		return flit.Ref{}, false
	}
	return l.inflight.front().v, true
}

// TakeArrived consumes the flit returned by Arrived. The receiver is
// responsible for storing it (credit discipline guarantees space) and for
// returning a credit once the space frees.
func (l *Link) TakeArrived(now int64) flit.Ref {
	r, ok := l.Arrived(now)
	if !ok {
		panic(fmt.Sprintf("engine: link %s: TakeArrived with nothing arrived at cycle %d", l.name, now))
	}
	l.inflight.pop()
	if l.inflight.len() == 0 {
		if l.sim != nil {
			l.sim.busyLinks--
		}
		if l.arrWord != nil {
			*l.arrWord &^= 1 << l.arrShift
		}
	}
	l.lastTake = now
	l.carried++
	return r
}

// ReturnCredit notifies the sender (after the link latency) that n slots of
// the receiver's buffer have been freed.
func (l *Link) ReturnCredit(now int64, n int) {
	if n <= 0 {
		panic("engine: ReturnCredit with non-positive n")
	}
	l.creditsQ.push(timed[int]{v: n, at: now + l.latency})
}

// Quiesced reports whether no flits are on the wire.
func (l *Link) Quiesced() bool { return l.inflight.len() == 0 }

func (l *Link) bindActivity(counter *int64) { l.activity = counter }

// BindArrival registers bit of *word as the receiver's arrival flag for this
// link: Send sets it and TakeArrived clears it once the wire is empty, so
// the bit is set whenever a flit is on the wire (possibly not yet arrived).
// A receiver scans only the ports whose bits are set instead of polling
// every input link each cycle. The flag is derived from the wire and is
// never serialized; DecodeState re-derives it.
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

// Capacity returns the receiver buffer size the link was created with.
func (l *Link) Capacity() int { return l.capacity }

// Fail marks the link permanently dead at worm granularity (LinkDown fault):
// a worm mid-transfer finishes, after which CanSend refuses new worms.
// In-flight flits are never dropped.
func (l *Link) Fail() { l.failed = true }

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
