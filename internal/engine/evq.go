package engine

import "math/bits"

// The event queue is a calendar queue in the classic two-tier form: a
// timing wheel of wheelSize one-cycle buckets covering the near future,
// backed by a binary min-heap for events beyond the wheel horizon. Events
// are (cycle, component) wake requests — the only event payload the kernel
// needs, because waking a component makes it re-inspect its inputs and
// timers itself. Pushes into the wheel are O(1); the heap only sees the
// rare far-future deadline (fault-plan activations, long probe periods).
//
// Each bucket is a list threaded through one node slab per simulation: a
// dispatched node goes onto a free list and the next push reuses it, and the
// heap keeps its backing array. The slab grows only to the most events ever
// queued at once, so a simulation schedules without allocating once it is
// warm, and a new simulation grows one slice instead of one per bucket.

const (
	wheelBits = 8
	wheelSize = 1 << wheelBits // cycles covered by the wheel window
	wheelMask = wheelSize - 1
)

// compEvent schedules component comp to be woken at cycle at.
type compEvent struct {
	at   int64
	comp int32
}

// evNode is a wheel event in the node slab. next links it to the next node
// of its bucket, or of the free list once dispatched; 0 ends a list, so
// nodes[0] is never used.
type evNode struct {
	compEvent
	next int32
}

type eventQueue struct {
	// base is the start of the wheel window [base, base+wheelSize); no
	// queued event is earlier than base.
	base int64
	// earliest caches the minimum at over all queued events; valid only
	// while n > 0.
	earliest int64
	n        int

	heads [wheelSize]int32       // first node of each bucket, 0 if empty
	occ   [wheelSize / 64]uint64 // occupancy bitmap over bucket slots
	nodes []evNode               // node slab the bucket lists thread through
	free  int32                  // first dispatched node, 0 if none
	far   []compEvent            // min-heap on at, beyond the wheel horizon
}

func (q *eventQueue) len() int { return q.n }

// peek returns the earliest queued cycle.
func (q *eventQueue) peek() (int64, bool) {
	if q.n == 0 {
		return 0, false
	}
	return q.earliest, true
}

// push enqueues a wake for comp at cycle at, which must be >= base (the
// kernel rejects past events before calling).
func (q *eventQueue) push(at int64, comp int32) {
	if q.n == 0 || at < q.earliest {
		q.earliest = at
	}
	q.n++
	if at-q.base < wheelSize {
		q.wheelPush(compEvent{at: at, comp: comp})
		return
	}
	q.farPush(compEvent{at: at, comp: comp})
}

// wheelPush links ev into its bucket, reusing a free node if there is one.
// Order within a bucket is immaterial: every event in it is due the same
// cycle, and dispatch only sets awake bits.
func (q *eventQueue) wheelPush(ev compEvent) {
	i := q.free
	if i != 0 {
		q.free = q.nodes[i].next
	} else {
		if len(q.nodes) == 0 {
			q.nodes = append(q.nodes, evNode{})
		}
		i = int32(len(q.nodes))
		q.nodes = append(q.nodes, evNode{})
	}
	slot := int(ev.at & wheelMask)
	q.nodes[i] = evNode{compEvent: ev, next: q.heads[slot]}
	q.heads[slot] = i
	q.occ[slot>>6] |= 1 << uint(slot&63)
}

// popDue removes every event with at <= now and hands its component index
// to wake. It advances the wheel window as it drains.
func (q *eventQueue) popDue(now int64, wake func(comp int32)) {
	for q.n > 0 && q.earliest <= now {
		at := q.earliest
		if at-q.base < wheelSize {
			slot := int(at & wheelMask)
			i := q.heads[slot]
			q.heads[slot] = 0
			q.occ[slot>>6] &^= 1 << uint(slot&63)
			for i != 0 {
				nd := &q.nodes[i]
				comp, next := nd.comp, nd.next
				nd.next = q.free
				q.free = i
				q.n--
				wake(comp)
				i = next
			}
		} else {
			// The wheel is empty (a wheel event would be earlier), so the
			// minimum lives at the top of the heap.
			ev := q.farPop()
			q.n--
			wake(ev.comp)
		}
		q.base = at + 1
		q.refill()
		q.recomputeEarliest()
	}
	if q.base <= now {
		q.base = now + 1
		q.refill()
		if q.n > 0 {
			q.recomputeEarliest()
		}
	}
}

// refill migrates heap events that now fall inside the wheel window.
func (q *eventQueue) refill() {
	for len(q.far) > 0 && q.far[0].at-q.base < wheelSize {
		q.wheelPush(q.farPop())
	}
}

// recomputeEarliest rescans for the minimum queued cycle. Within the wheel
// window slot order from base is time order, so the first occupied slot in
// cyclic order holds the earliest events.
func (q *eventQueue) recomputeEarliest() {
	if q.n == 0 {
		return
	}
	start := int(q.base & wheelMask)
	w, b := start>>6, uint(start&63)
	for i := 0; i <= len(q.occ); i++ {
		word := q.occ[(w+i)%len(q.occ)]
		if i == 0 {
			word &= ^uint64(0) << b
		} else if i == len(q.occ) {
			word &^= ^uint64(0) << b
		}
		if word != 0 {
			slot := ((w+i)%len(q.occ))<<6 + bits.TrailingZeros64(word)
			q.earliest = q.nodes[q.heads[slot]].at
			return
		}
	}
	q.earliest = q.far[0].at
}

func (q *eventQueue) farPush(e compEvent) {
	q.far = append(q.far, e)
	i := len(q.far) - 1
	for i > 0 {
		p := (i - 1) / 2
		if q.far[p].at <= q.far[i].at {
			break
		}
		q.far[p], q.far[i] = q.far[i], q.far[p]
		i = p
	}
}

func (q *eventQueue) farPop() compEvent {
	top := q.far[0]
	last := len(q.far) - 1
	q.far[0] = q.far[last]
	q.far = q.far[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < last && q.far[l].at < q.far[min].at {
			min = l
		}
		if r < last && q.far[r].at < q.far[min].at {
			min = r
		}
		if min == i {
			break
		}
		q.far[i], q.far[min] = q.far[min], q.far[i]
		i = min
	}
	return top
}

// collect appends every queued event to dst (duplicates included) for
// snapshot encoding; callers sort the result into canonical order.
func (q *eventQueue) collect(dst []compEvent) []compEvent {
	for _, i := range q.heads {
		for ; i != 0; i = q.nodes[i].next {
			dst = append(dst, q.nodes[i].compEvent)
		}
	}
	dst = append(dst, q.far...)
	return dst
}

// reset empties the queue and rebases the window at now.
func (q *eventQueue) reset(now int64) {
	q.heads = [wheelSize]int32{}
	q.occ = [wheelSize / 64]uint64{}
	q.nodes = q.nodes[:min(len(q.nodes), 1)]
	q.free = 0
	q.far = q.far[:0]
	q.n = 0
	q.base = now
}
