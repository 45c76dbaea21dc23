package engine

// The event queue is a binary min-heap of (cycle, component) wake requests,
// the only event payload the kernel needs: waking a component makes it
// re-inspect its inputs and timers itself. Events due on the same cycle pop
// in no particular order, because dispatch only sets awake bits. The
// paper's fabrics of 16 to 256 nodes keep the queue shallow (a mean depth
// of 14 to 22 events over the suite, 256 at most), so one slice that keeps
// its backing array is all it needs, and a warm simulation schedules
// without allocating.

// compEvent schedules component comp to be woken at cycle at.
type compEvent struct {
	at   int64
	comp int32
}

type eventQueue struct {
	heap []compEvent // min-heap on at
}

func (q *eventQueue) len() int { return len(q.heap) }

// peek returns the earliest queued cycle.
func (q *eventQueue) peek() (int64, bool) {
	if len(q.heap) == 0 {
		return 0, false
	}
	return q.heap[0].at, true
}

// push enqueues a wake for comp at cycle at.
func (q *eventQueue) push(at int64, comp int32) {
	q.heap = append(q.heap, compEvent{})
	i := len(q.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if q.heap[p].at <= at {
			break
		}
		q.heap[i] = q.heap[p]
		i = p
	}
	q.heap[i] = compEvent{at: at, comp: comp}
}

// popDue removes every event with at <= now and hands its component index
// to wake.
func (q *eventQueue) popDue(now int64, wake func(comp int32)) {
	for len(q.heap) > 0 && q.heap[0].at <= now {
		comp := q.heap[0].comp
		last := len(q.heap) - 1
		q.heap[0] = q.heap[last]
		q.heap = q.heap[:last]
		q.siftDown()
		wake(comp)
	}
}

// siftDown moves the root event down to its place.
func (q *eventQueue) siftDown() {
	h := q.heap
	if len(h) == 0 {
		return
	}
	ev, i := h[0], 0
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1].at < h[c].at {
			c++
		}
		if ev.at <= h[c].at {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = ev
}

// collect appends every queued event to dst (duplicates included) for
// snapshot encoding; callers sort the result into canonical order.
func (q *eventQueue) collect(dst []compEvent) []compEvent {
	return append(dst, q.heap...)
}

// reset empties the queue.
func (q *eventQueue) reset() { q.heap = q.heap[:0] }
