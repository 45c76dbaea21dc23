package service

import (
	"crypto/rand"
	"encoding/hex"
	"sort"
	"sync"

	"mdworm/internal/experiments"
)

// reorder is the planned-order point-event merge buffer behind Sweep. Points
// complete in whatever order the pool (or the fleet) resolves them, but the
// ndjson stream must be deterministic — identical for any worker count, any
// peer count, and any failure schedule — so events are buffered by their
// planned sequence number (table order, from experiments.PlannedTags) and
// released as the contiguous prefix grows.
//
// The emitted sequence numbers are 1-based positions in the planned order;
// they are the resume cursor of the stream protocol: a client that saw
// seq N reconnects with after_seq=N and is re-sent only seq > N.
type reorder struct {
	mu   sync.Mutex
	seq  map[string]int
	buf  map[int]experiments.PointEvent
	next int
	emit func(seq int64, ev experiments.PointEvent)
}

func newReorder(emit func(seq int64, ev experiments.PointEvent)) *reorder {
	return &reorder{seq: make(map[string]int), buf: make(map[int]experiments.PointEvent), emit: emit}
}

// reindex installs the planned tag order. The OnPoint callback must be wired
// before experiments.Plan produces the tags (Plan captures its Options), so
// the order arrives after the fact; it must be installed before any point
// resolves — i.e. between Plan and Finish. Duplicate tags cannot occur: tags
// embed experiment id, series, and sweep coordinate.
func (r *reorder) reindex(tags []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, t := range tags {
		r.seq[t] = i
	}
}

// add accepts one completed point event and emits every event of the now
// contiguous prefix, in order.
func (r *reorder) add(ev experiments.PointEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	i, ok := r.seq[ev.Tag]
	if !ok {
		// Not a planned point (cannot happen today); pass it through with
		// seq 0 rather than stall the stream.
		r.emit(0, ev)
		return
	}
	r.buf[i] = ev
	r.drainLocked()
}

func (r *reorder) drainLocked() {
	for {
		ev, ok := r.buf[r.next]
		if !ok {
			return
		}
		delete(r.buf, r.next)
		r.next++
		r.emit(int64(r.next), ev) // next is already the 1-based seq
	}
}

// flush emits whatever is still buffered, in sequence order — called after
// the sweep finishes, when gaps can exist (a canceled sweep fails points
// without emitting events).
func (r *reorder) flush() {
	r.mu.Lock()
	defer r.mu.Unlock()
	idx := make([]int, 0, len(r.buf))
	for i := range r.buf {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	for _, i := range idx {
		r.emit(int64(i+1), r.buf[i])
		delete(r.buf, i)
	}
}

// NewStreamToken mints a stream identifier for a resumable experiment
// stream: 16 random bytes, hex-encoded. The token names the logical stream
// across reconnects; the per-point cursor is the seq field.
func NewStreamToken() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// The token is an identifier, not a secret; a degraded source
		// only risks collision, and the zero token is still valid.
		return "0123456789abcdef0123456789abcdef"
	}
	return hex.EncodeToString(b[:])
}

// ValidStreamToken reports whether s looks like a NewStreamToken output —
// lowercase hex, 32 chars — so handlers can reject garbage cursors early
// and journal keys stay path-safe.
func ValidStreamToken(s string) bool {
	if len(s) != 32 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
