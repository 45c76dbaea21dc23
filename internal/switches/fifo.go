package switches

import (
	"fmt"

	"mdworm/internal/engine"
	"mdworm/internal/flit"
)

// FIFO is a flit queue that exploits worm contiguity: because a link carries
// the flits of one worm back to back, the queue stores (worm, first, count)
// segments instead of individual flits, keeping per-cycle work constant.
type FIFO struct {
	segs []fseg
	head int // index of the front segment; popped segments are reused
	size int
}

type fseg struct {
	w     *flit.Worm
	first int
	n     int
}

// Len returns the number of buffered flits.
func (f *FIFO) Len() int { return f.size }

// Empty reports whether the queue holds no flits.
func (f *FIFO) Empty() bool { return f.size == 0 }

// Push appends a flit. Flits of a worm must arrive contiguously and in
// index order; Push panics otherwise (a model invariant violation).
func (f *FIFO) Push(r flit.Ref) {
	if n := len(f.segs); n > f.head && f.segs[n-1].w == r.W {
		seg := &f.segs[n-1]
		if r.Idx != seg.first+seg.n {
			panic(fmt.Sprintf("switches: non-contiguous flit %v (expected idx %d)", r, seg.first+seg.n))
		}
		seg.n++
	} else {
		if f.head > 0 && len(f.segs) == cap(f.segs) {
			// Reclaim the popped prefix instead of growing.
			n := copy(f.segs, f.segs[f.head:])
			f.segs = f.segs[:n]
			f.head = 0
		}
		f.segs = append(f.segs, fseg{w: r.W, first: r.Idx, n: 1})
	}
	f.size++
}

// Reset empties the queue, keeping its storage.
func (f *FIFO) Reset() {
	*f = FIFO{segs: engine.Empty(f.segs)}
}

// HeadWorm returns the worm whose flit is at the front, or nil if empty.
func (f *FIFO) HeadWorm() *flit.Worm {
	if f.size == 0 {
		return nil
	}
	return f.segs[f.head].w
}

// HeadAvail returns how many flits of the front worm are buffered.
func (f *FIFO) HeadAvail() int {
	if f.size == 0 {
		return 0
	}
	return f.segs[f.head].n
}

// HeadIdx returns the flit index at the front of the queue.
func (f *FIFO) HeadIdx() int {
	if f.size == 0 {
		panic("switches: HeadIdx on empty FIFO")
	}
	return f.segs[f.head].first
}

// Pop removes and returns the front flit.
func (f *FIFO) Pop() flit.Ref {
	if f.size == 0 {
		panic("switches: Pop on empty FIFO")
	}
	seg := &f.segs[f.head]
	r := flit.Ref{W: seg.w, Idx: seg.first}
	seg.first++
	seg.n--
	if seg.n == 0 {
		seg.w = nil // release the worm pointer for GC
		f.head++
		if f.head == len(f.segs) {
			f.segs = f.segs[:0]
			f.head = 0
		}
	}
	f.size--
	return r
}
