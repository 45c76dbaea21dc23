package flit

// Arenas batch-allocate the model's short-header objects in contiguous
// chunks. A branching multicast forks a worm per output port at every
// switch, so worm headers dominate the allocation profile of a loaded run;
// carving them from chunks replaces per-fork heap allocations with a
// pointer bump and keeps sibling worms cache-adjacent.
//
// A WormArena is also a pool, one per simulation, shared by every switch
// and NIC. The component that consumes a worm's tail flit releases the worm
// after its last read, and New hands out released worms before carving a
// chunk, so a loaded run stops carving once its in-flight population peaks.
// Reuse cannot alias live state because nothing else keeps a worm past its
// tail: senders drop it once the tail has left, and finished branch
// records drop their child. Checkpoint object graphs key worms by engine
// ID, not by pointer, so a recycled struct carries no identity of its own.
// Ops are not pooled; the garbage collector reclaims them chunk by chunk.
//
// Chunks are sized to fill a Go size class. A Worm is 64 bytes on 64-bit
// platforms and holds pointers, and the allocator adds an 8-byte header to
// pointerful objects over 512 bytes: 64 worms (4,096 + 8 bytes) would spill
// into the 4,864-byte class, while 63 (4,032 + 8) fit the 4,096-byte class.
// An Op holds no pointers and takes no header: 64 × 96 bytes exactly fills
// the 6,144-byte class.
const (
	wormChunk = 63
	opChunk   = 64
)

// WormArena hands out Worm structs, reusing released ones before carving
// new ones from contiguous chunks. A nil *WormArena is valid: it allocates
// each worm on the heap and ignores releases, for standalone components
// whose drivers keep the worms they inject.
type WormArena struct {
	chunk  []Worm
	free   []*Worm // released worms, most recent last
	chunks int     // chunks carved so far
}

// New returns a zeroed Worm: the most recently released one, if any, else
// one carved from the current chunk.
func (a *WormArena) New() *Worm {
	if a == nil {
		return new(Worm)
	}
	if n := len(a.free); n > 0 {
		w := a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
		return w
	}
	if len(a.chunk) == 0 {
		a.chunk = make([]Worm, wormChunk)
		a.chunks++
	}
	w := &a.chunk[0]
	a.chunk = a.chunk[1:]
	return w
}

// Release returns w to the arena. The caller must be the component that
// consumed w's tail flit, and nothing may read w afterwards: the worm is
// zeroed at once, so its message and cached length are gone. Releasing a
// worm that carries no message (one released already) panics. Under the
// mdworm_oracle build tag the worm is never handed out again (see
// poisonReleased).
func (a *WormArena) Release(w *Worm) {
	if a == nil {
		return
	}
	if w.Msg == nil {
		panic("flit: releasing a worm with no message (released twice?)")
	}
	*w = Worm{}
	if !poisonReleased {
		a.free = append(a.free, w)
	}
}

// Chunks returns how many chunks the arena has carved.
func (a *WormArena) Chunks() int { return a.chunks }

// OpArena hands out Op structs from contiguous chunks.
type OpArena struct {
	chunk []Op
}

// New returns an Op initialized exactly like NewOp, carved from the
// current chunk.
func (a *OpArena) New(id uint64, class Class, src, numDests int, created int64) *Op {
	if len(a.chunk) == 0 {
		a.chunk = make([]Op, opChunk)
	}
	op := &a.chunk[0]
	a.chunk = a.chunk[1:]
	*op = Op{
		ID:        id,
		Class:     class,
		Src:       src,
		NumDests:  numDests,
		Created:   created,
		remaining: numDests,
	}
	return op
}
