package flit

// Arenas batch-allocate the model's short-header objects in contiguous
// chunks. A branching multicast forks a worm per output port at every
// switch, so worm headers dominate the allocation profile of a loaded run;
// carving them from chunks replaces per-fork heap allocations with a
// pointer bump and keeps sibling worms cache-adjacent. Objects are never
// reused — retired worms and ops are reclaimed by the garbage collector
// chunk by chunk — so arena allocation cannot alias live state, and
// checkpoint object graphs (keyed by pointer identity) are unaffected.
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

// WormArena hands out Worm structs from contiguous chunks.
type WormArena struct {
	chunk []Worm
}

// New returns a zeroed Worm carved from the current chunk.
func (a *WormArena) New() *Worm {
	if len(a.chunk) == 0 {
		a.chunk = make([]Worm, wormChunk)
	}
	w := &a.chunk[0]
	a.chunk = a.chunk[1:]
	return w
}

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
