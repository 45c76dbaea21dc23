package flit

// Chunks are sized to fill a Go size class. All three structs hold
// pointers, and the allocator adds an 8-byte header to pointerful objects
// over 512 bytes. A Worm is 64 bytes on 64-bit platforms: 64 worms (4,096 +
// 8 bytes) would spill into the 4,864-byte class, while 63 (4,032 + 8) fit
// the 4,096-byte class. A Message is 152 bytes, so 26 (3,952 + 8) fit it,
// and an Op is 128 bytes, so 31 (3,968 + 8) do.
const (
	wormChunk    = 63
	messageChunk = 26
	opChunk      = 31
)

// WormArena is the simulation's one pool. It hands out the model's
// short-lived objects, worms, messages and ops, and takes each back when
// the last holder lets go; New hands out released objects before carving
// new ones from contiguous chunks, so a loaded run stops carving once its
// live population peaks. A branching multicast forks a worm per output port
// at every switch, and every op brings its messages, so carving from chunks
// also replaces per-object heap allocations with a pointer bump and keeps
// siblings cache-adjacent. The simulator shares the pool with every switch
// and NIC, as it shares the ID generator.
//
// Who holds what:
//   - A worm is held by the component that consumes its tail flit, which
//     releases it (Release) after its last read. Nothing else keeps a worm
//     past its tail: senders drop it once the tail has left, and finished
//     branch records drop their child.
//   - A message is held by its live worms and by each NIC forwarding task
//     that still needs it. A worm's hold is taken where the worm is made
//     (NIC injection, switch forks, barrier tokens) and dropped in
//     Release, so worm releases are the only release points; a forwarding
//     task holds its message until it has planned its sends. A queued
//     message that has no worm yet holds nothing and is held by nothing.
//   - An op is held by its live pool-made messages and by one completion
//     hold, which the simulator drops once it has finished with the
//     completed op.
//
// Worms that never reach a consumer (purged at a dead output, dropped
// before sending) keep their holds, so they, their message and its op are
// left to the garbage collector; so is a message dropped from a NIC queue.
// Only pool-made messages and ops go back to the pool: objects decoded from
// a checkpoint, ops a caller keeps (core.Simulator.StartOp), switch-made
// barrier tokens and anything a nil pool builds are never recycled, and
// their holds are not counted. Checkpoints key every object by engine ID,
// not by pointer, and never write the counts, so a recycled struct carries
// no identity of its own and a restore needs no count rebuild.
//
// A nil *WormArena is valid: it allocates each object on the heap and
// ignores releases, for standalone components whose drivers keep the worms
// and messages they inject.
type WormArena struct {
	chunk  []Worm
	free   []*Worm // released worms, most recent last
	chunks int     // worm chunks carved so far

	// Released messages and ops wait on intrusive free lists, linked
	// through their next fields, so that taking them back allocates
	// nothing.
	msgs      []Message
	freeMsgs  *Message
	msgChunks int

	ops      []Op
	freeOps  *Op
	opChunks int
}

// New returns a zeroed Worm: the most recently released one, if any, else
// one carved from the current chunk. The caller that sets its message takes
// the message's hold (Hold).
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

// Release returns w to the arena and drops w's hold on its message. The
// caller must be the component that consumed w's tail flit, and nothing may
// read w afterwards: the worm is zeroed at once, so its message and cached
// length are gone. Releasing a worm that carries no message (one released
// already) panics. Under the mdworm_oracle build tag the worm is never
// handed out again (see poisonReleased).
func (a *WormArena) Release(w *Worm) {
	if a == nil {
		return
	}
	m := w.Msg
	if m == nil {
		panic("flit: releasing a worm with no message (released twice?)")
	}
	*w = Worm{}
	if !poisonReleased {
		a.free = append(a.free, w)
	}
	a.ReleaseMessage(m)
}

// Chunks returns how many worm chunks the arena has carved.
func (a *WormArena) Chunks() int { return a.chunks }

// MessageChunks returns how many message chunks the arena has carved.
func (a *WormArena) MessageChunks() int { return a.msgChunks }

// OpChunks returns how many op chunks the arena has carved.
func (a *WormArena) OpChunks() int { return a.opChunks }

// NewMessage returns a message whose only set field is Op, taking the
// message's hold on a pool-made op. The pool takes it back once its
// last holder lets go; until its first worm is made it has no holder. A nil
// arena allocates it on the heap, never to be recycled.
func (a *WormArena) NewMessage(op *Op) *Message {
	if a == nil {
		return &Message{Op: op}
	}
	m := a.freeMsgs
	if m != nil {
		a.freeMsgs, m.next = m.next, nil
	} else {
		if len(a.msgs) == 0 {
			a.msgs = make([]Message, messageChunk)
			a.msgChunks++
		}
		m = &a.msgs[0]
		a.msgs = a.msgs[1:]
		m.pooled = true
	}
	m.Op = op
	if op != nil && op.pooled {
		op.holders++
	}
	return m
}

// Hold counts one more holder of m: a worm made to carry it, or a task that
// will read it later. It does nothing for a message the pool did not make.
func (a *WormArena) Hold(m *Message) {
	if m.pooled {
		m.holders++
	}
}

// ReleaseMessage drops one holder of m. When the last holder of a pool-made
// message lets go, the message is zeroed, goes back to the pool and drops
// its hold on its op; nothing may read it afterwards. Releasing a pooled
// message that has no holder panics. Under the mdworm_oracle build tag the
// message is never handed out again: a read finds no op, destinations or
// forwarding step.
func (a *WormArena) ReleaseMessage(m *Message) {
	if a == nil || !m.pooled {
		return
	}
	m.holders--
	if m.holders > 0 {
		return
	}
	if m.holders < 0 {
		panic("flit: releasing a message with no holder (released twice?)")
	}
	op := m.Op
	*m = Message{pooled: true}
	if !poisonReleased {
		m.next, a.freeMsgs = a.freeMsgs, m
	}
	a.ReleaseOp(op)
}

// NewOp returns an Op initialized exactly like NewOp, holding the
// completion hold that the simulator drops with ReleaseOp once it has
// finished with the completed op. The op keeps the storage of its previous
// use (SetGroup). A nil arena allocates it on the heap, never to be
// recycled.
func (a *WormArena) NewOp(id uint64, class Class, src, numDests int, created int64) *Op {
	if a == nil {
		return NewOp(id, class, src, numDests, created)
	}
	op := a.freeOps
	if op != nil {
		a.freeOps = op.next
	} else {
		if len(a.ops) == 0 {
			a.ops = make([]Op, opChunk)
			a.opChunks++
		}
		op = &a.ops[0]
		a.ops = a.ops[1:]
	}
	*op = Op{
		ID:        id,
		Class:     class,
		pooled:    true,
		holders:   1,
		Src:       src,
		NumDests:  numDests,
		Created:   created,
		remaining: numDests,
		group:     op.group[:0],
	}
	return op
}

// ReleaseOp drops one holder of op (nil is ignored). When the last holder
// of a pool-made op lets go, the op is zeroed and goes back to the pool;
// nothing may read it afterwards. Releasing a pooled op that has no holder
// panics. Under the mdworm_oracle build tag the op is never handed out
// again, and its remaining count makes Deliver and DropN panic.
func (a *WormArena) ReleaseOp(op *Op) {
	if a == nil || op == nil || !op.pooled {
		return
	}
	op.holders--
	if op.holders > 0 {
		return
	}
	if op.holders < 0 {
		panic("flit: releasing an op with no holder (released twice?)")
	}
	if poisonReleased {
		*op = Op{pooled: true, remaining: -1}
	} else {
		*op = Op{pooled: true, group: op.group[:0], next: a.freeOps}
		a.freeOps = op
	}
}
