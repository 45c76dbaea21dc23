// Package flit defines the wire-level and message-level data units of the
// simulator: messages as issued by hosts, worms as they travel hop by hop
// (a multidestination worm forks into branch worms inside switches), flit
// references as they occupy link and buffer slots, and collective-operation
// bookkeeping used to compute last-arrival multicast latency.
package flit

import (
	"fmt"
	"slices"

	"mdworm/internal/bitset"
)

// Class distinguishes unicast from multidestination traffic for statistics
// and for switch data paths.
type Class uint8

const (
	// ClassUnicast is a single-destination message.
	ClassUnicast Class = iota
	// ClassMulticast is a multidestination message.
	ClassMulticast
	// ClassBarrier is a single-flit barrier token, combined inside
	// switches rather than routed (the in-switch barrier support of the
	// authors' companion work). Switches consume ascending tokens,
	// emit one combined token up the designated spanning tree, and
	// broadcast release tokens back down.
	ClassBarrier
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case ClassUnicast:
		return "unicast"
	case ClassMulticast:
		return "multicast"
	case ClassBarrier:
		return "barrier"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// Message is one network transaction issued by a host: a header plus payload
// that is delivered to one or more destinations. Software multicast schemes
// issue several unicast Messages per collective operation; hardware schemes
// issue one multidestination Message.
type Message struct {
	ID    uint64
	Src   int
	Dests []int // final destination processors of this message; never modified
	Class Class

	// pooled marks a message made by the simulation's pool (WormArena),
	// which takes it back once holders, its live worms plus the forwarding
	// tasks that still need it, drops to zero. Both are derived state that
	// checkpoints never write.
	pooled  bool
	holders int32

	PayloadFlits int
	HeaderFlits  int

	// Created is the cycle the message was handed to the source NIC.
	Created int64
	// InjectedAt is the cycle the first flit entered the injection link
	// (after any software send overhead). Zero until injection.
	InjectedAt int64

	// Op ties the message to the collective operation it serves; every
	// message belongs to exactly one Op (unicast traffic gets a
	// degenerate single-destination Op).
	Op *Op

	// Forward, when non-nil, is consulted by the receiving NIC of a
	// software-multicast message to continue the distribution tree.
	Forward *ForwardStep

	// fwd and rootWord are storage inside the message, so filling them
	// allocates nothing: fwd backs Forward (SetForward), and rootWord the
	// destination set of the root worm (RootDests). next links the message
	// into its pool's free list while it waits there.
	fwd      ForwardStep
	rootWord [1]uint64
	next     *Message
}

// Len returns the total number of flits of the message on the wire.
func (m *Message) Len() int { return m.HeaderFlits + m.PayloadFlits }

// SetForward makes m carry fwd, in storage m owns, so setting it allocates
// nothing. A step whose subtree is empty leaves m with no forwarding work.
func (m *Message) SetForward(fwd ForwardStep) {
	if fwd.Hi-fwd.Lo <= 1 {
		m.Forward = nil
		return
	}
	m.fwd = fwd
	m.Forward = &m.fwd
}

// RootDests returns m's destinations as a set of capacity n, for the root
// worm the source NIC injects. A set of up to 64 processors lives in a word
// m keeps, so building it allocates nothing; forks share the set, but every
// worm that can name it carries m, and m goes back to its pool only after
// the last of them is released. A wider set is allocated.
func (m *Message) RootDests(n int) bitset.Set {
	if n > 64*len(m.rootWord) {
		return bitset.FromSlice(n, m.Dests)
	}
	s := bitset.Over(m.rootWord[:], n)
	for _, d := range m.Dests {
		s.Add(d)
	}
	return s
}

// ForwardStep describes the remaining work a software-multicast recipient
// must perform. A binomial tree makes every subtree a contiguous range of
// ranks in its group, so a step names the group and a range instead of
// copying the subtree: the recipient is Group[Lo], and Group[Lo+1:Hi] are
// the destinations it must cover with further sends. A planned step's
// group is its op's, [src, sorted dests...], shared by all of the op's
// messages (a step restored from a checkpoint heads a group of its own);
// nothing may modify it.
type ForwardStep struct {
	Group  []int
	Lo, Hi int
}

// Subtree returns the destinations the recipient must cover, excluding
// itself. The slice aliases Group.
func (f *ForwardStep) Subtree() []int { return f.Group[f.Lo+1 : f.Hi] }

// Op aggregates delivery of a collective operation (or a single unicast).
// The simulator records one latency sample per Op using the last-arrival
// definition of Nupairoj and Ni: latency is measured from Op creation to the
// arrival of the tail flit at the last destination.
type Op struct {
	ID    uint64
	Class Class

	// pooled marks an op made by the simulation's pool, which takes it
	// back once holders, its live pool-made messages plus the simulator's
	// completion hold, drops to zero. Derived state, never checkpointed.
	pooled  bool
	holders int32

	Src      int
	NumDests int
	Created  int64
	// Phases is the number of communication phases used (1 for hardware
	// multicast and unicast; ceil(log2(d+1)) for binomial software trees).
	Phases int

	remaining    int
	FirstArrival int64
	LastArrival  int64
	SumArrival   int64 // sum of per-destination arrival cycles, for mean-arrival metric
	MessagesSent int   // total messages injected on behalf of this op
	// Dropped counts destinations accounted as undeliverable because of an
	// injected fault (dead link, dead NIC attachment). A partially dropped
	// op still completes — delivered and dropped destinations sum to
	// NumDests — but yields no latency sample.
	Dropped int

	// group is the op's destination group (SetGroup), in storage the op
	// keeps across reuse. next links the op into its pool's free list while
	// it waits there.
	group []int
	next  *Op
}

// NewOp creates an Op expecting delivery at numDests destinations.
func NewOp(id uint64, class Class, src, numDests int, created int64) *Op {
	return &Op{
		ID:        id,
		Class:     class,
		Src:       src,
		NumDests:  numDests,
		Created:   created,
		remaining: numDests,
	}
}

// SetGroup records the op's group, [Src, dests...], in storage the op keeps
// across reuse, sorting the destinations when sorted is set, and returns it.
// Every message of the op names a sub-slice of the group as its Dests (and
// its forwarding step's Group), so the group is set once, when the op is
// planned, and never changes while a message names the op.
func (o *Op) SetGroup(dests []int, sorted bool) []int {
	g := append(append(o.group[:0], o.Src), dests...)
	if sorted {
		slices.Sort(g[1:])
	}
	o.group = g
	return g
}

// Remaining returns the number of destinations that have not yet received
// their copy.
func (o *Op) Remaining() int { return o.remaining }

// Done reports whether every destination has received its copy.
func (o *Op) Done() bool { return o.remaining == 0 }

// Deliver records the arrival of the tail flit at one destination and
// returns true when this completes the operation.
func (o *Op) Deliver(now int64) bool {
	if o.remaining <= 0 {
		panic(fmt.Sprintf("flit: op %d over-delivered", o.ID))
	}
	o.remaining--
	if o.FirstArrival == 0 || now < o.FirstArrival {
		o.FirstArrival = now
	}
	if now > o.LastArrival {
		o.LastArrival = now
	}
	o.SumArrival += now
	return o.remaining == 0
}

// DropN accounts n destinations of the op as dropped rather than delivered
// and returns true when this completes the operation. n <= 0 is a no-op
// returning false; dropping more destinations than remain is the same
// accounting bug as over-delivery and panics.
func (o *Op) DropN(n int) bool {
	if n <= 0 {
		return false
	}
	if n > o.remaining {
		panic(fmt.Sprintf("flit: op %d dropping %d destinations with %d remaining", o.ID, n, o.remaining))
	}
	o.remaining -= n
	o.Dropped += n
	return o.remaining == 0
}

// DropCost returns the number of op destinations lost when worm w abandons
// coverage of the dropped processor set: the dropped destinations themselves
// plus, for a software-multicast message, the forwarding subtree its
// receiver would have continued.
func DropCost(w *Worm, dropped bitset.Set) int {
	n := dropped.Count()
	if n == 0 {
		return 0
	}
	m := w.Msg
	if m.Forward != nil && len(m.Dests) > 0 && dropped.Has(m.Dests[0]) {
		n += len(m.Forward.Subtree())
	}
	return n
}

// LastLatency returns the last-arrival latency of a completed op.
func (o *Op) LastLatency() int64 { return o.LastArrival - o.Created }

// MeanLatency returns the mean per-destination latency of a completed op.
func (o *Op) MeanLatency() float64 {
	if o.NumDests == 0 {
		return 0
	}
	return float64(o.SumArrival)/float64(o.NumDests) - float64(o.Created)
}

// Worm is one hop-by-hop instance of a message. A multidestination worm that
// replicates inside a switch forks into child worms, each carrying the
// destination subset reachable through its branch. All worms of a message
// share the same flit count.
type Worm struct {
	ID  uint64
	Msg *Message
	// Dests is the set of destinations this branch must still cover. The
	// set is immutable once a worm carries it: a child worm whose branch
	// covers its parent's whole set shares the parent's set rather than a
	// copy, so mutating it would change every worm that shares it.
	Dests bitset.Set
	// Hops counts switch traversals of this branch (root worm inherits 0).
	Hops int

	// cachedLen memoizes Msg.Len()+1 (0 = not yet computed): Len sits on
	// the per-flit hot path of every switch model, and reading it from the
	// worm itself spares the Message pointer chase.
	cachedLen int32
	// GoingUp records the BMIN routing phase: true while the worm is
	// ascending toward the least-common-ancestor stage. Once a worm turns
	// downward it never ascends again (up*/down* conformance). It sits last
	// so that it packs beside cachedLen: the struct is 64 bytes on 64-bit
	// platforms, and WormArena sizes its chunks by that.
	GoingUp bool
}

// Len returns the total flit count of the worm, header included.
func (w *Worm) Len() int {
	if w.cachedLen == 0 {
		w.cachedLen = int32(w.Msg.Len()) + 1
	}
	return int(w.cachedLen) - 1
}

// HeaderFlits returns the number of leading flits that carry routing
// information.
func (w *Worm) HeaderFlits() int { return w.Msg.HeaderFlits }

// Ref identifies one flit of one worm as it sits in a link slot or buffer.
type Ref struct {
	W   *Worm
	Idx int
}

// Head reports whether this is the first flit of the worm.
func (r Ref) Head() bool { return r.Idx == 0 }

// Tail reports whether this is the last flit of the worm.
func (r Ref) Tail() bool { return r.Idx == r.W.Len()-1 }

// String renders a flit reference for traces and test failures.
func (r Ref) String() string {
	kind := "d"
	if r.Idx < r.W.HeaderFlits() {
		kind = "h"
	}
	if r.Tail() {
		kind = "t"
	}
	return fmt.Sprintf("w%d[%s%d/%d]", r.W.ID, kind, r.Idx, r.W.Len())
}
