// Package collective plans multicast operations: it turns (source,
// destination set) into the set of messages each scheme injects — a single
// multidestination worm for hardware bit-string multicast, one worm per
// product set for hardware multiport multicast, a binomial distribution tree
// of unicasts for the software U-MIN scheme of Xu/Gui/Ni, or one unicast per
// destination for separate addressing.
package collective

import (
	"fmt"
	"math/bits"
	"sort"

	"mdworm/internal/flit"
	"mdworm/internal/routing"
	"mdworm/internal/topology"
)

// Scheme selects how a multicast is realized.
type Scheme uint8

const (
	// HardwareBitString sends one multidestination worm with an N-bit
	// bit-string header covering the whole destination set in one phase.
	HardwareBitString Scheme = iota
	// HardwareMultiport sends one multidestination worm per multiport
	// product set covering the destination set.
	HardwareMultiport
	// SoftwareBinomial is the U-MIN binomial-tree software multicast:
	// unicast messages only, ceil(log2(d+1)) phases, destinations sorted
	// for the contention-free ordering.
	SoftwareBinomial
	// SoftwareSeparate sends one unicast per destination from the source.
	SoftwareSeparate
)

// String names the scheme.
func (s Scheme) String() string {
	switch s {
	case HardwareBitString:
		return "hw-bitstring"
	case HardwareMultiport:
		return "hw-multiport"
	case SoftwareBinomial:
		return "sw-binomial"
	case SoftwareSeparate:
		return "sw-separate"
	default:
		return fmt.Sprintf("scheme(%d)", uint8(s))
	}
}

// Hardware reports whether the scheme uses multidestination worms.
func (s Scheme) Hardware() bool {
	return s == HardwareBitString || s == HardwareMultiport
}

// Encoding returns the header encoding the scheme puts on the wire.
func (s Scheme) Encoding() flit.Encoding {
	switch s {
	case HardwareBitString:
		return flit.EncBitString
	case HardwareMultiport:
		return flit.EncMultiport
	default:
		return flit.EncUnicast
	}
}

// binomial defines the binomial tree over ranks [0, p) rooted at rank 0 that
// every tree-shaped plan in this package uses: the software multicast's
// distribution tree (ForwardPlan, ValidateTree) and the combine and split
// trees of collective schedules. It returns rank r's parent, r with its
// lowest set bit cleared, and the end of r's subtree, the contiguous rank
// range [r, end). r's children are r+k for every power of two k with
// r+k < end. The root is its own parent.
func binomial(r, p int) (parent, end int) {
	if r == 0 {
		return 0, p
	}
	low := r & -r
	return r - low, min(r+low, p)
}

// firstSend returns the rank offset of the first send of a holder whose
// range spans g ranks, itself included: the largest power of two below g,
// or 0 when the holder has nothing to send. Each later send halves it, so
// the farthest subtree goes first and phases overlap.
func firstSend(g int) int {
	if g <= 1 {
		return 0
	}
	return 1 << (bits.Len(uint(g-1)) - 1)
}

// BinomialPhases returns the phase count of a binomial multicast to d
// destinations: ceil(log2(d+1)).
func BinomialPhases(d int) int {
	if d <= 0 {
		return 0
	}
	return bits.Len(uint(d))
}

// MessageFactory constructs messages (the simulator core implements it,
// filling in header sizes and identifiers). A planner gives the message it
// gets back its forwarding step (flit.Message.SetForward).
type MessageFactory interface {
	NewMessage(src int, dests []int, class flit.Class, payload int,
		op *flit.Op, now int64) *flit.Message
}

// Plan appends to msgs the messages the source must inject, in order, to
// start the multicast described by op under the given scheme, and returns
// the extended slice; like ForwardPlan it allocates only what f and growing
// msgs do. For SoftwareBinomial the messages carry ForwardSteps that
// receivers use to continue the tree. dests must be non-empty and exclude
// src. Plan also sets op.Phases and, except for multiport covers, the op's
// group (flit.Op.SetGroup), of which each message's destinations are a
// sub-slice.
func Plan(msgs []*flit.Message, scheme Scheme, net *topology.Network, f MessageFactory,
	src int, dests []int, payload int, op *flit.Op, now int64) ([]*flit.Message, error) {

	if len(dests) == 0 {
		return msgs, fmt.Errorf("collective: empty destination set")
	}
	for _, d := range dests {
		if d == src {
			return msgs, fmt.Errorf("collective: source %d in destination set", src)
		}
		if d < 0 || d >= net.N {
			return msgs, fmt.Errorf("collective: destination %d out of range", d)
		}
	}

	switch scheme {
	case HardwareBitString:
		op.Phases = 1
		group := op.SetGroup(dests, false)
		return append(msgs, f.NewMessage(src, group[1:], flit.ClassMulticast, payload, op, now)), nil

	case HardwareMultiport:
		cover, err := routing.MultiportCover(net, src, dests)
		if err != nil {
			return msgs, err
		}
		op.Phases = len(cover)
		for _, ps := range cover {
			msgs = append(msgs, f.NewMessage(src, ps.Dests(net.Arity), flit.ClassMulticast, payload, op, now))
		}
		return msgs, nil

	case SoftwareBinomial:
		group := op.SetGroup(dests, true)
		op.Phases = BinomialPhases(len(dests))
		return ForwardPlan(msgs, f, flit.ForwardStep{Group: group, Hi: len(group)}, payload, op, now), nil

	case SoftwareSeparate:
		op.Phases = len(dests)
		group := op.SetGroup(dests, false)
		for i := range dests {
			msgs = append(msgs, f.NewMessage(src, group[i+1:i+2:i+2], flit.ClassUnicast, payload, op, now))
		}
		return msgs, nil

	default:
		return msgs, fmt.Errorf("collective: unknown scheme %d", scheme)
	}
}

// ForwardPlan appends to msgs the messages that the holder of fwd,
// fwd.Group[fwd.Lo], must inject to cover its subtree, in schedule order.
// Each message's Dests is its recipient's one-rank sub-slice of the group,
// and a recipient with a subtree of its own gets that subtree's rank range
// as its forwarding step, so the plan allocates nothing beyond what f and
// growing msgs do.
func ForwardPlan(msgs []*flit.Message, f MessageFactory, fwd flit.ForwardStep, payload int,
	op *flit.Op, now int64) []*flit.Message {

	self := fwd.Group[fwd.Lo]
	g := fwd.Hi - fwd.Lo
	for k := firstSend(g); k > 0; k >>= 1 {
		_, end := binomial(k, g)
		to := fwd.Lo + k
		m := f.NewMessage(self, fwd.Group[to:to+1:to+1], flit.ClassUnicast, payload, op, now)
		m.SetForward(flit.ForwardStep{Group: fwd.Group, Lo: to, Hi: fwd.Lo + end})
		msgs = append(msgs, m)
	}
	return msgs
}

// ValidateTree checks that a binomial plan rooted at src covers every
// destination exactly once, returning the per-node receive phase. It walks
// the same rank ranges ForwardPlan sends over. It is used by tests and by
// the topology inspection tool.
func ValidateTree(src int, dests []int) (map[int]int, error) {
	group := append([]int{src}, dests...)
	sort.Ints(group[1:])
	phase := map[int]int{}
	type item struct {
		lo, hi int // the holder's rank range in group
		at     int // phase at which the holder acquired the message
	}
	work := []item{{lo: 0, hi: len(group), at: 0}}
	for len(work) > 0 {
		it := work[0]
		work = work[1:]
		recvPhase := it.at
		g := it.hi - it.lo
		for k := firstSend(g); k > 0; k >>= 1 {
			_, end := binomial(k, g)
			recvPhase++ // the holder's sends are serialized
			to := group[it.lo+k]
			if _, dup := phase[to]; dup {
				return nil, fmt.Errorf("collective: node %d covered twice", to)
			}
			phase[to] = recvPhase
			work = append(work, item{lo: it.lo + k, hi: it.lo + end, at: recvPhase})
		}
	}
	if len(phase) != len(dests) {
		return nil, fmt.Errorf("collective: covered %d of %d destinations", len(phase), len(dests))
	}
	for _, d := range dests {
		if _, ok := phase[d]; !ok {
			return nil, fmt.Errorf("collective: destination %d not covered", d)
		}
	}
	return phase, nil
}
