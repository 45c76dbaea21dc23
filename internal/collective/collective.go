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

// Send is one transmission of a binomial distribution tree: the recipient
// and the subtree of further destinations it becomes responsible for.
type Send struct {
	To      int
	Subtree []int
}

// binomial defines the binomial tree over ranks [0, p) rooted at rank 0 that
// every tree-shaped plan in this package uses: the software multicast's
// distribution tree (BinomialSends, ValidateTree) and the combine and split
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

// BinomialSends computes the sends the holder of the message must perform
// for the group, where group[0] is the holder and group[1:] the
// destinations it must cover, in schedule order (farthest subtree first, so
// phases overlap). Each recipient then applies BinomialSends to
// [recipient, subtree...].
func BinomialSends(group []int) []Send {
	g := len(group)
	if g <= 1 {
		return nil
	}
	phases := BinomialPhases(g - 1)
	sends := make([]Send, 0, phases)
	for k := 1 << (phases - 1); k >= 1; k >>= 1 {
		_, end := binomial(k, g)
		sends = append(sends, Send{To: group[k], Subtree: group[k+1 : end]})
	}
	return sends
}

// BinomialPhases returns the phase count of a binomial multicast to d
// destinations: ceil(log2(d+1)).
func BinomialPhases(d int) int {
	if d <= 0 {
		return 0
	}
	return bits.Len(uint(d))
}

// MessageFactory constructs fully-formed messages (the simulator core
// implements it, filling in header sizes and identifiers).
type MessageFactory interface {
	NewMessage(src int, dests []int, class flit.Class, payload int,
		op *flit.Op, fwd *flit.ForwardStep, now int64) *flit.Message
}

// Plan returns the messages the source must inject, in order, to start the
// multicast described by op under the given scheme. For SoftwareBinomial the
// messages carry ForwardSteps that receivers use to continue the tree.
// dests must be non-empty and exclude src. Plan also sets op.Phases.
func Plan(scheme Scheme, net *topology.Network, f MessageFactory,
	src int, dests []int, payload int, op *flit.Op, now int64) ([]*flit.Message, error) {

	if len(dests) == 0 {
		return nil, fmt.Errorf("collective: empty destination set")
	}
	for _, d := range dests {
		if d == src {
			return nil, fmt.Errorf("collective: source %d in destination set", src)
		}
		if d < 0 || d >= net.N {
			return nil, fmt.Errorf("collective: destination %d out of range", d)
		}
	}

	switch scheme {
	case HardwareBitString:
		op.Phases = 1
		m := f.NewMessage(src, append([]int(nil), dests...), flit.ClassMulticast, payload, op, nil, now)
		return []*flit.Message{m}, nil

	case HardwareMultiport:
		cover, err := routing.MultiportCover(net, src, dests)
		if err != nil {
			return nil, err
		}
		op.Phases = len(cover)
		msgs := make([]*flit.Message, len(cover))
		for i, ps := range cover {
			msgs[i] = f.NewMessage(src, ps.Dests(net.Arity), flit.ClassMulticast, payload, op, nil, now)
		}
		return msgs, nil

	case SoftwareBinomial:
		sorted := append([]int(nil), dests...)
		sort.Ints(sorted)
		op.Phases = BinomialPhases(len(dests))
		return ForwardPlan(f, src, sorted, payload, op, now), nil

	case SoftwareSeparate:
		op.Phases = len(dests)
		msgs := make([]*flit.Message, len(dests))
		for i, d := range dests {
			msgs[i] = f.NewMessage(src, []int{d}, flit.ClassUnicast, payload, op, nil, now)
		}
		return msgs, nil

	default:
		return nil, fmt.Errorf("collective: unknown scheme %d", scheme)
	}
}

// ForwardPlan returns the messages a software-multicast recipient at node
// self must inject to cover its subtree.
func ForwardPlan(f MessageFactory, self int, subtree []int, payload int,
	op *flit.Op, now int64) []*flit.Message {

	group := append([]int{self}, subtree...)
	sends := BinomialSends(group)
	msgs := make([]*flit.Message, len(sends))
	for i, snd := range sends {
		var fwd *flit.ForwardStep
		if len(snd.Subtree) > 0 {
			fwd = &flit.ForwardStep{Subtree: append([]int(nil), snd.Subtree...)}
		}
		msgs[i] = f.NewMessage(self, []int{snd.To}, flit.ClassUnicast, payload, op, fwd, now)
	}
	return msgs
}

// ValidateTree checks that a binomial plan rooted at src covers every
// destination exactly once, returning the per-node receive phase. It is used
// by tests and by the topology inspection tool.
func ValidateTree(src int, dests []int) (map[int]int, error) {
	sorted := append([]int(nil), dests...)
	sort.Ints(sorted)
	phase := map[int]int{}
	type item struct {
		holder  int
		subtree []int
		at      int // phase at which holder acquired the message
	}
	work := []item{{holder: src, subtree: sorted, at: 0}}
	for len(work) > 0 {
		it := work[0]
		work = work[1:]
		sends := BinomialSends(append([]int{it.holder}, it.subtree...))
		for i, snd := range sends {
			recvPhase := it.at + i + 1 // the holder's sends are serialized
			if _, dup := phase[snd.To]; dup {
				return nil, fmt.Errorf("collective: node %d covered twice", snd.To)
			}
			phase[snd.To] = recvPhase
			work = append(work, item{holder: snd.To, subtree: snd.Subtree, at: recvPhase})
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
