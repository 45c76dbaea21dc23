package collective

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"mdworm/internal/engine"
	"mdworm/internal/flit"
)

// send and binomialSendsRef are the slice-based plan that ForwardPlan's
// rank ranges replaced, kept as the reference: the holder of the message is
// group[0], group[1:] the destinations it must cover, and each recipient
// applies the plan to [recipient, subtree...].
type send struct {
	To      int
	Subtree []int
}

func binomialSendsRef(group []int) []send {
	g := len(group)
	if g <= 1 {
		return nil
	}
	phases := BinomialPhases(g - 1)
	sends := make([]send, 0, phases)
	for k := 1 << (phases - 1); k >= 1; k >>= 1 {
		_, end := binomial(k, g)
		sends = append(sends, send{To: group[k], Subtree: group[k+1 : end]})
	}
	return sends
}

// hop is one send of a whole distribution tree, in the order a depth-first
// walk of the tree meets it.
type hop struct {
	From, To int
	Subtree  []int
}

// TestForwardPlanMatchesSliceSends checks, for random groups of up to 64
// members, that the range plan sends to the same recipients, hands them the
// same subtrees and orders the sends the same way as the slice-based plan.
func TestForwardPlanMatchesSliceSends(t *testing.T) {
	rng := engine.NewRNG(21)
	fac := &fakeFactory{}
	for trial := 0; trial < 500; trial++ {
		members := rng.Sample(nil, 128, rng.Intn(64)+1, 0, new([]int))
		src, dests := members[0], members[1:]
		sorted := append([]int(nil), dests...)
		sort.Ints(sorted)

		var want []hop
		var walkRef func(group []int)
		walkRef = func(group []int) {
			for _, s := range binomialSendsRef(group) {
				want = append(want, hop{From: group[0], To: s.To, Subtree: append([]int{}, s.Subtree...)})
				walkRef(append([]int{s.To}, s.Subtree...))
			}
		}
		walkRef(append([]int{src}, sorted...))

		var got []hop
		var walk func(fwd flit.ForwardStep)
		walk = func(fwd flit.ForwardStep) {
			for _, m := range ForwardPlan(nil, fac, fwd, 1, nil, 0) {
				h := hop{From: m.Src, To: m.Dests[0], Subtree: []int{}}
				if m.Forward != nil {
					h.Subtree = append(h.Subtree, m.Forward.Subtree()...)
				}
				got = append(got, h)
				if m.Forward != nil {
					walk(*m.Forward)
				}
			}
		}
		op := flit.NewOp(1, flit.ClassMulticast, src, len(dests), 0)
		group := op.SetGroup(dests, true)
		walk(flit.ForwardStep{Group: group, Hi: len(group)})

		if !reflect.DeepEqual(got, want) {
			t.Fatalf("src %d dests %v:\nrange plan %v\nslice plan %v", src, dests, got, want)
		}
	}
}

// preallocFactory hands out messages from storage made before the
// measurement, so allocation counts see only the planner's own.
type preallocFactory struct {
	msgs []flit.Message
	next int
}

func (f *preallocFactory) NewMessage(src int, dests []int, class flit.Class, payload int,
	op *flit.Op, now int64) *flit.Message {
	m := &f.msgs[f.next]
	f.next++
	m.ID, m.Src, m.Dests, m.Class = uint64(f.next), src, dests, class
	m.PayloadFlits, m.HeaderFlits, m.Created, m.Op = payload, 1, now, op
	return m
}

// rootStep returns a root forwarding step from node 0 to nodes 1..dests.
func rootStep(dests int) flit.ForwardStep {
	group := make([]int, dests+1)
	for i := range group {
		group[i] = i
	}
	return flit.ForwardStep{Group: group, Hi: len(group)}
}

// TestForwardPlanAllocations checks that planning a root's sends allocates
// nothing beyond the messages the factory hands out.
func TestForwardPlanAllocations(t *testing.T) {
	for _, dests := range []int{8, 63} {
		fwd := rootStep(dests)
		fac := &preallocFactory{msgs: make([]flit.Message, 8)}
		out := make([]*flit.Message, 0, 8)
		allocs := testing.AllocsPerRun(100, func() {
			fac.next = 0
			out = ForwardPlan(out[:0], fac, fwd, 64, nil, 0)
		})
		if allocs != 0 || len(out) != BinomialPhases(dests) {
			t.Fatalf("%d destinations: %v allocations for %d sends, want 0 for %d",
				dests, allocs, len(out), BinomialPhases(dests))
		}
	}
}

// BenchmarkForwardPlan times a root's software-multicast plan over 8 and 63
// destinations, the e1 degree and a full 64-node broadcast.
func BenchmarkForwardPlan(b *testing.B) {
	for _, dests := range []int{8, 63} {
		b.Run(fmt.Sprintf("dests=%d", dests), func(b *testing.B) {
			fwd := rootStep(dests)
			fac := &preallocFactory{msgs: make([]flit.Message, 8)}
			out := make([]*flit.Message, 0, 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fac.next = 0
				out = ForwardPlan(out[:0], fac, fwd, 64, nil, 0)
			}
		})
	}
}
