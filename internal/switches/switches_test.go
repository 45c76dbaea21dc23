package switches

import (
	"testing"
	"testing/quick"

	"mdworm/internal/bitset"
	"mdworm/internal/engine"
	"mdworm/internal/flit"
	"mdworm/internal/routing"
	"mdworm/internal/topology"
)

func mkWorm(id uint64, n, header, payload int, dests []int) *flit.Worm {
	msg := &flit.Message{ID: id, HeaderFlits: header, PayloadFlits: payload}
	return &flit.Worm{ID: id, Msg: msg, Dests: bitset.FromSlice(n, dests)}
}

func TestFIFOBasics(t *testing.T) {
	var f FIFO
	if !f.Empty() || f.Len() != 0 || f.HeadWorm() != nil {
		t.Fatal("fresh FIFO not empty")
	}
	w1 := mkWorm(1, 4, 1, 2, []int{1})
	w2 := mkWorm(2, 4, 1, 1, []int{2})
	for i := 0; i < w1.Len(); i++ {
		f.Push(flit.Ref{W: w1, Idx: i})
	}
	for i := 0; i < w2.Len(); i++ {
		f.Push(flit.Ref{W: w2, Idx: i})
	}
	if f.Len() != w1.Len()+w2.Len() {
		t.Fatalf("len = %d", f.Len())
	}
	if f.HeadWorm() != w1 || f.HeadAvail() != w1.Len() || f.HeadIdx() != 0 {
		t.Fatal("head bookkeeping wrong")
	}
	for i := 0; i < w1.Len(); i++ {
		r := f.Pop()
		if r.W != w1 || r.Idx != i {
			t.Fatalf("pop %d: got %v", i, r)
		}
	}
	if f.HeadWorm() != w2 {
		t.Fatal("second worm not at head")
	}
	for i := 0; i < w2.Len(); i++ {
		f.Pop()
	}
	if !f.Empty() {
		t.Fatal("not empty after popping all")
	}
}

func TestFIFONonContiguousPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	var f FIFO
	w := mkWorm(1, 4, 1, 3, []int{1})
	f.Push(flit.Ref{W: w, Idx: 0})
	f.Push(flit.Ref{W: w, Idx: 2})
}

// Property: the segment FIFO behaves exactly like a plain slice queue for
// arbitrary interleavings of contiguous worm segments.
func TestFIFOQuickAgainstSlice(t *testing.T) {
	f := func(ops []uint8) bool {
		var fifo FIFO
		var ref []flit.Ref
		worms := []*flit.Worm{}
		wormNext := []int{}
		for _, op := range ops {
			if op%3 == 0 || len(worms) == 0 || allDone(worms, wormNext) {
				// Start a new worm.
				w := mkWorm(uint64(len(worms)+1), 8, 1, int(op%7)+1, []int{1})
				worms = append(worms, w)
				wormNext = append(wormNext, 0)
			}
			last := len(worms) - 1
			if wormNext[last] < worms[last].Len() {
				r := flit.Ref{W: worms[last], Idx: wormNext[last]}
				fifo.Push(r)
				ref = append(ref, r)
				wormNext[last]++
			}
			if op%2 == 1 && len(ref) > 0 {
				got := fifo.Pop()
				want := ref[0]
				ref = ref[1:]
				if got != want {
					return false
				}
			}
			if fifo.Len() != len(ref) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func allDone(worms []*flit.Worm, next []int) bool {
	last := len(worms) - 1
	return next[last] >= worms[last].Len()
}

func TestRoundRobinFairness(t *testing.T) {
	rr := NewRoundRobin(4)
	// All requesting: grants must rotate 0,1,2,3,0,...
	var got []int
	for i := 0; i < 8; i++ {
		got = append(got, rr.Pick(func(int) bool { return true }))
	}
	want := []int{0, 1, 2, 3, 0, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grants %v, want %v", got, want)
		}
	}
}

func TestRoundRobinSkipsNonRequesters(t *testing.T) {
	rr := NewRoundRobin(4)
	only2 := func(i int) bool { return i == 2 }
	if rr.Pick(only2) != 2 {
		t.Fatal("did not find sole requester")
	}
	if rr.Pick(func(int) bool { return false }) != -1 {
		t.Fatal("granted with no requesters")
	}
}

func TestAscending(t *testing.T) {
	net, _ := topology.NewKaryTree(4, 2)
	sw := net.SwitchAt(0, 0)
	if !Ascending(sw, 0) {
		t.Fatal("down port not ascending")
	}
	if Ascending(sw, sw.PortNum(topology.Up, 0)) {
		t.Fatal("up port ascending")
	}
}

func TestPlanBranchesForksChildren(t *testing.T) {
	net, _ := topology.NewKaryTree(4, 2)
	r := &routing.Router{Net: net, ReplicateOnUpPath: true, Policy: routing.UpHash}
	var ids engine.IDGen
	rng := engine.NewRNG(1)
	sw := net.SwitchAt(0, 0)
	w := mkWorm(100, net.N, 1, 8, []int{1, 2, 9})
	w.GoingUp = true
	ids.Next() // burn one so children get fresh ids

	plans, dropped, err := PlanBranches(nil, new(routing.Decision), r, sw, w, true, func(int) bool { return true }, nil,
		rng, &ids, new(flit.WormArena))
	if err != nil {
		t.Fatal(err)
	}
	if !dropped.Empty() {
		t.Fatalf("healthy plan dropped %v", dropped.Members())
	}
	// Dests 1,2 under this switch; 9 ascends.
	if len(plans) != 3 {
		t.Fatalf("got %d branches, want 3", len(plans))
	}
	union := bitset.New(net.N)
	upBranches := 0
	for _, p := range plans {
		c := p.Child
		if c == w {
			t.Fatal("child aliases parent")
		}
		if c.Msg != w.Msg {
			t.Fatal("child lost message")
		}
		if c.Hops != w.Hops+1 {
			t.Fatalf("child hops = %d", c.Hops)
		}
		if c.GoingUp {
			upBranches++
			if sw.Ports[p.Port].Kind != topology.Up {
				t.Fatal("ascending child on a down port")
			}
		}
		union.OrIn(c.Dests)
	}
	if upBranches != 1 {
		t.Fatalf("up branches = %d", upBranches)
	}
	if !union.Equal(w.Dests) {
		t.Fatalf("children cover %v, want %v", union, w.Dests)
	}
}

func BenchmarkFIFOPushPop(b *testing.B) {
	var f FIFO
	w := mkWorm(1, 4, 1, 1<<20, []int{1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Push(flit.Ref{W: w, Idx: i})
		if i%8 == 7 {
			for j := 0; j < 8; j++ {
				f.Pop()
			}
		}
	}
}
