package collective

import (
	"sort"
	"testing"
	"testing/quick"

	"mdworm/internal/engine"
	"mdworm/internal/flit"
	"mdworm/internal/topology"
)

type fakeFactory struct{ n uint64 }

func (f *fakeFactory) NewMessage(src int, dests []int, class flit.Class, payload int,
	op *flit.Op, now int64) *flit.Message {
	f.n++
	return &flit.Message{
		ID: f.n, Src: src, Dests: dests, Class: class,
		PayloadFlits: payload, HeaderFlits: 1, Created: now, Op: op,
	}
}

func TestBinomialPhases(t *testing.T) {
	cases := map[int]int{0: 0, 1: 1, 2: 2, 3: 2, 4: 3, 7: 3, 8: 4, 15: 4, 63: 6}
	for d, want := range cases {
		if got := BinomialPhases(d); got != want {
			t.Errorf("BinomialPhases(%d) = %d, want %d", d, got, want)
		}
	}
}

func TestBinomialSendsSmall(t *testing.T) {
	// group = holder + 3: holder sends to ranks 2 then 1.
	group := []int{10, 11, 12, 13}
	sends := ForwardPlan(nil, &fakeFactory{}, flit.ForwardStep{Group: group, Hi: 4}, 1, nil, 0)
	if len(sends) != 2 {
		t.Fatalf("sends = %v", sends)
	}
	if f := sends[0].Forward; sends[0].Dests[0] != 12 || f == nil || f.Lo != 2 || f.Hi != 4 ||
		len(f.Subtree()) != 1 || f.Subtree()[0] != 13 {
		t.Fatalf("first send wrong: %+v", sends[0])
	}
	if sends[1].Dests[0] != 11 || sends[1].Forward != nil {
		t.Fatalf("second send wrong: %+v", sends[1])
	}
	if ForwardPlan(nil, &fakeFactory{}, flit.ForwardStep{Group: []int{5}, Hi: 1}, 1, nil, 0) != nil {
		t.Fatal("lone holder has sends")
	}
}

// TestBinomialTreeStructure: rank 0 is the root, a parent clears the
// child's lowest set bit, and every non-root rank is exactly once its
// parent's child.
func TestBinomialTreeStructure(t *testing.T) {
	for r, want := range map[int]int{1: 0, 6: 4, 12: 8} {
		if par, _ := binomial(r, 64); par != want {
			t.Fatalf("parent of %d = %d, want %d", r, par, want)
		}
	}
	for _, n := range []int{2, 7, 16, 64} {
		seen := map[int]bool{}
		for r := 0; r < n; r++ {
			_, end := binomial(r, n)
			for k := 1; r+k < end; k <<= 1 {
				c := r + k
				if seen[c] {
					t.Fatalf("n=%d: child %d duplicated", n, c)
				}
				if par, _ := binomial(c, n); par != r {
					t.Fatalf("n=%d: child %d of %d has parent %d", n, c, r, par)
				}
				seen[c] = true
			}
		}
		if len(seen) != n-1 {
			t.Fatalf("n=%d: tree covers %d of %d non-roots", n, len(seen), n-1)
		}
	}
}

// Property: the recursive binomial tree covers every destination exactly
// once and completes in ceil(log2(d+1)) phases, for any degree.
func TestBinomialTreeQuick(t *testing.T) {
	f := func(dSeed uint8) bool {
		d := int(dSeed)%100 + 1
		dests := make([]int, d)
		for i := range dests {
			dests[i] = i + 1
		}
		phase, err := ValidateTree(0, dests)
		if err != nil {
			return false
		}
		maxPhase := 0
		for _, p := range phase {
			if p > maxPhase {
				maxPhase = p
			}
		}
		return maxPhase == BinomialPhases(d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestSchemeProperties(t *testing.T) {
	if !HardwareBitString.Hardware() || !HardwareMultiport.Hardware() {
		t.Fatal("hardware schemes not hardware")
	}
	if SoftwareBinomial.Hardware() || SoftwareSeparate.Hardware() {
		t.Fatal("software schemes hardware")
	}
	if HardwareBitString.Encoding() != flit.EncBitString ||
		HardwareMultiport.Encoding() != flit.EncMultiport ||
		SoftwareBinomial.Encoding() != flit.EncUnicast {
		t.Fatal("encodings wrong")
	}
	for _, s := range []Scheme{HardwareBitString, HardwareMultiport, SoftwareBinomial, SoftwareSeparate} {
		if s.String() == "" {
			t.Fatal("empty scheme name")
		}
	}
}

func planEnv(t *testing.T) (*topology.Network, *fakeFactory) {
	t.Helper()
	net, err := topology.NewKaryTree(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	return net, &fakeFactory{}
}

func TestPlanHardwareBitString(t *testing.T) {
	net, fac := planEnv(t)
	op := flit.NewOp(1, flit.ClassMulticast, 0, 3, 0)
	msgs, err := Plan(nil, HardwareBitString, net, fac, 0, []int{1, 9, 33}, 64, op, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 1 || op.Phases != 1 {
		t.Fatalf("msgs=%d phases=%d", len(msgs), op.Phases)
	}
	if msgs[0].Class != flit.ClassMulticast || len(msgs[0].Dests) != 3 {
		t.Fatalf("message wrong: %+v", msgs[0])
	}
}

func TestPlanHardwareMultiport(t *testing.T) {
	net, fac := planEnv(t)
	op := flit.NewOp(1, flit.ClassMulticast, 0, 4, 0)
	msgs, err := Plan(nil, HardwareMultiport, net, fac, 0, []int{16, 17, 18, 19}, 64, op, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 1 {
		t.Fatalf("full-switch product set needed %d worms", len(msgs))
	}
	// Scattered set needs several worms; union must be exact.
	op2 := flit.NewOp(2, flit.ClassMulticast, 0, 3, 0)
	msgs2, err := Plan(nil, HardwareMultiport, net, fac, 0, []int{1, 21, 42}, 64, op2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if op2.Phases != len(msgs2) {
		t.Fatalf("phases %d != worms %d", op2.Phases, len(msgs2))
	}
	var all []int
	for _, m := range msgs2 {
		all = append(all, m.Dests...)
	}
	sort.Ints(all)
	if len(all) != 3 || all[0] != 1 || all[1] != 21 || all[2] != 42 {
		t.Fatalf("cover union = %v", all)
	}
}

func TestPlanSoftwareBinomial(t *testing.T) {
	net, fac := planEnv(t)
	dests := []int{5, 3, 60, 22, 41, 17, 8}
	op := flit.NewOp(1, flit.ClassMulticast, 0, len(dests), 0)
	msgs, err := Plan(nil, SoftwareBinomial, net, fac, 0, dests, 64, op, 0)
	if err != nil {
		t.Fatal(err)
	}
	if op.Phases != 3 {
		t.Fatalf("phases = %d, want 3", op.Phases)
	}
	// The root's sends plus the forward steps must cover every destination
	// exactly once.
	covered := map[int]bool{}
	var walk func(to int, fwd *flit.ForwardStep)
	walk = func(to int, fwd *flit.ForwardStep) {
		if covered[to] {
			t.Fatalf("destination %d covered twice", to)
		}
		covered[to] = true
		if fwd == nil {
			return
		}
		if fwd.Group[fwd.Lo] != to {
			t.Fatalf("step names holder %d, delivered to %d", fwd.Group[fwd.Lo], to)
		}
		for _, m := range ForwardPlan(nil, fac, *fwd, 64, op, 0) {
			if m.Class != flit.ClassUnicast || len(m.Dests) != 1 {
				t.Fatal("forward plan produced non-unicast")
			}
			walk(m.Dests[0], m.Forward)
		}
	}
	for _, m := range msgs {
		if m.Class != flit.ClassUnicast || len(m.Dests) != 1 {
			t.Fatal("root plan produced non-unicast")
		}
		walk(m.Dests[0], m.Forward)
	}
	if len(covered) != len(dests) {
		t.Fatalf("covered %d of %d", len(covered), len(dests))
	}
	for _, d := range dests {
		if !covered[d] {
			t.Fatalf("destination %d missed", d)
		}
	}
}

func TestPlanSoftwareSeparate(t *testing.T) {
	net, fac := planEnv(t)
	dests := []int{5, 9, 40}
	op := flit.NewOp(1, flit.ClassMulticast, 0, len(dests), 0)
	msgs, err := Plan(nil, SoftwareSeparate, net, fac, 0, dests, 64, op, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 3 || op.Phases != 3 {
		t.Fatalf("msgs=%d phases=%d", len(msgs), op.Phases)
	}
	for i, m := range msgs {
		if m.Dests[0] != dests[i] || m.Forward != nil {
			t.Fatalf("message %d wrong: %+v", i, m)
		}
	}
}

func TestPlanErrors(t *testing.T) {
	net, fac := planEnv(t)
	op := flit.NewOp(1, flit.ClassMulticast, 0, 1, 0)
	if _, err := Plan(nil, HardwareBitString, net, fac, 0, nil, 64, op, 0); err == nil {
		t.Error("empty dests accepted")
	}
	if _, err := Plan(nil, HardwareBitString, net, fac, 0, []int{0}, 64, op, 0); err == nil {
		t.Error("source in dests accepted")
	}
	if _, err := Plan(nil, HardwareBitString, net, fac, 0, []int{99}, 64, op, 0); err == nil {
		t.Error("out-of-range dest accepted")
	}
	if _, err := Plan(nil, Scheme(200), net, fac, 0, []int{1}, 64, op, 0); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestValidateTreeRandomSets(t *testing.T) {
	rng := engine.NewRNG(4)
	for trial := 0; trial < 200; trial++ {
		d := rng.Intn(63) + 1
		dests := rng.Sample(64, d, 0, new([]int))
		if _, err := ValidateTree(0, dests); err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
	}
}
