package collective

import (
	"reflect"
	"testing"
)

func TestKindRoundTrip(t *testing.T) {
	for k := Kind(0); k < kindCount; k++ {
		got, err := ParseKind(k.String())
		if err != nil {
			t.Fatalf("ParseKind(%q): %v", k.String(), err)
		}
		if got != k {
			t.Fatalf("ParseKind(%q) = %v, want %v", k.String(), got, k)
		}
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Fatal("ParseKind accepted garbage")
	}
}

func TestSpecNormalizeRejects(t *testing.T) {
	cases := []Spec{
		{Kind: kindCount, Reps: 1},
		{Root: 5, Participants: 4, Reps: 1},
		{Participants: 1, Reps: 1},
		{Participants: 99, Reps: 1},
		{PayloadFlits: -1, Reps: 1},
		{SkewCycles: -1, Reps: 1},
	}
	for i, sp := range cases {
		if sp.Reps == 0 {
			sp.Reps = 1
		}
		if err := sp.Normalize(16); err == nil {
			t.Errorf("case %d: Normalize accepted %+v", i, sp)
		}
	}
	var off Spec
	if err := off.Normalize(16); err != nil {
		t.Fatalf("disabled spec rejected: %v", err)
	}
}

// sends/receives count per node over the whole schedule.
func flows(s Schedule) (sends, recvs map[int]int) {
	sends, recvs = map[int]int{}, map[int]int{}
	for _, st := range s.Steps {
		sends[st.Src]++
		for _, d := range st.Dests {
			recvs[d]++
		}
	}
	return
}

func TestBuildScheduleShapes(t *testing.T) {
	sizes := []int{2, 3, 5, 8, 13, 16}
	for k := Kind(0); k < kindCount; k++ {
		for _, p := range sizes {
			for _, root := range []int{0, p - 1, p / 2} {
				for _, hw := range []bool{false, true} {
					sp := Spec{Kind: k, Root: root, Participants: p, PayloadFlits: 3, Reps: 1}
					s, err := BuildSchedule(sp, p, hw)
					if err != nil {
						t.Fatalf("%v p=%d root=%d hw=%v: %v", k, p, root, hw, err)
					}
					if err := s.Validate(p); err != nil {
						t.Fatalf("%v p=%d root=%d hw=%v: invalid: %v", k, p, root, hw, err)
					}
					sends, recvs := flows(s)
					switch k {
					case Barrier, AllReduce, AllReduceGather:
						// Every non-root sends its contribution exactly
						// once and everyone hears the release/result.
						for node := 0; node < p; node++ {
							if node == root {
								continue
							}
							if sends[node] != 1 {
								t.Fatalf("%v p=%d root=%d: node %d sends %d times", k, p, root, node, sends[node])
							}
						}
						last := s.Steps[len(s.Steps)-1]
						if last.Src != root || !last.Multicast || len(last.Dests) != p-1 {
							t.Fatalf("%v p=%d root=%d: bad release step %+v", k, p, root, last)
						}
					case Broadcast, Multicast, CombiningBarrier:
						if len(s.Steps) != 1 || s.Phases != 1 || len(s.Steps[0].Dests) != p-1 {
							t.Fatalf("%v p=%d: %+v", k, p, s)
						}
					case Scatter:
						for node := 0; node < p; node++ {
							if node == root {
								continue
							}
							if recvs[node] != 1 {
								t.Fatalf("scatter p=%d root=%d hw=%v: node %d receives %d times", p, root, hw, node, recvs[node])
							}
						}
						if hw && (len(s.Steps) != p-1 || s.Phases != 1) {
							t.Fatalf("hw scatter p=%d: want %d phase-1 steps, got %+v", p, p-1, s)
						}
					case Gather:
						for node := 0; node < p; node++ {
							if node == root {
								continue
							}
							if sends[node] != 1 {
								t.Fatalf("gather p=%d root=%d hw=%v: node %d sends %d times", p, root, hw, node, sends[node])
							}
						}
						if hw && (len(s.Steps) != p-1 || s.Phases != 1) {
							t.Fatalf("hw gather p=%d: want %d phase-1 steps, got %+v", p, p-1, s)
						}
					}
				}
			}
		}
	}
}

func TestScatterGatherPayloadConservation(t *testing.T) {
	// Software splitting/combining must move exactly one personalized
	// payload per non-root endpoint: the sum of per-step payloads weighted
	// by nothing (each element travels each tree edge once per subtree
	// member) is pay * sum(subtree sizes), and each non-root's own receive
	// carries pay * its subtree size.
	const pay = 4
	for _, p := range []int{2, 5, 8, 16} {
		// Subtree sizes from the parent relation alone: each rank adds
		// its finished subtree to its parent's.
		size := make([]int, p)
		for r := p - 1; r >= 1; r-- {
			size[r]++
			par, _ := binomial(r, p)
			size[par] += size[r]
		}
		for _, k := range []Kind{Scatter, Gather} {
			s, err := BuildSchedule(Spec{Kind: k, Participants: p, PayloadFlits: pay, Reps: 1}, p, false)
			if err != nil {
				t.Fatal(err)
			}
			want := 0
			for r := 1; r < p; r++ {
				want += pay * size[r]
			}
			got := 0
			for _, st := range s.Steps {
				got += st.Payload
			}
			if got != want {
				t.Fatalf("%v p=%d: total payload %d, want %d", k, p, got, want)
			}
		}
	}
}

func TestBuildScheduleDeterministic(t *testing.T) {
	for k := Kind(0); k < kindCount; k++ {
		sp := Spec{Kind: k, Root: 3, Participants: 13, PayloadFlits: 2, Reps: 5}
		a, err := BuildSchedule(sp, 16, true)
		if err != nil {
			t.Fatal(err)
		}
		b, err := BuildSchedule(sp, 16, true)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%v: schedules differ between builds", k)
		}
	}
}

func TestBuildScheduleDoesNotMutateSpec(t *testing.T) {
	sp := Spec{Kind: Gather, Reps: 2}
	if _, err := BuildSchedule(sp, 8, false); err != nil {
		t.Fatal(err)
	}
	if sp.Participants != 0 || sp.PayloadFlits != 0 {
		t.Fatalf("BuildSchedule mutated caller's spec: %+v", sp)
	}
}

// FuzzBuildSchedule asserts the builder never panics and that every schedule
// it accepts is structurally valid for the topology it was built against.
func FuzzBuildSchedule(f *testing.F) {
	f.Add(uint8(0), 0, 0, 1, 8, true)
	f.Add(uint8(2), 3, 13, 7, 16, false)
	f.Add(uint8(5), 15, 16, 64, 16, true)
	f.Add(uint8(4), 1, 2, 1, 64, false)
	f.Fuzz(func(t *testing.T, kind uint8, root, participants, payload, n int, hw bool) {
		if n < 2 || n > 256 {
			return
		}
		sp := Spec{
			Kind: Kind(kind), Root: root, Participants: participants,
			PayloadFlits: payload, Reps: 1,
		}
		s, err := BuildSchedule(sp, n, hw)
		if err != nil {
			return
		}
		if err := s.Validate(n); err != nil {
			t.Fatalf("built schedule fails validation: %v\nspec=%+v hw=%v", err, sp, hw)
		}
	})
}
