package collective

import (
	"fmt"
	"sort"
	"strings"
)

// Kind selects a collective operation.
type Kind uint8

const (
	// Barrier synchronizes the participants: a combining gather of 1-flit
	// messages up a binomial tree rooted at Root, then a release broadcast.
	Barrier Kind = iota
	// Broadcast delivers Root's payload to every other participant.
	Broadcast
	// AllReduce reduces to the root over a binomial combining tree
	// (messages stay payload-sized: each hop carries a combined value),
	// then broadcasts the result.
	AllReduce
	// AllReduceGather is the combining variant: every non-root sends its
	// contribution directly toward the root as a gather worm (one phase),
	// the root combines, then broadcasts the result.
	AllReduceGather
	// Scatter delivers a personalized payload from Root to each
	// participant. Hardware mode sends one unicast per participant from
	// the root; software mode splits payload down a binomial tree
	// (intermediate messages carry their whole subtree's data).
	Scatter
	// Gather collects a personalized payload from each participant at
	// Root. Hardware mode sends one direct unicast per participant;
	// software mode combines up a binomial tree (intermediate messages
	// carry their whole subtree's data).
	Gather
	// Multicast is one multicast per rep from a source to Traffic.Degree
	// destinations, both drawn among the participants from the run's seed
	// (the idle-network single-multicast measurement).
	Multicast
	// CombiningBarrier is the in-switch combining barrier: every node's
	// single-flit token is combined by the switches themselves, and the
	// root switch broadcasts the release. It always spans every node.
	CombiningBarrier

	kindCount
)

var kindNames = [kindCount]string{
	Barrier:          "barrier",
	Broadcast:        "broadcast",
	AllReduce:        "all-reduce",
	AllReduceGather:  "all-reduce-gather",
	Scatter:          "scatter",
	Gather:           "gather",
	Multicast:        "multicast",
	CombiningBarrier: "combining-barrier",
}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ParseKind resolves a kind name as printed by String.
func ParseKind(name string) (Kind, error) {
	for k, n := range kindNames {
		if n == name {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("collective: unknown kind %q (want one of %s)",
		name, strings.Join(kindNames[:], ", "))
}

// Kinds lists every kind name, for CLI help text.
func Kinds() []string {
	return append([]string(nil), kindNames[:]...)
}

// Spec describes a repeated collective workload. The zero value disables
// the workload (Reps == 0 means "no collective").
type Spec struct {
	Kind         Kind
	Root         int // root node id; must be < Participants
	Participants int // nodes 0..Participants-1 take part; 0 = every node
	PayloadFlits int // data payload per element; 0 defaults to 1
	Reps         int // repetitions; 0 disables the collective
	SkewCycles   int64
	GapCycles    int64
}

// Enabled reports whether the spec describes any work.
func (sp Spec) Enabled() bool { return sp.Reps > 0 }

// Normalize applies defaults and validates the spec against a system of n
// nodes. It is a no-op for a disabled spec.
func (sp *Spec) Normalize(n int) error {
	if !sp.Enabled() {
		return nil
	}
	if sp.Kind >= kindCount {
		return fmt.Errorf("collective: unknown kind %d", sp.Kind)
	}
	if sp.Participants == 0 {
		sp.Participants = n
	}
	if sp.Participants < 2 || sp.Participants > n {
		return fmt.Errorf("collective: participants %d out of range [2,%d]", sp.Participants, n)
	}
	if sp.Root < 0 || sp.Root >= sp.Participants {
		return fmt.Errorf("collective: root %d not a participant (0..%d)", sp.Root, sp.Participants-1)
	}
	if sp.PayloadFlits == 0 {
		sp.PayloadFlits = 1
	}
	if sp.PayloadFlits < 0 {
		return fmt.Errorf("collective: negative payload %d", sp.PayloadFlits)
	}
	if sp.SkewCycles < 0 || sp.GapCycles < 0 {
		return fmt.Errorf("collective: negative skew/gap")
	}
	return nil
}

// Step is one point-to-set transmission of a collective schedule. Steps are
// identified by index; Deps lists steps that must complete (deliver to every
// destination) before this one may launch, and always reference lower IDs in
// strictly earlier phases.
type Step struct {
	ID        int
	Src       int
	Dests     []int
	Multicast bool // realized via the configured multicast scheme
	Payload   int  // payload flits
	Phase     int  // 1-based; per-phase latencies tile the whole collective
	Deps      []int
}

// Schedule is a complete dependency-ordered plan for one collective rep.
type Schedule struct {
	Kind   Kind
	Phases int
	Steps  []Step
}

// MaxPayload returns the largest per-step payload in the schedule (used to
// size switch packet buffers).
func (s Schedule) MaxPayload() int {
	max := 0
	for _, st := range s.Steps {
		if st.Payload > max {
			max = st.Payload
		}
	}
	return max
}

// nodeOf maps tree rank to node id for a tree rooted at root over p
// participants. Rank 0 is always the root, so the binomial tree arithmetic
// works for any root.
func nodeOf(rank, root, p int) int { return (rank + root) % p }

// scheduleBuilder accumulates steps keyed by (phase, src, first dest) and
// resolves dependencies expressed as "the step that rank r sent/received".
type scheduleBuilder struct {
	steps []Step
}

func (b *scheduleBuilder) add(src int, dests []int, multicast bool, payload, phase int, deps []int) int {
	id := len(b.steps)
	b.steps = append(b.steps, Step{
		ID: id, Src: src, Dests: dests, Multicast: multicast,
		Payload: payload, Phase: phase, Deps: deps,
	})
	return id
}

// finish orders steps by (phase, src, first dest), reassigns IDs, and remaps
// dependencies, so schedules are canonical regardless of construction order.
func (b *scheduleBuilder) finish(kind Kind) Schedule {
	order := make([]int, len(b.steps))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, c := b.steps[order[i]], b.steps[order[j]]
		if a.Phase != c.Phase {
			return a.Phase < c.Phase
		}
		if a.Src != c.Src {
			return a.Src < c.Src
		}
		return a.Dests[0] < c.Dests[0]
	})
	remap := make([]int, len(b.steps))
	for newID, oldID := range order {
		remap[oldID] = newID
	}
	steps := make([]Step, len(b.steps))
	phases := 0
	for newID, oldID := range order {
		st := b.steps[oldID]
		st.ID = newID
		deps := make([]int, len(st.Deps))
		for i, d := range st.Deps {
			deps[i] = remap[d]
		}
		sort.Ints(deps)
		st.Deps = deps
		steps[newID] = st
		if st.Phase > phases {
			phases = st.Phase
		}
	}
	return Schedule{Kind: kind, Phases: phases, Steps: steps}
}

// BuildSchedule plans one rep of the collective over n nodes. hw selects the
// hardware-multidestination shapes (direct personalized transfers backed by
// worms) versus the software shapes (binomial splitting/combining trees).
// The same spec and flags always yield the identical schedule.
func BuildSchedule(sp Spec, n int, hw bool) (Schedule, error) {
	s := sp // normalize a copy so callers may pass unnormalized specs
	if !s.Enabled() {
		s.Reps = 1 // allow building previews of disabled specs
	}
	if err := s.Normalize(n); err != nil {
		return Schedule{}, err
	}
	p, root := s.Participants, s.Root
	pay := s.PayloadFlits
	b := &scheduleBuilder{}

	// others lists every participant except the root, in node order.
	others := func() []int {
		out := make([]int, 0, p-1)
		for node := 0; node < p; node++ {
			if node != root {
				out = append(out, node)
			}
		}
		return out
	}

	// combineUp builds the binomial combining tree: one unicast per
	// non-root rank toward its parent, payload per rank given by payloadOf,
	// one phase after the rank's last child's send (leaves send at phase 1).
	// Returns the root's child step IDs and the deepest phase used.
	combineUp := func(payloadOf func(rank int) int) (rootDeps []int, maxPhase int) {
		deps := make([][]int, p) // each rank's children's step IDs
		phase := make([]int, p)  // each rank's latest child phase, then its own
		// Ranks in decreasing order: every child c of r satisfies c > r,
		// so children are finalized before their parent.
		for r := p - 1; r >= 1; r-- {
			par, _ := binomial(r, p)
			phase[r]++
			phase[par] = max(phase[par], phase[r])
			deps[par] = append(deps[par], b.add(nodeOf(r, root, p), []int{nodeOf(par, root, p)},
				false, payloadOf(r), phase[r], deps[r]))
		}
		return deps[0], phase[0]
	}

	switch s.Kind {
	case Barrier:
		deps, ph := combineUp(func(int) int { return 1 })
		b.add(root, others(), true, 1, ph+1, deps)

	case Broadcast, Multicast, CombiningBarrier:
		// The core driver redraws a Multicast step every rep and launches
		// switch tokens for a CombiningBarrier step.
		b.add(root, others(), true, pay, 1, nil)

	case AllReduce:
		deps, ph := combineUp(func(int) int { return pay })
		b.add(root, others(), true, pay, ph+1, deps)

	case AllReduceGather:
		// Gather worms toward the root: every non-root contributes
		// directly in one phase, then the root broadcasts the result.
		var deps []int
		for _, node := range others() {
			deps = append(deps, b.add(node, []int{root}, false, pay, 1, nil))
		}
		sort.Ints(deps)
		b.add(root, others(), true, pay, 2, deps)

	case Scatter:
		if hw {
			for _, node := range others() {
				b.add(root, []int{node}, false, pay, 1, nil)
			}
		} else {
			// Binomial splitting: each message carries its whole
			// subtree's personalized data.
			recv := make([]int, p)  // step id delivering to rank r
			phase := make([]int, p) // phase at which rank r holds data
			// Ranks in increasing order: parents precede children.
			for r := 1; r < p; r++ {
				par, end := binomial(r, p)
				var deps []int
				if par != 0 {
					deps = []int{recv[par]}
				}
				phase[r] = phase[par] + 1
				recv[r] = b.add(nodeOf(par, root, p), []int{nodeOf(r, root, p)},
					false, pay*(end-r), phase[r], deps)
			}
		}

	case Gather:
		if hw {
			for _, node := range others() {
				b.add(node, []int{root}, false, pay, 1, nil)
			}
		} else {
			combineUp(func(r int) int {
				_, end := binomial(r, p)
				return pay * (end - r)
			})
		}

	default:
		return Schedule{}, fmt.Errorf("collective: unknown kind %d", s.Kind)
	}

	sched := b.finish(s.Kind)
	if err := sched.Validate(n); err != nil {
		return Schedule{}, fmt.Errorf("collective: internal: built invalid schedule: %w", err)
	}
	return sched, nil
}

// Validate checks the structural invariants every schedule must satisfy
// against a system of n nodes: in-range endpoints, no self-sends, no
// duplicate destinations, positive payloads, contiguous 1-based phases, and
// dependencies that reference lower IDs in strictly earlier phases.
func (s Schedule) Validate(n int) error {
	if len(s.Steps) == 0 {
		return fmt.Errorf("empty schedule")
	}
	seenPhase := make([]bool, s.Phases)
	for i, st := range s.Steps {
		if st.ID != i {
			return fmt.Errorf("step %d: ID %d != index", i, st.ID)
		}
		if st.Src < 0 || st.Src >= n {
			return fmt.Errorf("step %d: src %d out of range", i, st.Src)
		}
		if len(st.Dests) == 0 {
			return fmt.Errorf("step %d: no destinations", i)
		}
		seen := map[int]bool{}
		for _, d := range st.Dests {
			if d < 0 || d >= n {
				return fmt.Errorf("step %d: dest %d out of range", i, d)
			}
			if d == st.Src {
				return fmt.Errorf("step %d: self-send at node %d", i, d)
			}
			if seen[d] {
				return fmt.Errorf("step %d: duplicate dest %d", i, d)
			}
			seen[d] = true
		}
		if len(st.Dests) > 1 && !st.Multicast {
			return fmt.Errorf("step %d: multi-destination unicast", i)
		}
		if st.Payload < 1 {
			return fmt.Errorf("step %d: payload %d < 1", i, st.Payload)
		}
		if st.Phase < 1 || st.Phase > s.Phases {
			return fmt.Errorf("step %d: phase %d out of range [1,%d]", i, st.Phase, s.Phases)
		}
		seenPhase[st.Phase-1] = true
		for _, dep := range st.Deps {
			if dep < 0 || dep >= i {
				return fmt.Errorf("step %d: dep %d not a lower ID", i, dep)
			}
			if s.Steps[dep].Phase >= st.Phase {
				return fmt.Errorf("step %d (phase %d): dep %d in phase %d not earlier",
					i, st.Phase, dep, s.Steps[dep].Phase)
			}
		}
	}
	for ph, ok := range seenPhase {
		if !ok {
			return fmt.Errorf("phase %d has no steps", ph+1)
		}
	}
	return nil
}
