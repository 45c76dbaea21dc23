package engine

import (
	"strings"
	"testing"

	"mdworm/internal/ckpt"
	"mdworm/internal/flit"
)

// recorder logs the cycle of every step it receives into a shared journal,
// tagged with its name, so tests can assert exact step cycles and exact
// same-cycle ordering across components.
type recorder struct {
	name    string
	in      *Link
	journal *[]string
	cycles  []int64
}

func (r *recorder) Name() string   { return r.name }
func (r *recorder) Quiesced() bool { return true }
func (r *recorder) Step(now int64) {
	r.cycles = append(r.cycles, now)
	if r.journal != nil {
		*r.journal = append(*r.journal, r.name)
	}
	if r.in != nil {
		if _, ok := r.in.Take(now); ok {
			r.in.ReturnCredit(now, 1)
		}
	}
}

func TestScheduleWakeAtPastErrors(t *testing.T) {
	sim := NewSimulation(0)
	c := &recorder{name: "c"}
	sim.AddComponent(c)
	sim.DeclareInputs(c) // sleepable, no links
	if err := sim.Run(5); err != nil {
		t.Fatal(err)
	}
	// Scheduling at or before the current cycle must error, not silently
	// reorder time.
	if err := sim.ScheduleWakeAt(c, sim.Now); err == nil {
		t.Fatal("ScheduleWakeAt at the current cycle did not error")
	}
	if err := sim.ScheduleWakeAt(c, sim.Now-3); err == nil {
		t.Fatal("ScheduleWakeAt in the past did not error")
	}
	stranger := &recorder{name: "stranger"}
	if err := sim.ScheduleWakeAt(stranger, sim.Now+10); err == nil {
		t.Fatal("ScheduleWakeAt for an unregistered component did not error")
	}
	// A legal future wake fires at exactly that cycle.
	if err := sim.ScheduleWakeAt(c, sim.Now+7); err != nil {
		t.Fatal(err)
	}
	target := sim.Now + 7
	before := len(c.cycles)
	if err := sim.Run(20); err != nil {
		t.Fatal(err)
	}
	if len(c.cycles) != before+1 || c.cycles[len(c.cycles)-1] != target {
		t.Fatalf("wake at %d produced step cycles %v (had %d before)", target, c.cycles, before)
	}
}

// TestSimultaneousEventsPreserveOrder checks that events due at the same
// cycle wake their components into the normal registration-order sweep:
// dispatch order of the queue must never leak into step order.
func TestSimultaneousEventsPreserveOrder(t *testing.T) {
	sim := NewSimulation(0)
	var journal []string
	comps := make([]*recorder, 4)
	names := []string{"a", "b", "c", "d"}
	for i := range comps {
		comps[i] = &recorder{name: names[i], journal: &journal}
		sim.AddComponent(comps[i])
		sim.DeclareInputs(comps[i])
	}
	if err := sim.Run(3); err != nil { // everyone steps once, then sleeps
		t.Fatal(err)
	}
	journal = journal[:0]
	for _, c := range comps {
		c.cycles = nil
	}
	// Schedule the same cycle in scrambled order.
	at := sim.Now + 10
	for _, i := range []int{2, 0, 3, 1} {
		if err := sim.ScheduleWakeAt(comps[i], at); err != nil {
			t.Fatal(err)
		}
	}
	if err := sim.Run(20); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(journal, ""); got != "abcd" {
		t.Fatalf("same-cycle events stepped components in order %q, want abcd", got)
	}
	for _, c := range comps {
		if len(c.cycles) != 1 || c.cycles[0] != at {
			t.Fatalf("component %s stepped at %v, want exactly [%d]", c.name, c.cycles, at)
		}
	}
}

// TestWakeInterleavesWithQueuedEvents checks that an explicit Wake neither
// loses nor duplicates a queued wake event: the component steps immediately,
// goes back to sleep, and the queued event still fires at its cycle (as a
// harmless extra no-op step at worst).
func TestWakeInterleavesWithQueuedEvents(t *testing.T) {
	sim := NewSimulation(0)
	c := &recorder{name: "c"}
	sim.AddComponent(c)
	sim.DeclareInputs(c)
	if err := sim.Run(2); err != nil {
		t.Fatal(err)
	}
	c.cycles = nil
	eventAt := sim.Now + 30
	if err := sim.ScheduleWakeAt(c, eventAt); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(5); err != nil { // jumps: event is far away
		t.Fatal(err)
	}
	if len(c.cycles) != 0 {
		t.Fatalf("component stepped at %v before any stimulus", c.cycles)
	}
	wakeCycle := sim.Now
	sim.Wake(c)
	if err := sim.Run(40); err != nil {
		t.Fatal(err)
	}
	if len(c.cycles) < 2 {
		t.Fatalf("steps %v: want the immediate Wake step and the queued event step", c.cycles)
	}
	if c.cycles[0] != wakeCycle {
		t.Fatalf("Wake stepped at %d, want %d", c.cycles[0], wakeCycle)
	}
	if last := c.cycles[len(c.cycles)-1]; last != eventAt {
		t.Fatalf("queued event stepped at %d, want %d", last, eventAt)
	}
	if len(c.cycles) > 3 {
		t.Fatalf("too many steps %v: stale events must not multiply", c.cycles)
	}
}

// TestClockJumpsOverIdleSpans checks the tentpole behavior: with every
// component asleep, Run crosses a long wire latency in one jump, and the
// receiver still consumes the flit at the exact arrival cycle.
func TestClockJumpsOverIdleSpans(t *testing.T) {
	sim := NewSimulation(0)
	l := sim.NewLink("long-haul", 100, 4)
	c := &recorder{name: "rx", in: l}
	sim.AddComponent(c)
	sim.DeclareInputs(c, l)
	if err := sim.Run(2); err != nil {
		t.Fatal(err)
	}
	c.cycles = nil
	w := testWorm(1)
	mustSend(t, l, sim.Now, flit.Ref{W: w, Idx: 0})
	arrive := sim.Now + 100
	if err := sim.Run(300); err != nil {
		t.Fatal(err)
	}
	if !l.Quiesced() {
		t.Fatal("flit never consumed")
	}
	if len(c.cycles) == 0 || c.cycles[0] != arrive {
		t.Fatalf("receiver stepped at %v, want first step at arrival cycle %d", c.cycles, arrive)
	}
	if len(c.cycles) > 2 {
		t.Fatalf("receiver stepped %d times (%v): the idle span was not jumped", len(c.cycles), c.cycles)
	}
}

// timetable is a NextWaker with a fixed deadline list.
type timetable struct {
	recorder
	deadlines []int64
}

func (tt *timetable) NextWake(now int64) (int64, bool) {
	for _, d := range tt.deadlines {
		if d > now {
			return d, true
		}
	}
	return 0, false
}

func (tt *timetable) Step(now int64) {
	for _, d := range tt.deadlines {
		if d == now {
			tt.cycles = append(tt.cycles, now)
		}
	}
}

// TestEventDrivenTimetable checks DeclareEventDriven: a component whose
// stimulus is a deadline list is stepped at every deadline and skipped (and
// jumped over) everywhere else.
func TestEventDrivenTimetable(t *testing.T) {
	sim := NewSimulation(0)
	tt := &timetable{recorder: recorder{name: "tt"}, deadlines: []int64{13, 14, 500, 2000}}
	sim.AddComponent(tt)
	sim.DeclareEventDriven(tt)
	if err := sim.Run(3000); err != nil {
		t.Fatal(err)
	}
	if len(tt.cycles) != 4 || tt.cycles[0] != 13 || tt.cycles[1] != 14 ||
		tt.cycles[2] != 500 || tt.cycles[3] != 2000 {
		t.Fatalf("timetable fired at %v, want [13 14 500 2000]", tt.cycles)
	}
}

// TestEventSchedulingSteadyStateAllocs pins the zero-alloc property of the
// calendar queue itself: a component cycling asleep/awake through scheduled
// wake events must not allocate once the queue's buckets are warm.
func TestEventSchedulingSteadyStateAllocs(t *testing.T) {
	sim := NewSimulation(0)
	l := sim.NewLink("wire", 7, 8)
	c := &recorder{name: "rx", in: l}
	sim.AddComponent(c)
	sim.DeclareInputs(c, l)
	w := testWorm(1)
	send := func() {
		for i := 0; i < 20; i++ {
			l.TrySend(sim.Now, flit.Ref{W: w, Idx: 0})
			if err := sim.Run(16); err != nil {
				t.Fatal(err)
			}
		}
	}
	send() // warm the wheel, the rings, and the journal slices
	c.cycles = c.cycles[:0]
	avg := testing.AllocsPerRun(50, send)
	if avg != 0 {
		t.Fatalf("event scheduling allocates %.2f times per round, want 0", avg)
	}
}

// TestSnapshotRoundTripWithPendingEvents checks that a simulation with a
// non-empty event queue encodes, decodes into a twin, and re-encodes to the
// same bytes, and that the twin fires the restored events at the exact
// original cycles.
func TestSnapshotRoundTripWithPendingEvents(t *testing.T) {
	build := func() (*Simulation, *Link, *recorder) {
		sim := NewSimulation(0)
		l := sim.NewLink("wire", 50, 4)
		c := &recorder{name: "rx", in: l}
		sim.AddComponent(c)
		sim.DeclareInputs(c, l)
		return sim, l, c
	}
	sim, l, _ := build()
	if err := sim.Run(2); err != nil {
		t.Fatal(err)
	}
	w := testWorm(1)
	mustSend(t, l, sim.Now, flit.Ref{W: w, Idx: 0})
	arrive := sim.Now + 50
	if err := sim.Run(10); err != nil { // sleeps rx with a pending wake event
		t.Fatal(err)
	}
	if sim.PendingEvents() == 0 {
		t.Fatal("scenario failed to queue an event")
	}

	encode := func(s *Simulation) []byte {
		g := ckpt.NewGraph()
		s.CollectState(g)
		var enc, genc ckpt.Enc
		g.Encode(&genc)
		s.EncodeState(&enc, g)
		s.EncodeEvents(&enc)
		return append(genc.Bytes(), enc.Bytes()...)
	}

	g := ckpt.NewGraph()
	sim.CollectState(g)
	var genc ckpt.Enc
	g.Encode(&genc)
	var enc ckpt.Enc
	sim.EncodeState(&enc, g)
	sim.EncodeEvents(&enc)

	twin, _, tc := build()
	gd := ckpt.NewDec(genc.Bytes())
	g2 := ckpt.DecodeGraph(gd)
	if gd.Err() != nil {
		t.Fatal(gd.Err())
	}
	d := ckpt.NewDec(enc.Bytes())
	twin.DecodeState(d, g2)
	twin.DecodeEvents(d)
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	if twin.PendingEvents() != sim.PendingEvents() {
		t.Fatalf("twin has %d pending events, original %d", twin.PendingEvents(), sim.PendingEvents())
	}
	if got := encode(twin); string(got) != string(encode(sim)) {
		t.Fatal("re-encoded twin differs from original")
	}
	if err := twin.Run(100); err != nil {
		t.Fatal(err)
	}
	if len(tc.cycles) == 0 || tc.cycles[len(tc.cycles)-1] != arrive {
		t.Fatalf("restored twin stepped at %v, want the arrival cycle %d", tc.cycles, arrive)
	}
}
