package engine

import (
	"fmt"
	"math"
	"math/bits"
	"strings"

	"mdworm/internal/flit"
)

// Kernel names the scheduling discipline compiled into this engine, for
// benchmark attribution: "event", the event-driven kernel that steps awake
// components and wakes sleeping ones from a heap of queued wake events.
const Kernel = "event"

// Component is a clocked element of the simulated system (a switch or a
// NIC). Step is called exactly once per cycle in registration order; because
// link latency is at least one cycle, results are independent of that order.
type Component interface {
	// Step advances the component by one cycle.
	Step(now int64)
	// Quiesced reports whether the component holds no in-flight work.
	Quiesced() bool
	// Name identifies the component in diagnostics.
	Name() string
}

// NextWaker is implemented by components whose stimulus is a timetable
// rather than link traffic: fault-plan drivers, periodic probes, watchdog
// timers, a NIC's software overheads. NextWake returns the next cycle
// strictly after now at which the component needs to be stepped, or
// ok=false if it has no pending deadline (a quiesced component then sleeps
// until an explicit Wake). The kernel queries it after a step with nothing
// arrived for the component and schedules a wake event for the returned
// cycle. DeclareEventDriven says when a component that holds work may
// report one.
type NextWaker interface {
	NextWake(now int64) (at int64, ok bool)
}

// DeadlockError reports that the watchdog observed no forward progress for
// its limit while components still held work — either a genuine protocol
// deadlock or a model bug. It lists the stuck components.
type DeadlockError struct {
	Cycle int64
	Limit int64
	Stuck []string
}

// Error formats the deadlock report.
func (e *DeadlockError) Error() string {
	return fmt.Sprintf("engine: no progress for %d cycles at cycle %d; stuck: %s",
		e.Limit, e.Cycle, strings.Join(e.Stuck, ", "))
}

// noWake marks an absent cycle: no wake event queued for a component, no
// flit or credit return pending on a link.
const noWake = int64(math.MaxInt64)

// compEntry tracks one registered component, at the index AddComponent
// returned for it, plus its scheduling state. A component with declared
// event sources (input links via DeclareInputs, or a timetable via
// DeclareEventDriven) may be put to sleep — skipped by Step and excluded
// from clock-jump decisions — once it is quiesced and nothing has arrived
// for it, or, if it declared a timetable, while it holds work that only
// waits for its next deadline; a queued wake event, a send on an input link,
// or an explicit Wake re-arms it. Components that never declared event
// sources are stepped every cycle, exactly like the pre-event-kernel engine,
// so ad-hoc harnesses keep their semantics.
type compEntry struct {
	c         Component
	inputs    []*Link
	nw        NextWaker
	sleepable bool
	asleep    bool
	// busy marks a sleeper that holds work: Quiesced and the watchdog count
	// it as busy and progressing on every cycle it sleeps through.
	busy bool
	// wakeAt is the earliest queued wake event for this component (noWake
	// if none); it suppresses redundant events for later cycles.
	wakeAt int64
}

// Simulation owns the clock, the components (named by registration index),
// and the links. It is a discrete-event kernel: components declare their
// event sources, sleep when quiesced or when their only work is a countdown
// to a deadline, and are re-armed by wake events queued in a binary min-heap
// (link deliveries at now+latency, fault-plan activations, probe deadlines,
// a NIC's overheads). While any component is awake the clock steps cycle by
// cycle; when every component sleeps, Run/RunUntil jump the clock straight
// to the next queued event (or the watchdog deadline, or the budget limit).
//
// Because an idle component's Step is required to be a no-op — the model
// components draw no randomness and mutate no arbitration state while idle —
// and a component that sleeps on a deadline charges the countdown cycles it
// skipped when it wakes, skipping and jumping preserve exact cycle semantics
// while removing the per-cycle cost of the (often dominant) idle fraction of
// the fabric.
type Simulation struct {
	// Now is the current cycle, visible to components mid-step.
	Now int64
	// WatchdogLimit is the number of consecutive cycles without any flit
	// movement or declared internal progress after which Run returns a
	// DeadlockError (if components still hold work). Zero disables it.
	WatchdogLimit int64

	comps      []compEntry // indexed by AddComponent's result
	awake      []uint64    // bitmap over comps; set = stepped each cycle
	awakeCount int
	// busySleepers counts sleeping components that hold work.
	busySleepers int
	evq          eventQueue

	links []*Link
	// linkSlab holds the links a Reset reserved, each with its two rings;
	// flitSlab and creditSlab back the rings NewLink carves (see NewLink).
	linkSlab   []Link
	flitSlab   []timed[flit.Ref]
	creditSlab []timed[int]
	// busyLinks counts links with at least one flit on the wire, so
	// quiescence and jump decisions are O(1) instead of a fabric scan.
	busyLinks    int
	activity     int64
	lastActivity int64
	tracer       Tracer
	inv          *Invariants
}

// NewSimulation returns an empty simulation with the watchdog set to limit.
// The invariant checker is always on; set Invariants().Strict to upgrade
// violations to hard failures.
func NewSimulation(watchdogLimit int64) *Simulation {
	s := new(Simulation)
	s.Reset(watchdogLimit, 0, 0)
	return s
}

// Reset empties the simulation for a system of the given numbers of
// components and links, with the watchdog set to limit. It keeps only the
// storage of the component table, awake bitmap, link list, event heap and
// reserved links with their rings; nothing registered before may be used.
func (s *Simulation) Reset(watchdogLimit int64, components, links int) {
	*s = Simulation{
		WatchdogLimit: watchdogLimit,
		comps:         Reuse(Empty(s.comps), components)[:0],
		awake:         s.awake[:0],
		evq:           eventQueue{heap: s.evq.heap[:0]},
		links:         Reuse(Empty(s.links), links)[:0],
		linkSlab:      Reuse(s.linkSlab, links),
		flitSlab:      s.flitSlab,
		creditSlab:    s.creditSlab,
		inv:           newInvariants(),
	}
}

// Invariants returns the simulation's invariant-checker sink. Components
// report violations through it; drivers read the counters after a run.
func (s *Simulation) Invariants() *Invariants { return s.inv }

// Reuse returns s cut to n elements, keeping those it holds, when it has
// room for them, else n new zero elements: the storage rule of every Reset.
func Reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Empty returns s with no elements and its whole storage cleared, so that a
// queue or table a Reset keeps refers to nothing of the last run.
func Empty[T any](s []T) []T {
	clear(s[:cap(s)])
	return s[:0]
}

// AddComponent registers a component and returns its index, counted from 0
// in registration order, by which the Declare methods, Wake and
// ScheduleWakeAt name it. It is stepped each cycle until it declares event
// sources and quiesces.
func (s *Simulation) AddComponent(c Component) int {
	i := len(s.comps)
	s.comps = append(s.comps, compEntry{c: c, wakeAt: noWake})
	if i>>6 >= len(s.awake) {
		s.awake = append(s.awake, 0)
	}
	s.awake[i>>6] |= 1 << uint(i&63)
	s.awakeCount++
	return i
}

// DeclareInputs tells the scheduler which links feed component i, making it
// eligible for sleeping: while it is quiesced and none of these links holds
// an arrived flit, Step does not call it; a send on any declared link queues
// a wake event for the flit's arrival cycle. Callers whose components
// receive stimulus outside the link fabric (message submission, barrier
// drivers) must pair this with Wake. The component keeps inputs, none of
// them nil, as its input list, so a caller that passes a slice must not
// modify it afterwards.
func (s *Simulation) DeclareInputs(i int, inputs ...*Link) {
	e := &s.comps[i]
	e.sleepable = true
	e.inputs = inputs
	for _, l := range inputs {
		l.sim = s
		l.recv = int32(i)
	}
}

// DeclareEventDriven registers component i's timetable as an event source:
// after each step with nothing arrived for it, the kernel asks its NextWake
// for the next deadline and sleeps it until then. The component must
// implement NextWaker. May be combined with DeclareInputs; the earlier of
// link arrival and deadline wins.
//
// It may then sleep while it holds work, on a deadline only. Its NextWake
// must report one only when every cycle before it would change nothing of it
// but a countdown that it charges itself when it next steps, and would call
// Progress; the kernel counts it as busy and progressing on each such cycle.
// Out-of-band stimulus that changes the countdown (a Submit, a stall) must
// Wake it, and come between cycles or from a component registered before
// it, so that it sees it on the cycle it happens. Under the mdworm_oracle
// build tag it is stepped every cycle while it holds work.
func (s *Simulation) DeclareEventDriven(i int) {
	e := &s.comps[i]
	nw, ok := e.c.(NextWaker)
	if !ok {
		panic("engine: DeclareEventDriven component " + e.c.Name() + " does not implement NextWaker")
	}
	e.sleepable = true
	e.nw = nw
}

// DeclareOutputs tells the scheduler which links component i sends on: a
// failure of one of them (Link.Fail) wakes it if it sleeps while holding
// work, so that it sees the failure on the cycle it happens. A component
// that sleeps only when quiesced need not declare its outputs.
func (s *Simulation) DeclareOutputs(i int, outputs ...*Link) {
	for _, l := range outputs {
		if l != nil {
			l.sim = s
			l.send = int32(i)
		}
	}
}

// Wake re-arms the sleeping component registered under index i immediately
// (it steps on the current cycle), for out-of-band stimulation such as a
// message submitted to an idle NIC. An index no component has is ignored.
func (s *Simulation) Wake(i int) {
	if uint(i) < uint(len(s.comps)) {
		s.wakeIdx(int32(i))
	}
}

// ScheduleWakeAt queues a wake event for component i at the given future
// cycle. Scheduling in the past (at <= Now) is an error — the kernel never
// reorders time — as is an index no component was registered under.
func (s *Simulation) ScheduleWakeAt(i int, at int64) error {
	if uint(i) >= uint(len(s.comps)) {
		return fmt.Errorf("engine: ScheduleWakeAt for unregistered component %d", i)
	}
	if at <= s.Now {
		return fmt.Errorf("engine: ScheduleWakeAt for %s at cycle %d, not after now (%d)", s.comps[i].c.Name(), at, s.Now)
	}
	s.scheduleWake(int32(i), at)
	return nil
}

// wakeIdx clears the sleep state of component i, effective this cycle. A
// busy sleeper progressed on every cycle it slept through, so the watchdog
// sees activity up to the previous cycle.
func (s *Simulation) wakeIdx(i int32) {
	e := &s.comps[i]
	e.wakeAt = noWake
	if e.asleep {
		e.asleep = false
		s.awake[i>>6] |= 1 << uint(i&63)
		s.awakeCount++
		if e.busy {
			e.busy = false
			s.busySleepers--
			s.lastActivity = max(s.lastActivity, s.Now-1)
		}
	}
}

// scheduleWake queues a wake event for component i at cycle at, unless an
// event at the same or an earlier cycle is already queued for it.
func (s *Simulation) scheduleWake(i int32, at int64) {
	e := &s.comps[i]
	if e.wakeAt <= at {
		return
	}
	e.wakeAt = at
	s.evq.push(at, i)
}

// noteSend is the link-delivery event source: a send toward a sleeping
// receiver queues its wake for the arrival cycle. Awake receivers need
// nothing — they will see the arrival when they step.
func (s *Simulation) noteSend(recv int32, arriveAt int64) {
	if s.comps[recv].asleep {
		s.scheduleWake(recv, arriveAt)
	}
}

// NewLink creates a link registered with this simulation so that flit
// movement feeds the progress watchdog and the busy-link census. The links
// a Reset reserved come from one slab, so a fabric's link state is
// cache-adjacent, and keep their rings while those are large enough.
func (s *Simulation) NewLink(name string, latency, credits int) *Link {
	nf, nc := wireSlots(latency, credits)
	var l *Link
	if i := len(s.links); i < len(s.linkSlab) {
		l = &s.linkSlab[i]
	} else {
		l = new(Link)
	}
	l.init(name, latency, credits, carve(l.inflight.buf, nf, &s.flitSlab), carve(l.creditsQ.buf, nc, &s.creditSlab))
	l.sim = s
	l.inv = s.inv
	s.links = append(s.links, l)
	return l
}

// carve returns n cleared elements of old's storage when it has room for
// them, else cuts n elements off the front of *slab, replacing it with room
// for 64 such cuts when it runs short.
func carve[T any](old []T, n int, slab *[]T) []T {
	if cap(old) >= n {
		return Empty(old)[:n]
	}
	if len(*slab) < n {
		*slab = make([]T, 64*n)
	}
	cut := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return cut
}

// Links returns all registered links.
func (s *Simulation) Links() []*Link { return s.links }

// Progress lets a component declare internal forward progress (for example,
// draining a software-overhead timer) so the watchdog does not fire while
// real work advances without flits moving.
func (s *Simulation) Progress() { s.activity++ }

// Quiesced reports whether every component and link is idle. A component
// that went to sleep quiesced stays so, since asleep components are never
// stepped, and those that sleep while holding work are counted, so the check
// scans only busy links and awake components.
func (s *Simulation) Quiesced() bool {
	if s.busyLinks > 0 || s.busySleepers > 0 {
		return false
	}
	for w, word := range s.awake {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			if !s.comps[w<<6+b].c.Quiesced() {
				return false
			}
		}
	}
	return true
}

// dispatchDue pops every queued event with at <= Now and wakes its
// component. Stale events (the component woke earlier for another reason)
// degenerate to a no-op step and are harmless.
func (s *Simulation) dispatchDue() {
	if s.evq.len() == 0 {
		return
	}
	s.evq.popDue(s.Now, s.wakeIdx)
}

// Step advances the simulation one cycle: due wake events fire, then every
// awake component steps in registration order, then components that
// quiesced with no pending arrival go to sleep (queueing a wake for their
// next known stimulus). Step never jumps the clock — drivers that need the
// jump use Run/RunUntil/Advance.
func (s *Simulation) Step() {
	s.dispatchDue()
	before := s.activity
	for w := range s.awake {
		visited := uint64(0)
		for {
			word := s.awake[w] &^ visited
			if word == 0 {
				break
			}
			b := bits.TrailingZeros64(word)
			visited |= 1 << uint(b)
			i := w<<6 + b
			e := &s.comps[i]
			e.c.Step(s.Now)
			s.maybeSleep(i, e)
		}
	}
	if s.activity != before {
		s.lastActivity = s.Now
	}
	s.Now++
}

// maybeSleep puts component i to sleep if nothing has arrived for it and
// it is quiesced or, when it declared a timetable, its NextWake reports a
// deadline; it queues a wake event for the earliest future stimulus (the
// head flit of an in-flight input, or the NextWake deadline). A component
// that holds work and reports no deadline stays awake, and so does one whose
// stimulus is due next cycle — sleeping for one cycle buys nothing over
// stepping.
func (s *Simulation) maybeSleep(i int, e *compEntry) {
	if !e.sleepable {
		return
	}
	busy := !e.c.Quiesced()
	if busy && (e.nw == nil || !DeadlineSleep) {
		return
	}
	wakeAt := noWake
	if e.nw != nil {
		at, ok := e.nw.NextWake(s.Now)
		switch {
		case ok && at <= s.Now:
			return
		case ok:
			wakeAt = at
		case busy:
			return
		}
	}
	for _, l := range e.inputs {
		at := l.headAt
		if at <= s.Now {
			return // arrived but unconsumed: stay awake
		}
		if at < wakeAt {
			wakeAt = at
		}
	}
	if wakeAt == s.Now+1 {
		return
	}
	e.asleep = true
	s.awake[i>>6] &^= 1 << uint(i&63)
	s.awakeCount--
	if busy {
		e.busy = true
		s.busySleepers++
	}
	if wakeAt != noWake {
		s.scheduleWake(int32(i), wakeAt)
	}
}

// Advance moves the clock toward limit (exclusive upper bound on Now after
// the call): while any component is awake it steps one cycle; once every
// component sleeps it jumps Now directly to the earliest of the next queued
// event, the watchdog deadline, and limit. With a tracer attached it never
// jumps, so per-cycle traces stay exact.
func (s *Simulation) Advance(limit int64) error {
	if s.awakeCount > 0 || s.tracer != nil {
		s.Step()
		return s.checkWatchdog()
	}
	// Everyone is asleep: quiesced, or counting down to a queued deadline.
	// Only wire latency and queued deadlines separate us from the next state
	// change.
	target := limit
	if at, ok := s.evq.peek(); ok && at < target {
		target = at
	}
	if s.WatchdogLimit > 0 && s.busyLinks > 0 && s.busySleepers == 0 {
		// Do not jump past the cycle where the watchdog would have fired
		// under per-cycle stepping, so deadlock reports keep their exact
		// cycle and stuck set. A busy sleeper progresses on every cycle
		// until its deadline, so the watchdog cannot fire before it.
		if dl := s.lastActivity + s.WatchdogLimit + 1; dl < target {
			target = dl
		}
	}
	if target <= s.Now {
		s.Step()
		return s.checkWatchdog()
	}
	s.Now = target
	s.dispatchDue()
	return s.checkWatchdog()
}

// Run advances the simulation by the given number of cycles, returning a
// DeadlockError if the watchdog fires. A non-positive cycle budget is
// rejected: silently doing nothing has hidden more than one driver bug.
func (s *Simulation) Run(cycles int64) error {
	if cycles <= 0 {
		return fmt.Errorf("engine: Run needs a positive cycle budget, got %d", cycles)
	}
	end := s.Now + cycles
	for s.Now < end {
		if err := s.Advance(end); err != nil {
			return err
		}
	}
	return nil
}

// RunUntil advances the simulation until pred returns true, the cycle
// budget is exhausted, or the watchdog fires. It reports whether pred was
// satisfied. A non-positive budget is rejected with an error.
//
// pred must depend only on component, link, and statistics state — never on
// the raw clock, nor on a countdown that a component sleeping on a deadline
// charges when it wakes (a NIC's OverheadCycles) — because the kernel skips
// it over spans where no component steps (no state it may legally read can
// change there).
func (s *Simulation) RunUntil(pred func() bool, maxCycles int64) (bool, error) {
	if maxCycles <= 0 {
		return false, fmt.Errorf("engine: RunUntil needs a positive cycle budget, got %d", maxCycles)
	}
	end := s.Now + maxCycles
	for s.Now < end {
		if pred() {
			return true, nil
		}
		if err := s.Advance(end); err != nil {
			return false, err
		}
	}
	return pred(), nil
}

// Drain runs until every component and link is idle, up to maxCycles (which
// must be positive).
func (s *Simulation) Drain(maxCycles int64) (bool, error) {
	return s.RunUntil(s.Quiesced, maxCycles)
}

// AwakeCount returns the number of components currently stepped each cycle.
func (s *Simulation) AwakeCount() int { return s.awakeCount }

// PendingEvents returns the number of queued wake events (stale duplicates
// included).
func (s *Simulation) PendingEvents() int { return s.evq.len() }

// CheckWatchdog lets external drivers that call Step directly run the same
// progress check Run performs.
func (s *Simulation) CheckWatchdog() error { return s.checkWatchdog() }

func (s *Simulation) checkWatchdog() error {
	// A busy sleeper progressed on every cycle before now.
	if s.WatchdogLimit <= 0 || s.Now-s.lastActivity <= s.WatchdogLimit || s.busySleepers > 0 {
		return nil
	}
	if s.Quiesced() {
		// Nothing to do is not a deadlock; reset the clock on idleness.
		s.lastActivity = s.Now
		return nil
	}
	var stuck []string
	for i := range s.comps {
		if !s.comps[i].c.Quiesced() {
			stuck = append(stuck, s.comps[i].c.Name())
		}
	}
	for _, l := range s.links {
		if !l.Quiesced() {
			stuck = append(stuck, "link:"+l.Name())
		}
	}
	// Keep the cyclic-wait report readable on big fabrics: name the first
	// participants and summarize the rest.
	const maxStuckNames = 12
	if len(stuck) > maxStuckNames {
		extra := len(stuck) - maxStuckNames
		stuck = append(stuck[:maxStuckNames], fmt.Sprintf("(+%d more)", extra))
	}
	return &DeadlockError{Cycle: s.Now, Limit: s.WatchdogLimit, Stuck: stuck}
}
