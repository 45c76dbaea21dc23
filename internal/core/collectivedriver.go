package core

import (
	"fmt"

	"mdworm/internal/ckpt"
	"mdworm/internal/collective"
	"mdworm/internal/engine"
	"mdworm/internal/flit"
	"mdworm/internal/traffic"
)

// Step execution states of the collective driver.
const (
	stepPending uint8 = iota
	stepInFlight
	stepDone
)

// collectiveDriver executes the configured collective workload through the
// engine's event loop: it launches each schedule step as an ordinary op when
// the step's dependencies have delivered (plus a software-handling delay),
// repeats the schedule Reps times, and feeds per-rep last-arrival, skew, and
// per-phase tiling samples into the stats collector. Like the fault driver it
// always reports quiesced — the drain's completion condition is the driver's
// finished() — and sleeps on its own timetable: the next entry time while
// steps are ready, nothing while it only waits on deliveries (op completion
// re-arms it via ScheduleWakeAt). Two kinds replace the schedule's one step:
// Multicast redraws its source and destinations every rep, and
// CombiningBarrier launches every node's switch token instead of a planned
// op.
type collectiveDriver struct {
	s     *Simulator
	idx   int // the driver's component index, which it schedules wakes for
	spec  collective.Spec
	sched collective.Schedule
	skew  traffic.Skew
	// draw is the Multicast kind's source and destination stream (nil for
	// other kinds); its position is a function of the reps begun, so a
	// restore replays it instead of serializing it. pool is its scratch.
	draw *engine.RNG
	pool []int

	// dependents inverts the schedule's Deps edges; handoff is the software
	// delay between a dependency's last delivery and the dependent launch.
	dependents [][]int
	handoff    int64

	// Mutable, checkpointed state. When inRep is false, repStart is the
	// cycle the *next* rep (index rep) begins; rep == spec.Reps means the
	// workload is finished.
	inRep      bool
	rep        int
	repStart   int64
	degraded   bool  // current rep lost destinations to a fault
	finalFirst int64 // earliest final-phase arrival this rep (-1 none)
	finalLast  int64 // latest final-phase arrival this rep
	status     []uint8
	readyAt    []int64    // launch cycle once deps are met (-1 until then)
	phaseEnd   []int64    // last completion cycle per phase (-1 none)
	ops        []*flit.Op // in-flight op per step

	// Derived from the above (rebuilt on restore, never encoded).
	waiting   []int // unmet dependency count per step
	phaseLeft []int // steps not yet completed per phase
	doneSteps int
	opStep    map[uint64]int
}

func newCollectiveDriver(s *Simulator, spec collective.Spec, sched collective.Schedule) *collectiveDriver {
	n := len(sched.Steps)
	d := &collectiveDriver{
		s:          s,
		spec:       spec,
		sched:      sched,
		skew:       traffic.Skew{Seed: s.cfg.Seed ^ 0x5eed_c011, Max: spec.SkewCycles},
		dependents: make([][]int, n),
		handoff:    max(1, int64(s.cfg.NIC.RecvOverhead)),
		repStart:   s.cfg.WarmupCycles,
		status:     make([]uint8, n),
		readyAt:    make([]int64, n),
		phaseEnd:   make([]int64, sched.Phases),
		ops:        make([]*flit.Op, n),
		waiting:    make([]int, n),
		phaseLeft:  make([]int, sched.Phases),
		opStep:     make(map[uint64]int, n),
	}
	for _, st := range sched.Steps {
		for _, dep := range st.Deps {
			d.dependents[dep] = append(d.dependents[dep], st.ID)
		}
	}
	if spec.Kind == collective.Multicast {
		d.draw = multicastDraws(s.cfg.Seed)
	}
	col := &s.col.Coll
	col.Active = true
	col.Kind = spec.Kind.String()
	col.NumPhases = sched.Phases
	col.Phases = make([][]float64, sched.Phases)
	return d
}

// Name identifies the driver in diagnostics.
func (d *collectiveDriver) Name() string { return "collective-driver" }

// Quiesced always holds: un-launched reps must not keep Advance stepping;
// the drain predicate consults finished() instead.
func (d *collectiveDriver) Quiesced() bool { return true }

// finished reports whether every rep has completed.
func (d *collectiveDriver) finished() bool { return !d.inRep && d.rep >= d.spec.Reps }

// Step begins reps whose start time has arrived and launches every step
// whose dependencies (and entry delay) are satisfied.
func (d *collectiveDriver) Step(now int64) {
	if d.finished() {
		return
	}
	if !d.inRep {
		if now < d.repStart {
			return
		}
		d.beginRep(now)
	}
	d.launchReady(now)
}

// NextWake implements engine.NextWaker: the next rep start while idle, the
// earliest ready step launch while in a rep, nothing while only waiting on
// deliveries (onOpDone schedules the re-arm).
func (d *collectiveDriver) NextWake(now int64) (int64, bool) {
	if d.finished() {
		return 0, false
	}
	if !d.inRep {
		return max(d.repStart, now+1), true
	}
	wake := int64(-1)
	for i := range d.status {
		if d.status[i] != stepPending || d.waiting[i] != 0 {
			continue
		}
		at := max(d.readyAt[i], now+1)
		if wake < 0 || at < wake {
			wake = at
		}
	}
	if wake < 0 {
		return 0, false
	}
	return wake, true
}

// multicastDraws returns the Multicast kind's source and destination stream.
func multicastDraws(seed uint64) *engine.RNG { return engine.NewRNG(seed ^ 0x5eed5eed) }

// redraw draws the Multicast kind's source and destinations for the rep
// about to begin.
func (d *collectiveDriver) redraw() {
	st := &d.sched.Steps[0]
	st.Src = d.draw.Intn(d.spec.Participants)
	st.Dests = d.draw.Sample(nil, d.spec.Participants, d.s.cfg.Traffic.Degree, st.Src, &d.pool)
}

// beginRep resets per-rep state; entry steps (no dependencies) become ready
// at the rep start plus their source's deterministic entry skew.
func (d *collectiveDriver) beginRep(now int64) {
	if d.draw != nil {
		d.redraw()
	}
	d.inRep = true
	d.repStart = now
	d.degraded = false
	d.finalFirst = -1
	d.finalLast = -1
	d.doneSteps = 0
	for p := range d.phaseEnd {
		d.phaseEnd[p] = -1
		d.phaseLeft[p] = 0
	}
	for i, st := range d.sched.Steps {
		d.status[i] = stepPending
		d.ops[i] = nil
		d.waiting[i] = len(st.Deps)
		if len(st.Deps) == 0 {
			d.readyAt[i] = now + d.skew.At(d.rep, st.Src)
		} else {
			d.readyAt[i] = -1
		}
		d.phaseLeft[st.Phase-1]++
	}
	d.s.col.Coll.Started++
	if d.s.sim.Tracing() {
		d.s.sim.Emit(engine.TraceEvent{Kind: engine.TraceCollStart, Actor: "collective",
			Detail: fmt.Sprintf("rep=%d kind=%s steps=%d phases=%d",
				d.rep, d.spec.Kind, len(d.sched.Steps), d.sched.Phases)})
	}
}

func (d *collectiveDriver) launchReady(now int64) {
	launched := false
	for i := range d.sched.Steps {
		if d.status[i] == stepPending && d.waiting[i] == 0 && d.readyAt[i] <= now {
			d.launch(i)
			launched = true
		}
	}
	if launched {
		d.s.sim.Progress()
	}
}

// launch injects one schedule step as an op. The schedule is validated
// against the topology at build time, so planning cannot fail on a healthy
// model; a failure here is a model invariant violation.
func (d *collectiveDriver) launch(i int) {
	op, err := d.s.startCollectiveStep(d.spec.Kind, d.sched.Steps[i])
	if err != nil {
		panic(fmt.Sprintf("core: collective step %d unlaunchable: %v", i, err))
	}
	d.status[i] = stepInFlight
	d.ops[i] = op
	d.opStep[op.ID] = i
}

// onOpDone retires a completed step: it records phase completion, satisfies
// dependents (scheduling the driver's wake for their launch cycle), and
// finalizes the rep when its last step completes. Dropped destinations
// degrade the rep but never wedge it — a step completes when every
// destination is delivered or accounted dropped, so the schedule always
// makes progress on a faulty fabric.
func (d *collectiveDriver) onOpDone(idx int, op *flit.Op, now int64) {
	st := &d.sched.Steps[idx]
	d.status[idx] = stepDone
	d.ops[idx] = nil
	delete(d.opStep, op.ID)
	d.doneSteps++
	d.s.col.Coll.MessagesSent += int64(op.MessagesSent)
	if op.Dropped > 0 {
		d.degraded = true
	}
	ph := st.Phase - 1
	if now > d.phaseEnd[ph] {
		d.phaseEnd[ph] = now
	}
	d.phaseLeft[ph]--
	if d.phaseLeft[ph] == 0 && d.s.sim.Tracing() {
		d.s.sim.Emit(engine.TraceEvent{Kind: engine.TraceCollPhase, Actor: "collective",
			Detail: fmt.Sprintf("rep=%d phase=%d end=%d", d.rep, st.Phase, d.phaseEnd[ph])})
	}
	if st.Phase == d.sched.Phases && op.Dropped == 0 {
		if d.finalFirst < 0 || op.FirstArrival < d.finalFirst {
			d.finalFirst = op.FirstArrival
		}
		if op.LastArrival > d.finalLast {
			d.finalLast = op.LastArrival
		}
	}
	if d.doneSteps == len(d.sched.Steps) {
		d.finishRep(now)
		return
	}
	wake := int64(-1)
	for _, j := range d.dependents[idx] {
		d.waiting[j]--
		if d.waiting[j] == 0 {
			d.readyAt[j] = now + d.handoff
			if wake < 0 || d.readyAt[j] < wake {
				wake = d.readyAt[j]
			}
		}
	}
	if wake > now {
		if err := d.s.sim.ScheduleWakeAt(d.idx, wake); err != nil {
			panic(err)
		}
	}
}

// finishRep samples the completed rep and arms the next one. Per-phase
// latencies are defined cumulatively — T_0 is the rep start and T_p =
// max(T_{p-1}, last completion of phase p) — so they telescope to the
// end-to-end last-arrival latency exactly, whatever order steps completed in.
func (d *collectiveDriver) finishRep(now int64) {
	col := &d.s.col.Coll
	col.Completed++
	latency := now - d.repStart
	if d.degraded {
		col.Degraded++
	} else {
		col.LastArrival = append(col.LastArrival, float64(latency))
		if d.finalFirst >= 0 {
			col.Skew = append(col.Skew, float64(d.finalLast-d.finalFirst))
		}
		t := d.repStart
		for p := 0; p < d.sched.Phases; p++ {
			end := d.phaseEnd[p]
			if end < t {
				end = t
			}
			col.Phases[p] = append(col.Phases[p], float64(end-t))
			t = end
		}
	}
	if d.s.sim.Tracing() {
		d.s.sim.Emit(engine.TraceEvent{Kind: engine.TraceCollDone, Actor: "collective",
			Detail: fmt.Sprintf("rep=%d latency=%d skew=%d degraded=%v",
				d.rep, latency, d.finalLast-max(d.finalFirst, 0), d.degraded)})
	}
	d.inRep = false
	d.rep++
	if d.rep < d.spec.Reps {
		d.repStart = now + max(1, d.spec.GapCycles)
		if err := d.s.sim.ScheduleWakeAt(d.idx, d.repStart); err != nil {
			panic(err)
		}
	}
}

// EncodeState writes the driver's mutable state. The schedule itself is not
// serialized: it is a pure function of the configuration, rebuilt on restore.
func (d *collectiveDriver) EncodeState(e *ckpt.Enc, g *ckpt.Graph) {
	e.Bool(d.inRep)
	e.Int(d.rep)
	e.I64(d.repStart)
	e.Bool(d.degraded)
	e.I64(d.finalFirst)
	e.I64(d.finalLast)
	for i := range d.sched.Steps {
		e.U8(d.status[i])
		e.I64(d.readyAt[i])
		e.U64(g.OpID(d.ops[i]))
	}
	for p := range d.phaseEnd {
		e.I64(d.phaseEnd[p])
	}
}

// DecodeState restores the driver's mutable state and rebuilds the derived
// dependency and phase accounting from it.
func (d *collectiveDriver) DecodeState(dec *ckpt.Dec, g *ckpt.Graph) {
	d.inRep = dec.Bool()
	d.rep = dec.Int()
	d.repStart = dec.I64()
	d.degraded = dec.Bool()
	d.finalFirst = dec.I64()
	d.finalLast = dec.I64()
	for i := range d.sched.Steps {
		d.status[i] = dec.U8()
		d.readyAt[i] = dec.I64()
		ref := dec.U64()
		if dec.Err() != nil {
			return
		}
		if d.status[i] > stepDone {
			dec.Fail("collective step %d status %d out of range", i, d.status[i])
			return
		}
		op := g.OpAt(dec, ref)
		if dec.Err() != nil {
			return
		}
		if (op != nil) != (d.status[i] == stepInFlight) {
			dec.Fail("collective step %d: op ref inconsistent with status %d", i, d.status[i])
			return
		}
		d.ops[i] = op
	}
	for p := range d.phaseEnd {
		d.phaseEnd[p] = dec.I64()
	}
	if dec.Err() != nil {
		return
	}
	if d.rep < 0 || d.rep > d.spec.Reps {
		dec.Fail("collective rep %d outside [0,%d]", d.rep, d.spec.Reps)
		return
	}
	if d.inRep && d.rep >= d.spec.Reps {
		dec.Fail("collective in rep %d but only %d reps configured", d.rep, d.spec.Reps)
		return
	}
	if d.draw != nil { // replay the draws of every rep begun
		d.draw = multicastDraws(d.s.cfg.Seed)
		for r := 0; r < d.rep || r == d.rep && d.inRep; r++ {
			d.redraw()
		}
	}
	d.doneSteps = 0
	for p := range d.phaseLeft {
		d.phaseLeft[p] = 0
	}
	d.opStep = make(map[uint64]int, len(d.sched.Steps))
	for i, st := range d.sched.Steps {
		if d.status[i] == stepDone {
			d.doneSteps++
		} else {
			d.phaseLeft[st.Phase-1]++
		}
		if op := d.ops[i]; op != nil {
			d.opStep[op.ID] = i
		}
		unmet := 0
		for _, dep := range st.Deps {
			if d.status[dep] != stepDone {
				unmet++
			}
		}
		d.waiting[i] = unmet
		if d.status[i] != stepPending && unmet != 0 {
			dec.Fail("collective step %d launched with %d unmet deps", i, unmet)
			return
		}
	}
	if d.inRep && d.doneSteps == len(d.sched.Steps) {
		dec.Fail("collective rep %d complete but still marked in-rep", d.rep)
	}
}
