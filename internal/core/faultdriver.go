package core

import (
	"math"

	"mdworm/internal/faults"
	"mdworm/internal/switches/centralbuf"
)

// faultDriver applies the configured fault plan through the engine's event
// loop. It declares no input links, so the active-set scheduler steps it
// every cycle; it always reports quiesced because pending faults are not
// work that should hold the drain open (a plan scheduled after the last
// delivery simply never fires).
type faultDriver struct {
	s      *Simulator
	events []faults.Event // normalized: sorted by At
	next   int

	// activeUntil is the latest end cycle of any *finite* stuck/stall
	// window applied so far. While such a window is open the driver feeds
	// the watchdog: a bounded stall is scheduled progress, not a deadlock.
	// Permanent faults never extend it, so a system they wedge still trips
	// the watchdog and reports a structured DeadlockError.
	activeUntil int64
}

func newFaultDriver(s *Simulator, plan faults.Plan) *faultDriver {
	return &faultDriver{s: s, events: plan.Events}
}

// Name identifies the driver in diagnostics.
func (d *faultDriver) Name() string { return "fault-driver" }

// Quiesced always holds: un-fired faults must not keep the drain alive.
func (d *faultDriver) Quiesced() bool { return true }

// Step fires every event scheduled at or before the current cycle.
func (d *faultDriver) Step(now int64) {
	for d.next < len(d.events) && d.events[d.next].At <= now {
		d.apply(d.events[d.next], now)
		d.next++
	}
	if now < d.activeUntil {
		d.s.sim.Progress()
	}
}

// NextWake implements engine.NextWaker: the driver needs stepping every
// cycle while a finite stall window feeds the watchdog, at the next
// scheduled fault otherwise. With the plan exhausted it sleeps for good.
func (d *faultDriver) NextWake(now int64) (int64, bool) {
	if now < d.activeUntil {
		return now + 1, true
	}
	if d.next < len(d.events) {
		return d.events[d.next].At, true
	}
	return 0, false
}

func (d *faultDriver) apply(e faults.Event, now int64) {
	// until covers the stuck/stall kinds: a zero Duration means permanent.
	until := int64(math.MaxInt64)
	if e.Duration > 0 {
		until = e.At + e.Duration
		if until > d.activeUntil {
			d.activeUntil = until
		}
	}
	switch e.Kind {
	case faults.LinkDown:
		// A wire failure severs both directions of the connection, at worm
		// boundaries (in-flight worms finish; new worms are refused).
		pio := d.s.ports[e.Switch][e.Port]
		if pio.Out != nil {
			pio.Out.Fail()
		}
		if pio.In != nil {
			pio.In.Fail()
		}
	case faults.PortStuck:
		if pio := d.s.ports[e.Switch][e.Port]; pio.Out != nil {
			pio.Out.StickUntil(until)
		}
	case faults.CBShrink:
		// Config validation admits cb-shrink on central-buffer fabrics only.
		d.s.sws[e.Switch].(*centralbuf.Switch).Shrink(e.Chunks)
	case faults.NICStall:
		d.s.nics[e.Node].StallUntil(until)
	}
}
