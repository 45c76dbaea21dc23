package engine

import (
	"errors"
	"slices"
	"testing"

	"mdworm/internal/flit"
)

// countdown holds work until cycle due and calls Progress on every cycle it
// counts, like a NIC's send overhead. Declared event-driven it sleeps until
// due and, on waking, charges the cycles it slept through.
type countdown struct {
	sim     *Simulation
	due     int64 // cycle the work completes; 0 once it has
	last    int64 // last cycle charged
	counted int64 // cycles charged
	steps   int
}

func (c *countdown) Name() string   { return "countdown" }
func (c *countdown) Quiesced() bool { return c.due == 0 }
func (c *countdown) Step(now int64) {
	c.steps++
	if c.due == 0 {
		return
	}
	c.counted += now - c.last
	c.last = now
	c.sim.Progress()
	if now == c.due {
		c.due = 0
	}
}

func (c *countdown) NextWake(now int64) (int64, bool) { return c.due, c.due > now }

// countdownSim builds a simulation whose watchdog limit (50) is far below
// the countdown (due at cycle 500). sleep declares the countdown event
// driven; without it the countdown is stepped every cycle. stranded leaves a
// flit on a link nobody reads, a deadlock the watchdog must report once the
// countdown ends; stuck adds a component that holds work and never
// progresses.
func countdownSim(sleep, stranded, stuck bool) (*Simulation, *countdown) {
	sim := NewSimulation(50)
	c := &countdown{sim: sim, due: 500, last: -1}
	i := sim.AddComponent(c)
	if sleep {
		sim.DeclareEventDriven(i)
	}
	if stuck {
		sim.AddComponent(stuckComponent{})
	}
	if stranded {
		l := sim.NewLink("stranded", 1, 4)
		l.TrySend(0, flit.Ref{W: testWorm(1), Idx: 0})
	}
	return sim, c
}

// TestDeadlineSleepKeepsWatchdogQuiet checks that a component sleeping on a
// deadline ten times the watchdog limit counts as progressing on every cycle
// it sleeps through, is busy for Quiesced and Drain, and charges the same
// cycles as when it is stepped every cycle.
func TestDeadlineSleepKeepsWatchdogQuiet(t *testing.T) {
	sim, c := countdownSim(true, false, false)
	if err := sim.Run(300); err != nil {
		t.Fatalf("watchdog fired while the countdown slept: %v", err)
	}
	if sim.Quiesced() {
		t.Fatal("Quiesced reports idle while the countdown sleeps")
	}
	if DeadlineSleep && (sim.AwakeCount() != 0 || c.steps != 1) {
		t.Fatalf("countdown stepped %d times, %d components awake: it did not sleep", c.steps, sim.AwakeCount())
	}
	ok, err := sim.Drain(1000)
	if !ok || err != nil {
		t.Fatalf("drain: %v %v", ok, err)
	}
	twin, tc := countdownSim(false, false, false)
	if ok, err := twin.Drain(1000); !ok || err != nil {
		t.Fatalf("per-cycle drain: %v %v", ok, err)
	}
	if sim.Now != twin.Now || c.counted != tc.counted {
		t.Fatalf("drained at %d having counted %d cycles, per-cycle drained at %d having counted %d",
			sim.Now, c.counted, twin.Now, tc.counted)
	}
	if c.counted != 501 {
		t.Fatalf("counted %d cycles, want 501 (0 through 500)", c.counted)
	}
	if DeadlineSleep && c.steps != 2 {
		t.Fatalf("countdown stepped %d times, want 2 (its start and its deadline)", c.steps)
	}
}

// TestDeadlineSleepDeadlockMatchesPerCycle checks that a real deadlock
// beside a sleeping countdown is reported at the cycle, and with the stuck
// set, that stepping the countdown every cycle reports: the watchdog cannot
// fire while the countdown runs, and fires a full limit after it ends.
func TestDeadlineSleepDeadlockMatchesPerCycle(t *testing.T) {
	for _, tc := range []struct {
		name  string
		stuck bool
	}{{"stranded-flit", false}, {"stranded-flit-and-stuck-component", true}} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(sleep bool) *DeadlockError {
				sim, _ := countdownSim(sleep, true, tc.stuck)
				err := sim.Run(2000)
				var de *DeadlockError
				if !errors.As(err, &de) {
					t.Fatalf("sleep=%v: want a DeadlockError, got %v", sleep, err)
				}
				return de
			}
			got, want := run(true), run(false)
			if got.Cycle != want.Cycle || !slices.Equal(got.Stuck, want.Stuck) {
				t.Fatalf("sleeping countdown: deadlock at %d stuck %v; per-cycle: at %d stuck %v",
					got.Cycle, got.Stuck, want.Cycle, want.Stuck)
			}
			if want.Cycle != 551 {
				t.Fatalf("deadlock at cycle %d, want 551 (a limit of 50 after the countdown's last cycle)", want.Cycle)
			}
		})
	}
}
