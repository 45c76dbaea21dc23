package nic

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"mdworm/internal/bitset"
	"mdworm/internal/ckpt"
	"mdworm/internal/engine"
	"mdworm/internal/flit"
)

// sleepScript is the stimulus of TestDeadlineSleepMatchesPerCycleNIC, by
// cycle. Two forwarded worms give the NIC receive-overhead tasks (the first
// while its send queue is empty), three submits land mid-task, mid-countdown
// and after the link is down, a stall opens mid-countdown and another while
// a task keeps the NIC counting, and the inject link fails mid-countdown.
// Worm flits are fed one a cycle, so every cycle of a worm is in the list.
var sleepScript = []int64{0, 1, 2, 3, 4, 20, 80, 110, 111, 112, 113, 114, 130, 140, 160, 200}

const sleepScriptEnd = 260

// sleepEnv is a NIC test bench with a record of the NIC's drops and a queue
// of worm flits fed to its eject link, one a cycle.
type sleepEnv struct {
	*env
	feed  []flit.Ref
	drops []string
}

func newSleepEnv(t *testing.T, sleep bool) *sleepEnv {
	e := &sleepEnv{env: newEnv(t, Config{SendOverhead: 40, RecvOverhead: 30, RecvFIFOFlits: 16})}
	if sleep {
		const nicIdx, outIdx = 0, 1 // newEnv registers the NIC, then the wire
		e.nic.SetIndex(nicIdx)
		e.sim.DeclareInputs(nicIdx, e.eject)
		e.sim.DeclareEventDriven(nicIdx)
		e.sim.DeclareOutputs(nicIdx, e.inject)
		e.sim.DeclareInputs(outIdx, e.inject)
	}
	e.nic.SetOnDrop(func(m *flit.Message, n int, now int64) {
		e.drops = append(e.drops, fmt.Sprintf("msg%d/%d@%d", m.ID, n, now))
	})
	return e
}

// act applies the script's stimulus for the current cycle, between cycles.
func (e *sleepEnv) act() {
	now := e.sim.Now
	switch now {
	case 0, 110:
		op := flit.NewOp(e.ids.Next(), flit.ClassMulticast, 9, 4, now)
		m := e.newMsg([]int{3}, 4, op, &flit.ForwardStep{Group: []int{3, 5, 7, 8}, Hi: 4})
		m.Src = 9
		w := &flit.Worm{ID: e.ids.Next(), Msg: m, Dests: bitset.FromSlice(16, []int{3})}
		for i := 0; i < w.Len(); i++ {
			e.feed = append(e.feed, flit.Ref{W: w, Idx: i})
		}
	case 20, 130, 200:
		e.nic.Submit(e.newMsg([]int{5}, 4, nil, nil))
	case 80:
		e.nic.StallUntil(100)
	case 140:
		e.nic.StallUntil(150)
	case 160:
		e.inject.Fail()
	}
	if len(e.feed) > 0 && e.eject.TrySend(now, e.feed[0]) {
		e.feed = e.feed[1:]
	}
}

// observe renders what the NIC reports: its counters, its checkpoint bytes,
// the cycles its flits reached the wire, and its drops.
func (e *sleepEnv) observe() string {
	var enc ckpt.Enc
	e.nic.EncodeState(&enc, ckpt.NewGraph())
	return fmt.Sprintf("stats %+v\nstate %x\nwire %v\ndrops %v", e.nic.Stats(), enc.Bytes(), e.out.times, e.drops)
}

// TestDeadlineSleepMatchesPerCycleNIC runs the script on a NIC declared
// event driven, which sleeps through its overheads, and on a twin stepped
// every cycle. The sleeper observed every cycle must report what the twin
// reports at every cycle, and a second sleeper, run from one of the script's
// cycles to the next in single calls, must report it at each of them.
func TestDeadlineSleepMatchesPerCycleNIC(t *testing.T) {
	sleeper, jumper, twin := newSleepEnv(t, true), newSleepEnv(t, true), newSleepEnv(t, false)
	want := make(map[int64]string)
	slept := 0
	for now := int64(0); ; now++ {
		if slices.Contains(sleepScript, now) {
			sleeper.act()
			twin.act()
		}
		want[now] = twin.observe()
		if got := sleeper.observe(); got != want[now] {
			t.Fatalf("cycle %d: sleeping NIC reports\n%s\nper-cycle twin reports\n%s", now, got, want[now])
		}
		if now == sleepScriptEnd {
			break
		}
		if !sleeper.nic.Quiesced() && sleeper.sim.AwakeCount() == 0 {
			slept++
		}
		for _, e := range []*sleepEnv{sleeper, twin} {
			if err := e.sim.Run(1); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(sleeper.feed) != 0 || len(sleeper.drops) != 5 || sleeper.nic.Stats().ForwardedMsgs != 4 {
		t.Fatalf("script did not play out: %d flits unfed, drops %v, stats %+v",
			len(sleeper.feed), sleeper.drops, sleeper.nic.Stats())
	}
	if engine.DeadlineSleep && slept < 100 {
		t.Fatalf("the NIC slept through %d cycles of work, want at least 100", slept)
	}

	for _, at := range append(slices.Clone(sleepScript), sleepScriptEnd) {
		if d := at - jumper.sim.Now; d > 0 {
			if err := jumper.sim.Run(d); err != nil {
				t.Fatal(err)
			}
		}
		if at < sleepScriptEnd {
			jumper.act()
		}
		if got := jumper.observe(); got != want[at] {
			t.Fatalf("cycle %d: NIC run in jumps reports\n%s\nper-cycle twin reports\n%s", at, got, want[at])
		}
	}
}

// TestDeadlineSleepStallKeepsWatchdogCycle stalls a NIC that sleeps through
// its send overhead, with no forwarding task pending, and checks that the
// watchdog reports the deadlock on the cycle, and with the stuck set, that a
// twin stepped every cycle reports: a stalled NIC counts nothing down, so it
// must not sleep as if it progressed.
func TestDeadlineSleepStallKeepsWatchdogCycle(t *testing.T) {
	for _, stall := range []struct {
		name  string
		until int64
	}{{"finite", 1000}, {"permanent", math.MaxInt64}} {
		t.Run(stall.name, func(t *testing.T) {
			run := func(sleep bool) *engine.DeadlockError {
				e := newSleepEnv(t, sleep)
				e.sim.WatchdogLimit = 50
				e.nic.Submit(e.newMsg([]int{5}, 4, nil, nil))
				if err := e.sim.Run(30); err != nil {
					t.Fatal(err)
				}
				e.nic.StallUntil(stall.until)
				err := e.sim.Run(2000)
				var de *engine.DeadlockError
				if !errors.As(err, &de) {
					t.Fatalf("sleep=%v: want a DeadlockError, got %v", sleep, err)
				}
				return de
			}
			got, want := run(true), run(false)
			if got.Cycle != want.Cycle || !slices.Equal(got.Stuck, want.Stuck) {
				t.Fatalf("sleeping NIC: deadlock at %d stuck %v; per-cycle: at %d stuck %v",
					got.Cycle, got.Stuck, want.Cycle, want.Stuck)
			}
			if want.Cycle != 80 {
				t.Fatalf("deadlock at cycle %d, want 80 (a limit of 50 after the last countdown cycle, 29)", want.Cycle)
			}
		})
	}
}
