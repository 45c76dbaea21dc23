package core

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"mdworm/internal/collective"
	"mdworm/internal/faults"
	"mdworm/internal/flit"
)

// TestHeldBranchKeepsMessageAndOp runs finishedBranchConfig on both switch
// models: the broadcast's branches to nodes 1 and 3 deliver at cycle 136,
// while a stuck output holds the branch to node 2 until cycle 666. The
// broadcast's message and op must stay out of the pool until that worm is
// released, then go back to it, and the results must not change.
func TestHeldBranchKeepsMessageAndOp(t *testing.T) {
	for _, arch := range []SwitchArch{CentralBuffer, InputBuffer} {
		t.Run(arch.String(), func(t *testing.T) {
			sim, err := New(finishedBranchConfig(arch))
			if err != nil {
				t.Fatal(err)
			}
			var (
				msg          *flit.Message
				op           *flit.Op
				msgID, opID  uint64
				deliveriesAt []int64
			)
			sim.deliverHook = func(m *flit.Message, proc int, now int64) {
				if msg == nil {
					msg, op, msgID, opID = m, m.Op, m.ID, m.Op.ID
				}
				if m != msg || m.ID != msgID || m.Op != op || op.ID != opID {
					t.Fatalf("cycle %d: node %d received message %d of op %v; message %d of op %d went back to the pool early",
						now, proc, m.ID, m.Op, msgID, opID)
				}
				deliveriesAt = append(deliveriesAt, now)
			}
			r, err := sim.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(deliveriesAt, []int64{136, 136, 666}) {
				t.Fatalf("deliveries at cycles %v, want [136 136 666]", deliveriesAt)
			}
			if msg.ID != 0 || op.ID != 0 {
				t.Fatalf("message %d and op %d stayed out of the pool after the last worm's release", msg.ID, op.ID)
			}
			c := r.Collective
			if c.Completed != 1 || c.Degraded != 0 || c.LastArrival.Max != 666 || c.Skew.Max != 530 || r.DrainCycles != 567 {
				t.Fatalf("results changed: collective %+v, drain %d cycles", c, r.DrainCycles)
			}
		})
	}
}

// TestSinkingWormKeepsOp sends a unicast through a switch whose output to
// the destination has failed. The switch drops the destination at decode,
// which completes the op, and then sinks the worm's remaining flits; the
// worm still names the op's message, so the op must stay out of the pool
// until the switch releases the worm, and then go back to it.
func TestSinkingWormKeepsOp(t *testing.T) {
	for _, arch := range []SwitchArch{CentralBuffer, InputBuffer} {
		t.Run(arch.String(), func(t *testing.T) {
			cfg := finishedBranchConfig(arch)
			cfg.Collective = collective.Spec{}
			cfg.Faults = faults.Plan{Events: []faults.Event{{Kind: faults.LinkDown, At: 1, Switch: 0, Port: 2}}}
			sim, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sim.sim.Step() // the fault takes effect
			op, err := sim.startOp(&sim.worms, 0, []int{2}, false, 64)
			if err != nil {
				t.Fatal(err)
			}
			id := op.ID
			var completed, recycled int64
			for completed == 0 || recycled == 0 {
				if sim.Now() > 2_000 {
					t.Fatalf("op completed at cycle %d, went back to the pool at %d; want both by cycle 2000",
						completed, recycled)
				}
				sim.sim.Step()
				switch {
				case completed == 0 && sim.outstanding == 0:
					completed = sim.Now()
					if op.ID != id || op.Dropped != 1 {
						t.Fatalf("cycle %d: completed op went back to the pool with its worm still sinking: %+v", completed, *op)
					}
				case completed != 0 && op.ID != id:
					recycled = sim.Now()
				}
			}
			// The worm's 65 flits sink one a cycle after the decode.
			if recycled-completed < 60 {
				t.Fatalf("op completed at cycle %d and went back to the pool at %d, before its worm sank", completed, recycled)
			}
		})
	}
}

// TestRunOpKeepsOps checks that ops returned to a caller never go back to
// the pool: a second RunOp on the same simulator leaves the first op
// unchanged.
func TestRunOpKeepsOps(t *testing.T) {
	for _, scheme := range []collective.Scheme{collective.HardwareBitString, collective.SoftwareBinomial} {
		t.Run(scheme.String(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Scheme = scheme
			sim, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			_, first, err := sim.RunOp(0, []int{1, 9, 33, 63}, true, 64, 1_000_000)
			if err != nil {
				t.Fatal(err)
			}
			want := *first
			_, second, err := sim.RunOp(5, []int{2, 40}, true, 64, 1_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if second == first || !reflect.DeepEqual(*first, want) {
				t.Fatalf("second RunOp changed the first op:\nwant %+v\ngot  %+v", want, *first)
			}
		})
	}
}

// pendingForwards counts the software-multicast forwarding tasks the NICs
// hold.
func pendingForwards(s *Simulator) int {
	n := 0
	for _, nc := range s.nics {
		n += nc.PendingForwards()
	}
	return n
}

// TestSnapshotWithPendingForwards checkpoints an SW-UMIN run while NICs hold
// forwarding tasks, whose messages the checkpoint writes as subtree
// members and the decoder rebuilds as rank ranges. The restored simulator
// must re-snapshot to the same bytes and finish with the uninterrupted
// run's results.
func TestSnapshotWithPendingForwards(t *testing.T) {
	cfg := snapTestConfig()
	cfg.Scheme = collective.SoftwareBinomial
	cfg.Traffic.OpRate = 0.004
	_, want := uninterrupted(t, cfg)

	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var blob []byte
	_, err = sim.RunCheckpointed(25, func(data []byte, cycle int64) error {
		if cycle < cfg.WarmupCycles || pendingForwards(sim) < 2 {
			return nil
		}
		blob = data
		return errSnapAbort
	})
	if !errors.Is(err, errSnapAbort) {
		t.Fatalf("no checkpoint caught pending forwarding tasks (run ended with %v)", err)
	}
	restored, err := Restore(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got := pendingForwards(restored); got != pendingForwards(sim) {
		t.Fatalf("restored %d forwarding tasks, want %d", got, pendingForwards(sim))
	}
	again, err := restored.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, blob) {
		t.Fatal("restored simulator re-snapshots to different bytes")
	}
	got, err := restored.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed results differ\nwant %+v\ngot  %+v", want, got)
	}
}
