package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"reflect"
	"testing"

	"mdworm/internal/ckpt"
	"mdworm/internal/collective"
	"mdworm/internal/engine"
	"mdworm/internal/faults"
	"mdworm/internal/flit"
	"mdworm/internal/obs"
	"mdworm/internal/stats"
)

// snapTestConfig is a small, fast workload exercising both traffic classes.
func snapTestConfig() Config {
	cfg := DefaultConfig()
	cfg.Arity = 4
	cfg.Stages = 2
	cfg.WarmupCycles = 200
	cfg.MeasureCycles = 600
	cfg.DrainCycles = 60_000
	cfg.Traffic.OpRate = 0.002
	cfg.Traffic.MulticastFraction = 0.5
	cfg.Traffic.Degree = 6
	return cfg
}

// errSnapAbort is the sentinel a test sink returns to simulate a crash at a
// checkpoint boundary.
var errSnapAbort = errors.New("snapshot taken, aborting run")

// snapshotAt runs cfg until the first checkpoint at a cycle divisible by
// every and returns the blob (simulating a crash right after the write).
func snapshotAt(t *testing.T, cfg Config, every int64) []byte {
	t.Helper()
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var blob []byte
	_, err = sim.RunCheckpointed(every, func(data []byte, cycle int64) error {
		blob = data
		return errSnapAbort
	})
	if !errors.Is(err, errSnapAbort) {
		t.Fatalf("run ended with %v before the first checkpoint", err)
	}
	return blob
}

// TestSnapshotRestoreByteStable checks that restoring a snapshot and
// immediately snapshotting again reproduces the exact bytes: the state
// overlay is lossless and the encoding deterministic.
func TestSnapshotRestoreByteStable(t *testing.T) {
	blob := snapshotAt(t, snapTestConfig(), 500)
	sim, err := Restore(blob)
	if err != nil {
		t.Fatal(err)
	}
	again, err := sim.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, again) {
		t.Fatalf("restore→snapshot changed the blob: %d bytes vs %d", len(blob), len(again))
	}
}

// TestSnapshotRefusals checks that attachments living outside the
// checkpoint — captures, tracers, delivery hooks — make Snapshot refuse
// rather than silently drop them.
func TestSnapshotRefusals(t *testing.T) {
	mk := func() *Simulator {
		sim, err := New(snapTestConfig())
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}

	sim := mk()
	sim.Observe(&obs.Capture{SampleEvery: 64})
	if _, err := sim.Snapshot(); err == nil {
		t.Error("snapshot with capture attached succeeded")
	}

	sim = mk()
	sim.SetTracer(&engine.WriterTracer{W: io.Discard})
	if _, err := sim.Snapshot(); err == nil {
		t.Error("snapshot with tracer installed succeeded")
	}

	sim = mk()
	sim.deliverHook = func(m *flit.Message, proc int, now int64) {}
	if _, err := sim.Snapshot(); err == nil {
		t.Error("snapshot with delivery hook succeeded")
	}

	sim = mk()
	if _, err := sim.Snapshot(); err != nil {
		t.Errorf("bare simulator refused to snapshot: %v", err)
	}
}

// TestRestoreRejectsCorruption flips one byte at a sample of positions and
// checks Restore reports a structured error (or, where the flip lands in
// unvalidated numeric slack, restores something) — and never panics.
func TestRestoreRejectsCorruption(t *testing.T) {
	blob := snapshotAt(t, snapTestConfig(), 500)

	if _, err := Restore(nil); !errors.Is(err, ckpt.ErrCorrupt) {
		t.Errorf("nil blob gave %v", err)
	}
	if _, err := Restore(blob[:len(blob)/2]); !errors.Is(err, ckpt.ErrCorrupt) {
		t.Errorf("truncated blob gave %v", err)
	}

	// The container CRC catches every single-byte flip in the body.
	for _, pos := range []int{0, 5, len(blob) / 2, len(blob) - 1} {
		mut := append([]byte(nil), blob...)
		mut[pos] ^= 0x40
		if _, err := Restore(mut); err == nil {
			t.Errorf("flip at %d restored successfully", pos)
		}
	}
}

// TestRestoreRequiresEventsSection: a blob without the event kernel's
// queued-wake section, the format that predates the event kernel, is
// corrupt rather than restored with every component woken.
func TestRestoreRequiresEventsSection(t *testing.T) {
	blob := snapshotAt(t, snapTestConfig(), 500)
	// Re-frame the container (see package ckpt) without the section.
	body := blob[len(ckpt.Magic)+12:]
	var kept []byte
	for off := 0; off < len(body); {
		start := off
		nlen := int(binary.LittleEndian.Uint16(body[off:]))
		name := string(body[off+2 : off+2+nlen])
		off += 2 + nlen
		off += 8 + int(binary.LittleEndian.Uint64(body[off:]))
		if name != secEvents {
			kept = append(kept, body[start:off]...)
		}
	}
	if len(kept) == len(body) {
		t.Fatalf("snapshot has no %q section", secEvents)
	}
	old := append([]byte(ckpt.Magic), make([]byte, 12)...)
	binary.LittleEndian.PutUint32(old[len(ckpt.Magic):], crc32.ChecksumIEEE(kept))
	binary.LittleEndian.PutUint64(old[len(ckpt.Magic)+4:], uint64(len(kept)))
	old = append(old, kept...)
	if _, err := Restore(old); !errors.Is(err, ckpt.ErrCorrupt) {
		t.Fatalf("blob without %q section gave %v, want ckpt.ErrCorrupt", secEvents, err)
	}
}

// finishedBranchConfig broadcasts one 64-flit worm from node 0 of a
// one-switch, 4-node fabric while the switch's output to node 2 is stuck
// until cycle 601. The branches to nodes 1 and 3 send their tails at cycle
// 135 and deliver at 136; their sibling holds the worm in the switch until
// node 2 receives it at cycle 666.
func finishedBranchConfig(arch SwitchArch) Config {
	cfg := DefaultConfig()
	cfg.Arity, cfg.Stages = 4, 1
	cfg.Arch = arch
	cfg.Traffic.OpRate = 0
	cfg.Traffic.Degree = 3
	cfg.WarmupCycles, cfg.MeasureCycles = 0, 100
	cfg.Collective = collective.Spec{Kind: collective.Broadcast, PayloadFlits: 64, Reps: 1}
	cfg.Faults = faults.Plan{Events: []faults.Event{
		{Kind: faults.PortStuck, At: 1, Duration: 600, Switch: 0, Port: 2},
	}}
	return cfg
}

// uninterrupted builds cfg and returns the simulator with the results of
// running it without interruption.
func uninterrupted(t *testing.T, cfg Config) (*Simulator, stats.Results) {
	t.Helper()
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return sim, r
}

// delivered returns how many messages each NIC has received.
func delivered(s *Simulator) []int64 {
	var d []int64
	for _, n := range s.nics {
		d = append(d, n.Stats().MessagesDelivered)
	}
	return d
}

// resumeAt runs sim to the checkpoint at cycle at (the first multiple of at
// past its clock), checks which NICs have received the broadcast by then,
// restores the checkpoint and finishes the run from it.
func resumeAt(t *testing.T, sim *Simulator, at int64, want []int64) stats.Results {
	t.Helper()
	var blob []byte
	_, err := sim.RunCheckpointed(at, func(data []byte, cycle int64) error {
		if got := delivered(sim); !reflect.DeepEqual(got, want) {
			t.Fatalf("cycle %d: NICs delivered %v, want %v", cycle, got, want)
		}
		blob = data
		return errSnapAbort
	})
	if !errors.Is(err, errSnapAbort) {
		t.Fatalf("run ended with %v before cycle %d", err, at)
	}
	restored, err := Restore(blob)
	if err != nil {
		t.Fatalf("restore at cycle %d: %v", at, err)
	}
	r, err := restored.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestSnapshotWithFinishedBranch checkpoints both switch models while a
// multicast's finished branches have delivered and their sibling is held
// back by a stuck output. The receiving NICs have released the finished
// branches' children, so the switch must no longer name them; the resumed
// run must match the uninterrupted one.
func TestSnapshotWithFinishedBranch(t *testing.T) {
	for _, arch := range []SwitchArch{CentralBuffer, InputBuffer} {
		t.Run(arch.String(), func(t *testing.T) {
			cfg := finishedBranchConfig(arch)
			_, want := uninterrupted(t, cfg)
			sim, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := resumeAt(t, sim, 300, []int64{0, 1, 0, 1}); !reflect.DeepEqual(got, want) {
				t.Fatalf("resumed results differ\nwant %+v\ngot  %+v", want, got)
			}
		})
	}
}

// TestRestoreFinishedBranchNamingChild restores checkpoints written before
// finished branches dropped their child. Each was taken at cycle 136 of
// finishedBranchConfig, when the tails of the finished branches are on the
// wire and their branch records still name the children the NICs release a
// cycle later. The restored switch must drop those names: a checkpoint
// taken after the release restores, and the run matches the uninterrupted
// one.
func TestRestoreFinishedBranchNamingChild(t *testing.T) {
	for _, c := range []struct {
		arch SwitchArch
		blob string
	}{
		{CentralBuffer, "testdata/finished-branch-cb.ckpt"},
		{InputBuffer, "testdata/finished-branch-ib.ckpt"},
	} {
		t.Run(c.arch.String(), func(t *testing.T) {
			blob, err := os.ReadFile(c.blob)
			if err != nil {
				t.Fatal(err)
			}
			sim, err := Restore(blob)
			if err != nil {
				t.Fatal(err)
			}
			ref, want := uninterrupted(t, finishedBranchConfig(c.arch))
			if sim.Now() != 136 || !reflect.DeepEqual(sim.Config(), ref.Config()) {
				t.Fatalf("%s is not a cycle-136 checkpoint of finishedBranchConfig", c.blob)
			}
			if got := resumeAt(t, sim, 300, []int64{0, 1, 0, 1}); !reflect.DeepEqual(got, want) {
				t.Fatalf("resumed results differ\nwant %+v\ngot  %+v", want, got)
			}
		})
	}
}

// FuzzSnapshotRoundTrip feeds corrupted and truncated snapshot bytes to
// Restore: any outcome but a clean error or a consistent simulator is a
// bug, and panics are failures by construction.
func FuzzSnapshotRoundTrip(f *testing.F) {
	cfg := snapTestConfig()
	cfg.Traffic.OpRate = 0.004
	sim, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	var seed []byte
	_, err = sim.RunCheckpointed(300, func(data []byte, cycle int64) error {
		seed = data
		return errSnapAbort
	})
	if !errors.Is(err, errSnapAbort) {
		f.Fatalf("seed run ended with %v", err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/3])
	f.Add([]byte(ckpt.Magic))
	f.Add([]byte{})

	// A seed whose event-queue section is non-empty: checkpoint every cycle
	// until a snapshot catches sleeping components with queued wake events,
	// so the fuzzer mutates the events section too, not just engine state.
	simEv, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	var seedEvents []byte
	_, err = simEv.RunCheckpointed(1, func(data []byte, cycle int64) error {
		if simEv.sim.PendingEvents() == 0 {
			return nil
		}
		seedEvents = data
		return errSnapAbort
	})
	if !errors.Is(err, errSnapAbort) {
		f.Fatalf("no checkpoint caught a non-empty event queue (run ended with %v)", err)
	}
	f.Add(seedEvents)

	f.Fuzz(func(t *testing.T, data []byte) {
		sim, err := Restore(data)
		if err != nil {
			if sim != nil {
				t.Fatal("Restore returned both a simulator and an error")
			}
			return
		}
		// A blob that passes every validation must yield a simulator whose
		// state is internally consistent enough to re-snapshot.
		if _, err := sim.Snapshot(); err != nil {
			t.Fatalf("restored simulator cannot snapshot: %v", err)
		}
	})
}
