package inputbuf

import (
	"testing"

	"mdworm/internal/engine"
	"mdworm/internal/flit"
	"mdworm/internal/switches/switchtest"
)

// newHarness wires one switch of cfg into switchtest's one-stage fabric.
func newHarness(cfg Config) (*switchtest.Shuttle, *Switch) {
	h := switchtest.NewShuttle(cfg.BufFlits)
	sw := New(cfg, h.Node, h.Router, h.Ports, engine.NewRNG(1), &h.IDs, nil, h.Sim)
	h.Sim.AddComponent(sw)
	return h, sw
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.MaxPacketFlits = 65
	cfg.BufFlits = 80
	return cfg
}

func TestUnicastCutThrough(t *testing.T) {
	h, sw := newHarness(testConfig())
	w := h.Inject(0, []int{2}, 16, 0)
	h.Run(t, sw, 1000)
	h.ExpectCopy(t, 2, w.Msg)
	tail := h.Sinks[2].TailAt[w.Msg]
	if tail > int64(w.Len())+20 {
		t.Fatalf("cut-through tail at %d, want near %d", tail, w.Len())
	}
}

func TestMulticastReplication(t *testing.T) {
	h, sw := newHarness(testConfig())
	w := h.Inject(0, []int{1, 2, 3}, 32, 0)
	h.Run(t, sw, 2000)
	for _, p := range []int{1, 2, 3} {
		h.ExpectCopy(t, p, w.Msg)
	}
	st := sw.Stats()
	if st.Replications != 2 {
		t.Fatalf("replications = %d", st.Replications)
	}
	if !sw.Quiesced() {
		t.Fatal("not quiesced")
	}
}

// TestAsynchronousReplication is the defining behavior of this
// architecture: a blocked branch must not block the others.
func TestAsynchronousReplication(t *testing.T) {
	h, sw := newHarness(testConfig())
	h.Sinks[3].HoldOff = 500
	w := h.Inject(0, []int{1, 2, 3}, 32, 0)
	h.Run(t, sw, 3000)
	fast := h.Sinks[1].TailAt[w.Msg]
	slow := h.Sinks[3].TailAt[w.Msg]
	if fast >= 500 {
		t.Fatalf("unblocked branch finished at %d", fast)
	}
	if slow < 500 {
		t.Fatalf("blocked branch finished at %d despite hold-off", slow)
	}
}

// TestHeadOfLineBlocking is the defining weakness: a packet behind a blocked
// head waits even though its own output is free.
func TestHeadOfLineBlocking(t *testing.T) {
	h, sw := newHarness(testConfig())
	h.Sinks[2].HoldOff = 400
	blocked := h.Inject(0, []int{2}, 16, 0) // head, blocked destination
	free := h.Inject(0, []int{1}, 16, 30)   // behind it, free destination
	h.Run(t, sw, 3000)
	h.ExpectCopy(t, 2, blocked.Msg)
	h.ExpectCopy(t, 1, free.Msg)
	if got := h.Sinks[1].TailAt[free.Msg]; got < 400 {
		t.Fatalf("queued packet finished at %d, before the blocked head released", got)
	}
	if st := sw.Stats(); st.HOLBlockedSum == 0 {
		t.Fatal("no HOL blocking recorded")
	}
}

// TestNoHOLAcrossInputs: the same two packets on different inputs do not
// interfere.
func TestNoHOLAcrossInputs(t *testing.T) {
	h, sw := newHarness(testConfig())
	h.Sinks[2].HoldOff = 400
	blocked := h.Inject(0, []int{2}, 16, 0)
	free := h.Inject(3, []int{1}, 16, 30)
	h.Run(t, sw, 3000)
	h.ExpectCopy(t, 2, blocked.Msg)
	h.ExpectCopy(t, 1, free.Msg)
	if got := h.Sinks[1].TailAt[free.Msg]; got >= 400 {
		t.Fatalf("independent input's packet finished at %d, blocked by another input's head", got)
	}
}

// TestOutputContentionSerializes: two unicasts to the same destination share
// the output port cleanly.
func TestOutputContentionSerializes(t *testing.T) {
	h, sw := newHarness(testConfig())
	w1 := h.Inject(0, []int{2}, 32, 0)
	w2 := h.Inject(1, []int{2}, 32, 0)
	h.Run(t, sw, 3000)
	h.ExpectCopy(t, 2, w1.Msg)
	h.ExpectCopy(t, 2, w2.Msg)
	// Flits of the two messages must not interleave.
	var current *flit.Message
	switches := 0
	for _, r := range h.Sinks[2].Got {
		if r.W.Msg != current {
			current = r.W.Msg
			switches++
		}
	}
	if switches != 2 {
		t.Fatalf("messages interleaved on the wire (%d segments)", switches)
	}
	if st := sw.Stats(); st.GrantWaitSum == 0 {
		t.Fatal("no grant wait recorded despite output contention")
	}
}

func TestConfigValidate(t *testing.T) {
	good := testConfig()
	if err := good.Validate(4); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	bad := good
	bad.BufFlits = bad.MaxPacketFlits - 1
	if err := bad.Validate(4); err == nil {
		t.Error("undersized buffer accepted")
	}
	bad = good
	bad.RouteDelay = -1
	if err := bad.Validate(4); err == nil {
		t.Error("negative route delay accepted")
	}
	bad = good
	bad.BufFlits = 0
	if err := bad.Validate(0); err == nil {
		t.Error("zero buffer accepted")
	}
}

// TestBufferOccupancyBounded: stats must show the buffer never exceeded its
// capacity (the credit protocol at work).
func TestBufferOccupancyBounded(t *testing.T) {
	cfg := testConfig()
	h, sw := newHarness(cfg)
	h.Sinks[1].HoldOff = 300
	h.Inject(0, []int{1}, 60, 0)
	h.Inject(0, []int{1}, 60, 5)
	h.Run(t, sw, 5000)
	if st := sw.Stats(); st.MaxBufOccupancy > cfg.BufFlits {
		t.Fatalf("occupancy %d exceeded capacity %d", st.MaxBufOccupancy, cfg.BufFlits)
	}
}

// TestSyncReplicationLockStep: under synchronous replication, a blocked
// branch holds back the others — the defining difference from asynchronous
// replication (compare TestAsynchronousReplication).
func TestSyncReplicationLockStep(t *testing.T) {
	cfg := testConfig()
	cfg.SyncReplication = true
	h, sw := newHarness(cfg)
	h.Sinks[3].HoldOff = 500
	w := h.Inject(0, []int{1, 2, 3}, 32, 0)
	h.Run(t, sw, 5000)
	for _, p := range []int{1, 2, 3} {
		h.ExpectCopy(t, p, w.Msg)
	}
	// The unblocked branch cannot finish much before the blocked one: the
	// blocked sink's link absorbs only its credit window before stalling
	// everything.
	fast := h.Sinks[1].TailAt[w.Msg]
	if fast < 400 {
		t.Fatalf("lock-step branch finished at %d despite a blocked sibling", fast)
	}
}

// TestSyncReplicationUnicastUnaffected: single-branch traffic behaves
// identically under either replication mode.
func TestSyncReplicationUnicastUnaffected(t *testing.T) {
	for _, sync := range []bool{false, true} {
		cfg := testConfig()
		cfg.SyncReplication = sync
		h, sw := newHarness(cfg)
		w := h.Inject(0, []int{2}, 16, 0)
		h.Run(t, sw, 1000)
		h.ExpectCopy(t, 2, w.Msg)
	}
}
