package centralbuf

import (
	"testing"

	"mdworm/internal/engine"
	"mdworm/internal/flit"
	"mdworm/internal/switches/switchtest"
)

// newHarness wires one switch of cfg into switchtest's one-stage fabric.
func newHarness(cfg Config) (*switchtest.Shuttle, *Switch) {
	h := switchtest.NewShuttle(cfg.InFIFOFlits)
	sw := New(cfg, h.Node, h.Router, h.Ports, engine.NewRNG(1), &h.IDs, nil, h.Sim)
	h.Sim.AddComponent(sw)
	return h, sw
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.MaxPacketFlits = 65
	cfg.Chunks = 32 // 16 per direction pool
	return cfg
}

// TestUnicastCutThrough: a unicast into an idle switch bypasses the central
// buffer. Delivery and the tail bound are conformance cases.
func TestUnicastCutThrough(t *testing.T) {
	h, sw := newHarness(testConfig())
	w := h.Inject(0, []int{2}, 16, 0)
	h.Run(t, sw, 1000)
	st := sw.Stats()
	if st.BypassFlits != int64(w.Len()) {
		t.Fatalf("bypass flits = %d, want %d", st.BypassFlits, w.Len())
	}
	if st.BufferFlits != 0 {
		t.Fatalf("buffer flits = %d, want 0 (pure cut-through)", st.BufferFlits)
	}
}

func TestSecondUnicastDivertsToCentralBuffer(t *testing.T) {
	h, sw := newHarness(testConfig())
	w1 := h.Inject(0, []int{2}, 32, 0)
	w2 := h.Inject(1, []int{2}, 32, 0)
	h.Run(t, sw, 2000)
	h.ExpectCopy(t, 2, w1.Msg)
	h.ExpectCopy(t, 2, w2.Msg)
	st := sw.Stats()
	if st.UnicastCBEnters != 1 {
		t.Fatalf("unicast CB enters = %d, want 1", st.UnicastCBEnters)
	}
	if st.BufferFlits == 0 {
		t.Fatal("no flits through the central buffer")
	}
}

// TestMulticastReplication: a multicast is admitted to the central buffer
// and written into it once. Delivery, replication and drain are conformance
// cases.
func TestMulticastReplication(t *testing.T) {
	h, sw := newHarness(testConfig())
	w := h.Inject(0, []int{1, 2, 3}, 32, 0)
	h.Run(t, sw, 2000)
	st := sw.Stats()
	if st.AdmittedMcasts != 1 {
		t.Fatalf("admitted mcasts = %d", st.AdmittedMcasts)
	}
	if st.BufferFlits != int64(w.Len()) {
		t.Fatalf("buffer flits = %d, want %d (written once)", st.BufferFlits, w.Len())
	}
}

// TestReservationBlocksSecondMulticast: with a pool that holds exactly one
// packet, two simultaneous multicasts must serialize through the
// reservation queue yet both complete.
func TestReservationBlocksSecondMulticast(t *testing.T) {
	cfg := testConfig()
	cfg.Chunks = 2 * ((33 + cfg.ChunkFlits - 1) / cfg.ChunkFlits) // one packet per pool
	cfg.MaxPacketFlits = 33
	h, sw := newHarness(cfg)
	w1 := h.Inject(0, []int{2, 3}, 32, 0)
	w2 := h.Inject(1, []int{2, 3}, 32, 0)
	h.Run(t, sw, 5000)
	for _, p := range []int{2, 3} {
		h.ExpectCopy(t, p, w1.Msg)
		h.ExpectCopy(t, p, w2.Msg)
	}
	st := sw.Stats()
	if st.AdmittedMcasts != 2 {
		t.Fatalf("admitted = %d", st.AdmittedMcasts)
	}
	if st.ReserveWaitSum == 0 {
		t.Fatal("no reservation wait recorded despite tiny pool")
	}
}

func TestConfigValidate(t *testing.T) {
	good := testConfig()
	if err := good.Validate(4); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	bad := good
	bad.MaxPacketFlits = bad.Chunks * bad.ChunkFlits // exceeds one pool
	if err := bad.Validate(4); err == nil {
		t.Error("oversized packet accepted")
	}
	bad = good
	bad.InFIFOFlits = 2
	if err := bad.Validate(4); err == nil {
		t.Error("header larger than input FIFO accepted")
	}
	bad = good
	bad.Chunks = 0
	if err := bad.Validate(1); err == nil {
		t.Error("zero chunks accepted")
	}
	bad = good
	bad.RouteDelay = -1
	if err := bad.Validate(1); err == nil {
		t.Error("negative route delay accepted")
	}
}

// TestZeroRouteDelay exercises the immediate-decode path.
func TestZeroRouteDelay(t *testing.T) {
	cfg := testConfig()
	cfg.RouteDelay = 0
	h, sw := newHarness(cfg)
	w := h.Inject(0, []int{1}, 8, 0)
	h.Run(t, sw, 500)
	h.ExpectCopy(t, 1, w.Msg)
}

// TestMulticastBypassSingleAblation: with the knob on, a multicast whose
// branch set is one port cuts through.
func TestMulticastBypassSingleAblation(t *testing.T) {
	cfg := testConfig()
	cfg.MulticastBypassSingle = true
	h, sw := newHarness(cfg)
	w := h.Inject(0, []int{2}, 16, 0)
	w.Msg.Class = flit.ClassMulticast
	h.Run(t, sw, 1000)
	h.ExpectCopy(t, 2, w.Msg)
	if st := sw.Stats(); st.BufferFlits != 0 {
		t.Fatalf("single-branch multicast used the buffer (%d flits) despite bypass knob", st.BufferFlits)
	}
}

// TestPortBandwidthLimit: with a single buffer port, a 3-way replication
// still completes but takes roughly 3x as long to read out.
func TestPortBandwidthLimit(t *testing.T) {
	run := func(bw int) int64 {
		cfg := testConfig()
		cfg.PortBandwidth = bw
		h, sw := newHarness(cfg)
		w := h.Inject(0, []int{1, 2, 3}, 48, 0)
		h.Run(t, sw, 5000)
		var last int64
		for _, p := range []int{1, 2, 3} {
			h.ExpectCopy(t, p, w.Msg)
			if at := h.Sinks[p].TailAt[w.Msg]; at > last {
				last = at
			}
		}
		return last
	}
	full := run(0)
	narrow := run(1)
	if narrow <= full {
		t.Fatalf("bandwidth limit had no effect: full=%d narrow=%d", full, narrow)
	}
	if float64(narrow) < 1.8*float64(full) {
		t.Fatalf("1-port readout only %.2fx slower than full (want near 3x)", float64(narrow)/float64(full))
	}
}

// TestBarrierCombiningWaitsForAll: no release until the last token arrives.
func TestBarrierCombiningWaitsForAll(t *testing.T) {
	h, sw := newHarness(testConfig())
	op := flit.NewOp(99, flit.ClassBarrier, 0, 4, 0)
	for p := 0; p < 4; p++ {
		start := int64(0)
		if p == 3 {
			start = 300 // the straggler
		}
		w := h.Inject(p, []int{p}, 0, start)
		w.Msg.Class, w.Msg.Op = flit.ClassBarrier, op
	}
	h.Run(t, sw, 2000)
	for p := 0; p < 4; p++ {
		for _, r := range h.Sinks[p].Got {
			if r.W.Msg.Class != flit.ClassBarrier {
				continue
			}
			if at := h.Sinks[p].TailAt[r.W.Msg]; at < 300 {
				t.Fatalf("host %d released at %d, before the straggler arrived", p, at)
			}
		}
	}
}
