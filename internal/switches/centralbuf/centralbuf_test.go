package centralbuf

import (
	"testing"

	"mdworm/internal/bitset"
	"mdworm/internal/engine"
	"mdworm/internal/flit"
	"mdworm/internal/routing"
	"mdworm/internal/switches"
	"mdworm/internal/topology"
)

// harness wires one stage-0 switch of a single-stage tree (4 processor
// ports) to scripted drivers and sinks.
type harness struct {
	t   *testing.T
	sim *engine.Simulation
	net *topology.Network
	sw  *Switch
	in  []*engine.Link // into the switch, per port
	out []*engine.Link // out of the switch, per port
	snk []*sink
	drv []*driver
	ids engine.IDGen
}

// driver injects one worm's flits onto a link as credits allow.
type driver struct {
	link *engine.Link
	worm *flit.Worm
	next int
	from int64 // start cycle
}

func (d *driver) Name() string   { return "driver" }
func (d *driver) Quiesced() bool { return d.worm == nil || d.next >= d.worm.Len() }
func (d *driver) Step(now int64) {
	if d.Quiesced() || now < d.from || !d.link.TrySend(now, flit.Ref{W: d.worm, Idx: d.next}) {
		return
	}
	d.next++
}

// sink consumes flits, optionally holding off until a release cycle to
// model a blocked destination.
type sink struct {
	link    *engine.Link
	holdOff int64 // consume nothing before this cycle
	got     []flit.Ref
	tailAt  map[uint64]int64 // worm id -> tail arrival cycle
}

func (s *sink) Name() string   { return "sink" }
func (s *sink) Quiesced() bool { return true }
func (s *sink) Step(now int64) {
	if now < s.holdOff {
		return
	}
	r, ok := s.link.Take(now)
	if !ok {
		return
	}
	s.link.ReturnCredit(now, 1)
	s.got = append(s.got, r)
	if r.Tail() {
		if s.tailAt == nil {
			s.tailAt = map[uint64]int64{}
		}
		s.tailAt[r.W.ID] = now
	}
}

func newHarness(t *testing.T, cfg Config) *harness {
	t.Helper()
	net, err := topology.NewKaryTree(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{t: t, net: net}
	h.sim = engine.NewSimulation(10_000)
	router := &routing.Router{Net: net, ReplicateOnUpPath: true, Policy: routing.UpHash}
	node := net.Switches[0]
	ports := make([]switches.PortIO, node.NumPorts())
	for p := 0; p < 4; p++ {
		in := h.sim.NewLink("in", 1, cfg.InFIFOFlits)
		out := h.sim.NewLink("out", 1, 8)
		ports[p] = switches.PortIO{In: in, Out: out}
		h.in = append(h.in, in)
		h.out = append(h.out, out)
		snk := &sink{link: out}
		h.snk = append(h.snk, snk)
		h.sim.AddComponent(snk)
	}
	h.sw = New(cfg, node, router, ports, engine.NewRNG(1), &h.ids, nil, h.sim)
	h.sim.AddComponent(h.sw)
	return h
}

// inject schedules a worm from the processor on port from to dests.
func (h *harness) inject(from int, dests []int, payload int, startAt int64) *flit.Worm {
	msg := &flit.Message{
		ID:           h.ids.Next(),
		Src:          from,
		Dests:        dests,
		PayloadFlits: payload,
		HeaderFlits:  1,
		Class:        flit.ClassUnicast,
	}
	if len(dests) > 1 {
		msg.Class = flit.ClassMulticast
	}
	w := &flit.Worm{ID: h.ids.Next(), Msg: msg, Dests: bitset.FromSlice(h.net.N, dests), GoingUp: true}
	d := &driver{link: h.in[from], worm: w, from: startAt}
	h.drv = append(h.drv, d)
	h.sim.AddComponent(d)
	return w
}

func (h *harness) run(maxCycles int64) {
	h.t.Helper()
	ok, err := h.sim.Drain(maxCycles)
	if err != nil {
		h.t.Fatalf("drain: %v\n%s", err, h.sw.Dump())
	}
	if !ok {
		h.t.Fatalf("did not drain in %d cycles\n%s", maxCycles, h.sw.Dump())
	}
}

// expectWorm verifies a sink received exactly one complete copy of a worm
// with the given message, in order.
func (h *harness) expectCopy(port int, msg *flit.Message) {
	h.t.Helper()
	s := h.snk[port]
	var flits []flit.Ref
	for _, r := range s.got {
		if r.W.Msg == msg {
			flits = append(flits, r)
		}
	}
	if len(flits) != msg.Len() {
		h.t.Fatalf("port %d got %d flits of msg %d, want %d", port, len(flits), msg.ID, msg.Len())
	}
	for i, r := range flits {
		if r.Idx != i {
			h.t.Fatalf("port %d msg %d: flit %d out of order (idx %d)", port, msg.ID, i, r.Idx)
		}
	}
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.MaxPacketFlits = 65
	cfg.Chunks = 32 // 16 per direction pool
	return cfg
}

func TestUnicastCutThrough(t *testing.T) {
	h := newHarness(t, testConfig())
	w := h.inject(0, []int{2}, 16, 0)
	h.run(1000)
	h.expectCopy(2, w.Msg)
	st := h.sw.Stats()
	if st.BypassFlits != int64(w.Len()) {
		t.Fatalf("bypass flits = %d, want %d", st.BypassFlits, w.Len())
	}
	if st.BufferFlits != 0 {
		t.Fatalf("buffer flits = %d, want 0 (pure cut-through)", st.BufferFlits)
	}
	// Latency: inject at 0, link 1, route delay 4, per-flit pipeline.
	tail := h.snk[2].tailAt[hWormID(h, w)]
	if tail < int64(w.Len()) || tail > int64(w.Len())+20 {
		t.Fatalf("cut-through tail at %d, want near %d", tail, w.Len())
	}
}

// hWormID finds the delivered branch worm id for the message of w (the
// branch child forked inside the switch, not the injected worm).
func hWormID(h *harness, w *flit.Worm) uint64 {
	for _, s := range h.snk {
		for _, r := range s.got {
			if r.W.Msg == w.Msg {
				return r.W.ID
			}
		}
	}
	h.t.Fatalf("message %d never delivered", w.Msg.ID)
	return 0
}

func TestSecondUnicastDivertsToCentralBuffer(t *testing.T) {
	h := newHarness(t, testConfig())
	w1 := h.inject(0, []int{2}, 32, 0)
	w2 := h.inject(1, []int{2}, 32, 0)
	h.run(2000)
	h.expectCopy(2, w1.Msg)
	h.expectCopy(2, w2.Msg)
	st := h.sw.Stats()
	if st.UnicastCBEnters != 1 {
		t.Fatalf("unicast CB enters = %d, want 1", st.UnicastCBEnters)
	}
	if st.BufferFlits == 0 {
		t.Fatal("no flits through the central buffer")
	}
}

func TestMulticastReplication(t *testing.T) {
	h := newHarness(t, testConfig())
	w := h.inject(0, []int{1, 2, 3}, 32, 0)
	h.run(2000)
	for _, p := range []int{1, 2, 3} {
		h.expectCopy(p, w.Msg)
	}
	st := h.sw.Stats()
	if st.AdmittedMcasts != 1 {
		t.Fatalf("admitted mcasts = %d", st.AdmittedMcasts)
	}
	if st.Replications != 2 {
		t.Fatalf("replications = %d, want 2 (3 branches - 1)", st.Replications)
	}
	if st.BufferFlits != int64(w.Len()) {
		t.Fatalf("buffer flits = %d, want %d (written once)", st.BufferFlits, w.Len())
	}
	if !h.sw.Quiesced() {
		t.Fatal("switch not quiesced after drain")
	}
}

// TestAsynchronousReplication: one destination refuses to consume for a long
// time; the other branches must complete long before it.
func TestAsynchronousReplication(t *testing.T) {
	h := newHarness(t, testConfig())
	h.snk[3].holdOff = 500
	w := h.inject(0, []int{1, 2, 3}, 32, 0)
	h.run(3000)
	for _, p := range []int{1, 2, 3} {
		h.expectCopy(p, w.Msg)
	}
	fast := h.snk[1].tailAt[deliveredID(h, 1, w.Msg)]
	slow := h.snk[3].tailAt[deliveredID(h, 3, w.Msg)]
	if fast >= 500 {
		t.Fatalf("unblocked branch finished at %d, held hostage by blocked branch", fast)
	}
	if slow < 500 {
		t.Fatalf("blocked branch finished at %d despite hold-off", slow)
	}
}

func deliveredID(h *harness, port int, msg *flit.Message) uint64 {
	for _, r := range h.snk[port].got {
		if r.W.Msg == msg {
			return r.W.ID
		}
	}
	h.t.Fatalf("port %d never saw msg %d", port, msg.ID)
	return 0
}

// TestReservationBlocksSecondMulticast: with a pool that holds exactly one
// packet, two simultaneous multicasts must serialize through the
// reservation queue yet both complete.
func TestReservationBlocksSecondMulticast(t *testing.T) {
	cfg := testConfig()
	cfg.Chunks = 2 * ((33 + cfg.ChunkFlits - 1) / cfg.ChunkFlits) // one packet per pool
	cfg.MaxPacketFlits = 33
	h := newHarness(t, cfg)
	w1 := h.inject(0, []int{2, 3}, 32, 0)
	w2 := h.inject(1, []int{2, 3}, 32, 0)
	h.run(5000)
	for _, p := range []int{2, 3} {
		h.expectCopy(p, w1.Msg)
		h.expectCopy(p, w2.Msg)
	}
	st := h.sw.Stats()
	if st.AdmittedMcasts != 2 {
		t.Fatalf("admitted = %d", st.AdmittedMcasts)
	}
	if st.ReserveWaitSum == 0 {
		t.Fatal("no reservation wait recorded despite tiny pool")
	}
}

// TestManyWormsConservation floods all inputs with a mix of traffic and
// checks flit conservation.
func TestManyWormsConservation(t *testing.T) {
	h := newHarness(t, testConfig())
	total := 0
	rng := engine.NewRNG(5)
	for i := 0; i < 12; i++ {
		from := i % 4
		var dests []int
		if i%3 == 0 {
			for d := 0; d < 4; d++ {
				if d != from {
					dests = append(dests, d)
				}
			}
		} else {
			dests = []int{(from + 1 + rng.Intn(3)) % 4}
			if dests[0] == from {
				dests[0] = (from + 1) % 4
			}
		}
		w := h.inject(from, dests, 16+rng.Intn(32), int64(i*3))
		total += w.Len() * len(dests)
	}
	h.run(20_000)
	got := 0
	for _, s := range h.snk {
		got += len(s.got)
	}
	if got != total {
		t.Fatalf("delivered %d flits, want %d", got, total)
	}
	if !h.sw.Quiesced() {
		t.Fatal("switch holds state after drain")
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
	h := newHarness(t, cfg)
	w := h.inject(0, []int{1}, 8, 0)
	h.run(500)
	h.expectCopy(1, w.Msg)
}

// TestMulticastBypassSingleAblation: with the knob on, a multicast whose
// branch set is one port cuts through.
func TestMulticastBypassSingleAblation(t *testing.T) {
	cfg := testConfig()
	cfg.MulticastBypassSingle = true
	h := newHarness(t, cfg)
	w := h.inject(0, []int{2}, 16, 0)
	w.Msg.Class = flit.ClassMulticast
	h.run(1000)
	h.expectCopy(2, w.Msg)
	if st := h.sw.Stats(); st.BufferFlits != 0 {
		t.Fatalf("single-branch multicast used the buffer (%d flits) despite bypass knob", st.BufferFlits)
	}
}

// TestPortBandwidthLimit: with a single buffer port, a 3-way replication
// still completes but takes roughly 3x as long to read out.
func TestPortBandwidthLimit(t *testing.T) {
	run := func(bw int) int64 {
		cfg := testConfig()
		cfg.PortBandwidth = bw
		h := newHarness(t, cfg)
		w := h.inject(0, []int{1, 2, 3}, 48, 0)
		h.run(5000)
		var last int64
		for _, p := range []int{1, 2, 3} {
			h.expectCopy(p, w.Msg)
			if at := h.snk[p].tailAt[deliveredID(h, p, w.Msg)]; at > last {
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

// TestBarrierCombiningSingleSwitch drives raw tokens through one switch:
// tokens from every host port combine into a release broadcast (the switch
// is its own spanning-tree root).
func TestBarrierCombiningSingleSwitch(t *testing.T) {
	h := newHarness(t, testConfig())
	op := flit.NewOp(99, flit.ClassBarrier, 0, 4, 0)
	for p := 0; p < 4; p++ {
		msg := &flit.Message{ID: h.ids.Next(), Src: p, Dests: []int{p},
			Class: flit.ClassBarrier, HeaderFlits: 1, Op: op}
		w := &flit.Worm{ID: h.ids.Next(), Msg: msg, Dests: bitset.FromSlice(4, []int{p})}
		d := &driver{link: h.in[p], worm: w, from: int64(p * 7)} // staggered arrivals
		h.sim.AddComponent(d)
	}
	h.run(2000)
	st := h.sw.Stats()
	if st.TokensCombined != 4 {
		t.Fatalf("combined %d tokens, want 4", st.TokensCombined)
	}
	if st.TokensEmitted != 4 {
		t.Fatalf("emitted %d tokens, want 4 releases", st.TokensEmitted)
	}
	// Every host receives exactly one single-flit release.
	for p := 0; p < 4; p++ {
		got := 0
		for _, r := range h.snk[p].got {
			if r.W.Msg.Class == flit.ClassBarrier {
				got++
			}
		}
		if got != 1 {
			t.Fatalf("host %d received %d release tokens", p, got)
		}
	}
	if !h.sw.Quiesced() {
		t.Fatal("combining state not cleared")
	}
}

// TestBarrierCombiningWaitsForAll: no release until the last token arrives.
func TestBarrierCombiningWaitsForAll(t *testing.T) {
	h := newHarness(t, testConfig())
	op := flit.NewOp(99, flit.ClassBarrier, 0, 4, 0)
	for p := 0; p < 4; p++ {
		msg := &flit.Message{ID: h.ids.Next(), Src: p, Dests: []int{p},
			Class: flit.ClassBarrier, HeaderFlits: 1, Op: op}
		w := &flit.Worm{ID: h.ids.Next(), Msg: msg, Dests: bitset.FromSlice(4, []int{p})}
		start := int64(0)
		if p == 3 {
			start = 300 // the straggler
		}
		h.sim.AddComponent(&driver{link: h.in[p], worm: w, from: start})
	}
	h.run(2000)
	for p := 0; p < 4; p++ {
		for _, r := range h.snk[p].got {
			if r.W.Msg.Class != flit.ClassBarrier {
				continue
			}
			if at := h.snk[p].tailAt[r.W.ID]; at < 300 {
				t.Fatalf("host %d released at %d, before the straggler arrived", p, at)
			}
		}
	}
}
