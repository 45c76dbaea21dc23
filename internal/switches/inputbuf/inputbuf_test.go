package inputbuf

import (
	"testing"

	"mdworm/internal/bitset"
	"mdworm/internal/engine"
	"mdworm/internal/flit"
	"mdworm/internal/routing"
	"mdworm/internal/switches"
	"mdworm/internal/topology"
)

// The harness mirrors the central-buffer one: a single stage-0 switch of a
// one-stage tree with scripted drivers and sinks on the processor ports.
type harness struct {
	t   *testing.T
	sim *engine.Simulation
	net *topology.Network
	sw  *Switch
	in  []*engine.Link
	snk []*sink
	ids engine.IDGen
}

type driver struct {
	link *engine.Link
	worm *flit.Worm
	next int
	from int64
}

func (d *driver) Name() string   { return "driver" }
func (d *driver) Quiesced() bool { return d.worm == nil || d.next >= d.worm.Len() }
func (d *driver) Step(now int64) {
	if d.Quiesced() || now < d.from || !d.link.TrySend(now, flit.Ref{W: d.worm, Idx: d.next}) {
		return
	}
	d.next++
}

type sink struct {
	link    *engine.Link
	holdOff int64
	got     []flit.Ref
	tailAt  map[*flit.Message]int64
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
			s.tailAt = map[*flit.Message]int64{}
		}
		s.tailAt[r.W.Msg] = now
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
		in := h.sim.NewLink("in", 1, cfg.BufFlits)
		out := h.sim.NewLink("out", 1, 8)
		ports[p] = switches.PortIO{In: in, Out: out}
		h.in = append(h.in, in)
		snk := &sink{link: out}
		h.snk = append(h.snk, snk)
		h.sim.AddComponent(snk)
	}
	h.sw = New(cfg, node, router, ports, engine.NewRNG(1), &h.ids, nil, h.sim)
	h.sim.AddComponent(h.sw)
	return h
}

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
	h.sim.AddComponent(d)
	return w
}

func (h *harness) run(maxCycles int64) {
	h.t.Helper()
	ok, err := h.sim.Drain(maxCycles)
	if err != nil {
		h.t.Fatalf("drain: %v", err)
	}
	if !ok {
		h.t.Fatalf("did not drain in %d cycles", maxCycles)
	}
}

func (h *harness) expectCopy(port int, msg *flit.Message) {
	h.t.Helper()
	var flits []flit.Ref
	for _, r := range h.snk[port].got {
		if r.W.Msg == msg {
			flits = append(flits, r)
		}
	}
	if len(flits) != msg.Len() {
		h.t.Fatalf("port %d got %d flits of msg %d, want %d", port, len(flits), msg.ID, msg.Len())
	}
	for i, r := range flits {
		if r.Idx != i {
			h.t.Fatalf("port %d msg %d: out of order at %d", port, msg.ID, i)
		}
	}
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.MaxPacketFlits = 65
	cfg.BufFlits = 80
	return cfg
}

func TestUnicastCutThrough(t *testing.T) {
	h := newHarness(t, testConfig())
	w := h.inject(0, []int{2}, 16, 0)
	h.run(1000)
	h.expectCopy(2, w.Msg)
	tail := h.snk[2].tailAt[w.Msg]
	if tail > int64(w.Len())+20 {
		t.Fatalf("cut-through tail at %d, want near %d", tail, w.Len())
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
	if st.Replications != 2 {
		t.Fatalf("replications = %d", st.Replications)
	}
	if !h.sw.Quiesced() {
		t.Fatal("not quiesced")
	}
}

// TestAsynchronousReplication is the defining behavior of this
// architecture: a blocked branch must not block the others.
func TestAsynchronousReplication(t *testing.T) {
	h := newHarness(t, testConfig())
	h.snk[3].holdOff = 500
	w := h.inject(0, []int{1, 2, 3}, 32, 0)
	h.run(3000)
	fast := h.snk[1].tailAt[w.Msg]
	slow := h.snk[3].tailAt[w.Msg]
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
	h := newHarness(t, testConfig())
	h.snk[2].holdOff = 400
	blocked := h.inject(0, []int{2}, 16, 0) // head, blocked destination
	free := h.inject(0, []int{1}, 16, 30)   // behind it, free destination
	h.run(3000)
	h.expectCopy(2, blocked.Msg)
	h.expectCopy(1, free.Msg)
	if got := h.snk[1].tailAt[free.Msg]; got < 400 {
		t.Fatalf("queued packet finished at %d, before the blocked head released", got)
	}
	if st := h.sw.Stats(); st.HOLBlockedSum == 0 {
		t.Fatal("no HOL blocking recorded")
	}
}

// TestNoHOLAcrossInputs: the same two packets on different inputs do not
// interfere.
func TestNoHOLAcrossInputs(t *testing.T) {
	h := newHarness(t, testConfig())
	h.snk[2].holdOff = 400
	blocked := h.inject(0, []int{2}, 16, 0)
	free := h.inject(3, []int{1}, 16, 30)
	h.run(3000)
	h.expectCopy(2, blocked.Msg)
	h.expectCopy(1, free.Msg)
	if got := h.snk[1].tailAt[free.Msg]; got >= 400 {
		t.Fatalf("independent input's packet finished at %d, blocked by another input's head", got)
	}
}

// TestOutputContentionSerializes: two unicasts to the same destination share
// the output port cleanly.
func TestOutputContentionSerializes(t *testing.T) {
	h := newHarness(t, testConfig())
	w1 := h.inject(0, []int{2}, 32, 0)
	w2 := h.inject(1, []int{2}, 32, 0)
	h.run(3000)
	h.expectCopy(2, w1.Msg)
	h.expectCopy(2, w2.Msg)
	// Flits of the two messages must not interleave.
	var current *flit.Message
	switches := 0
	for _, r := range h.snk[2].got {
		if r.W.Msg != current {
			current = r.W.Msg
			switches++
		}
	}
	if switches != 2 {
		t.Fatalf("messages interleaved on the wire (%d segments)", switches)
	}
	if st := h.sw.Stats(); st.GrantWaitSum == 0 {
		t.Fatal("no grant wait recorded despite output contention")
	}
}

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
			d := (from + 1 + rng.Intn(3)) % 4
			if d == from {
				d = (from + 1) % 4
			}
			dests = []int{d}
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
	h := newHarness(t, cfg)
	h.snk[1].holdOff = 300
	h.inject(0, []int{1}, 60, 0)
	h.inject(0, []int{1}, 60, 5)
	h.run(5000)
	if st := h.sw.Stats(); st.MaxBufOccupancy > cfg.BufFlits {
		t.Fatalf("occupancy %d exceeded capacity %d", st.MaxBufOccupancy, cfg.BufFlits)
	}
}

// TestSyncReplicationLockStep: under synchronous replication, a blocked
// branch holds back the others — the defining difference from asynchronous
// replication (compare TestAsynchronousReplication).
func TestSyncReplicationLockStep(t *testing.T) {
	cfg := testConfig()
	cfg.SyncReplication = true
	h := newHarness(t, cfg)
	h.snk[3].holdOff = 500
	w := h.inject(0, []int{1, 2, 3}, 32, 0)
	h.run(5000)
	for _, p := range []int{1, 2, 3} {
		h.expectCopy(p, w.Msg)
	}
	// The unblocked branch cannot finish much before the blocked one: the
	// blocked sink's link absorbs only its credit window before stalling
	// everything.
	fast := h.snk[1].tailAt[w.Msg]
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
		h := newHarness(t, cfg)
		w := h.inject(0, []int{2}, 16, 0)
		h.run(1000)
		h.expectCopy(2, w.Msg)
	}
}

// TestBarrierCombiningSingleSwitchIB mirrors the central-buffer combining
// test on the input-buffered switch.
func TestBarrierCombiningSingleSwitchIB(t *testing.T) {
	h := newHarness(t, testConfig())
	op := flit.NewOp(99, flit.ClassBarrier, 0, 4, 0)
	for p := 0; p < 4; p++ {
		msg := &flit.Message{ID: h.ids.Next(), Src: p, Dests: []int{p},
			Class: flit.ClassBarrier, HeaderFlits: 1, Op: op}
		w := &flit.Worm{ID: h.ids.Next(), Msg: msg, Dests: bitset.FromSlice(4, []int{p})}
		h.sim.AddComponent(&driver{link: h.in[p], worm: w, from: int64(p * 5)})
	}
	h.run(2000)
	st := h.sw.Stats()
	if st.TokensCombined != 4 || st.TokensEmitted != 4 {
		t.Fatalf("combined=%d emitted=%d, want 4/4", st.TokensCombined, st.TokensEmitted)
	}
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
