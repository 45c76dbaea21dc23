package nic

import (
	"testing"

	"mdworm/internal/bitset"
	"mdworm/internal/engine"
	"mdworm/internal/flit"
)

// testFactory builds messages with a 1-flit header.
type testFactory struct{ ids *engine.IDGen }

func (f *testFactory) NewMessage(src int, dests []int, class flit.Class, payload int,
	op *flit.Op, now int64) *flit.Message {
	return &flit.Message{
		ID: f.ids.Next(), Src: src, Dests: dests, Class: class,
		PayloadFlits: payload, HeaderFlits: 1, Created: now, Op: op,
	}
}

// wire collects everything a NIC sends and can feed worms back in.
type wire struct {
	link  *engine.Link
	flits []flit.Ref
	times []int64
}

func (w *wire) Name() string   { return "wire" }
func (w *wire) Quiesced() bool { return true }
func (w *wire) Step(now int64) {
	if r, ok := w.link.Take(now); ok {
		w.link.ReturnCredit(now, 1)
		w.flits = append(w.flits, r)
		w.times = append(w.times, now)
	}
}

type env struct {
	sim       *engine.Simulation
	ids       engine.IDGen
	nic       *NIC
	inject    *engine.Link // NIC -> network
	eject     *engine.Link // network -> NIC
	out       *wire
	delivered []*flit.Message
}

func newEnv(t *testing.T, cfg Config) *env {
	t.Helper()
	e := &env{sim: engine.NewSimulation(10_000)}
	e.inject = e.sim.NewLink("inj", 1, 16)
	e.eject = e.sim.NewLink("ej", 1, cfg.RecvFIFOFlits)
	e.out = &wire{link: e.inject}
	fac := &testFactory{ids: &e.ids}
	e.nic = New(cfg, 3, 16, e.inject, e.eject, &e.ids, nil, e.sim, fac,
		func(m *flit.Message, at *NIC, now int64) {
			e.delivered = append(e.delivered, m)
		})
	e.sim.AddComponent(e.nic)
	e.sim.AddComponent(e.out)
	return e
}

func (e *env) newMsg(dests []int, payload int, op *flit.Op, fwd *flit.ForwardStep) *flit.Message {
	fac := &testFactory{ids: &e.ids}
	class := flit.ClassUnicast
	if len(dests) > 1 {
		class = flit.ClassMulticast
	}
	m := fac.NewMessage(3, dests, class, payload, op, e.sim.Now)
	m.Forward = fwd
	return m
}

func TestInjectPaysSendOverhead(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SendOverhead = 10
	e := newEnv(t, cfg)
	m := e.newMsg([]int{5}, 4, nil, nil)
	e.nic.Submit(m)
	if ok, err := e.sim.Drain(1000); !ok || err != nil {
		t.Fatalf("drain: %v %v", ok, err)
	}
	if len(e.out.flits) != m.Len() {
		t.Fatalf("injected %d flits, want %d", len(e.out.flits), m.Len())
	}
	// First flit cannot appear before the overhead has elapsed.
	if e.out.times[0] < 10 {
		t.Fatalf("first flit at %d, want >= 10", e.out.times[0])
	}
	if m.InjectedAt < 9 {
		t.Fatalf("InjectedAt = %d", m.InjectedAt)
	}
	st := e.nic.Stats()
	if st.MessagesSent != 1 || st.FlitsInjected != int64(m.Len()) || st.OverheadCycles != 10 {
		t.Fatalf("stats wrong: %+v", st)
	}
}

func TestZeroOverheadInjectsImmediately(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SendOverhead = 0
	e := newEnv(t, cfg)
	e.nic.Submit(e.newMsg([]int{5}, 4, nil, nil))
	if ok, _ := e.sim.Drain(100); !ok {
		t.Fatal("drain")
	}
	if e.out.times[0] > 3 {
		t.Fatalf("first flit at %d with zero overhead", e.out.times[0])
	}
}

func TestInjectionSerializesMessages(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SendOverhead = 5
	e := newEnv(t, cfg)
	m1 := e.newMsg([]int{5}, 4, nil, nil)
	m2 := e.newMsg([]int{6}, 4, nil, nil)
	e.nic.Submit(m1, m2)
	if ok, _ := e.sim.Drain(1000); !ok {
		t.Fatal("drain")
	}
	// All of m1's flits precede all of m2's.
	seen2 := false
	for _, r := range e.out.flits {
		if r.W.Msg == m2 {
			seen2 = true
		} else if seen2 {
			t.Fatal("interleaved messages on injection channel")
		}
	}
	// m2 pays its own overhead after m1's tail: m1 occupies the channel
	// for Len cycles starting at InjectedAt, then 5 overhead cycles elapse
	// (the last overlapping m2's first flit).
	if m2.InjectedAt < m1.InjectedAt+int64(m1.Len())+5-1 {
		t.Fatalf("m2 injected at %d, too early after m1 at %d", m2.InjectedAt, m1.InjectedAt)
	}
}

// feedWorm pushes a complete worm into the NIC's eject link.
func (e *env) feedWorm(t *testing.T, m *flit.Message) {
	t.Helper()
	w := &flit.Worm{ID: e.ids.Next(), Msg: m, Dests: bitset.FromSlice(16, []int{3})}
	for i := 0; i < w.Len(); i++ {
		for !e.eject.TrySend(e.sim.Now, flit.Ref{W: w, Idx: i}) {
			e.sim.Step()
		}
		e.sim.Step()
	}
}

func TestReceiveDelivers(t *testing.T) {
	e := newEnv(t, DefaultConfig())
	op := flit.NewOp(1, flit.ClassUnicast, 9, 1, 0)
	m := e.newMsg([]int{3}, 6, op, nil)
	m.Src = 9
	e.feedWorm(t, m)
	if ok, _ := e.sim.Drain(100); !ok {
		t.Fatal("drain")
	}
	if len(e.delivered) != 1 || e.delivered[0] != m {
		t.Fatalf("delivered %v", e.delivered)
	}
	if st := e.nic.Stats(); st.MessagesDelivered != 1 || st.FlitsEjected != int64(m.Len()) {
		t.Fatalf("stats: %+v", st)
	}
}

func TestForwardingAfterRecvOverhead(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RecvOverhead = 20
	cfg.SendOverhead = 0
	e := newEnv(t, cfg)
	op := flit.NewOp(1, flit.ClassMulticast, 9, 4, 0)
	// Node 3 receives and must cover subtree {5, 7, 8}: ranks 1..3 of the
	// group it heads.
	m := e.newMsg([]int{3}, 6, op, &flit.ForwardStep{Group: []int{3, 5, 7, 8}, Hi: 4})
	m.Src = 9
	e.feedWorm(t, m)
	recvAt := e.sim.Now
	if ok, _ := e.sim.Drain(2000); !ok {
		t.Fatal("drain")
	}
	st := e.nic.Stats()
	if st.ForwardedMsgs != 2 {
		t.Fatalf("forwarded %d messages, want 2 (binomial split of 3)", st.ForwardedMsgs)
	}
	// Nothing leaves before the receive overhead has elapsed.
	if e.out.times[0] < recvAt+20-2 {
		t.Fatalf("forward began at %d, before receive overhead from %d", e.out.times[0], recvAt)
	}
	// Forwarded messages carry the same op and unicast class.
	for _, r := range e.out.flits {
		if r.W.Msg.Op != op || r.W.Msg.Class != flit.ClassUnicast {
			t.Fatal("forwarded message lost op or class")
		}
	}
}

func TestQuiesced(t *testing.T) {
	e := newEnv(t, DefaultConfig())
	if !e.nic.Quiesced() {
		t.Fatal("fresh NIC not quiesced")
	}
	e.nic.Submit(e.newMsg([]int{5}, 4, nil, nil))
	if e.nic.Quiesced() {
		t.Fatal("NIC with queued message quiesced")
	}
	if ok, _ := e.sim.Drain(1000); !ok {
		t.Fatal("drain")
	}
	if !e.nic.Quiesced() {
		t.Fatal("NIC not quiesced after drain")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.SendOverhead = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative overhead accepted")
	}
	bad = DefaultConfig()
	bad.RecvFIFOFlits = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero receive FIFO accepted")
	}
}
