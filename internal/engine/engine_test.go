package engine

import (
	"slices"
	"testing"
	"testing/quick"

	"mdworm/internal/ckpt"
	"mdworm/internal/flit"
)

func testWorm(n int) *flit.Worm {
	msg := &flit.Message{ID: 1, PayloadFlits: n - 1, HeaderFlits: 1}
	return &flit.Worm{ID: 1, Msg: msg}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	if NewRNG(1).Uint64() == NewRNG(2).Uint64() {
		t.Fatal("different seeds collided on first draw")
	}
}

func TestRNGForkIndependence(t *testing.T) {
	root := NewRNG(9)
	f1 := root.Fork(1)
	f2 := root.Fork(2)
	f1again := root.Fork(1)
	if f1.Uint64() != f1again.Uint64() {
		t.Fatal("Fork not deterministic in tag")
	}
	if f1.Uint64() == f2.Uint64() {
		t.Fatal("distinct forks collided")
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(3)
	seen := map[int]int{}
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v]++
	}
	for v := 0; v < 7; v++ {
		if seen[v] < 10000/7/2 {
			t.Fatalf("value %d badly underrepresented: %d", v, seen[v])
		}
	}
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(5)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if seen[v] {
			t.Fatalf("duplicate %d in perm", v)
		}
		seen[v] = true
	}
}

// sampleWithMap is the map-exclusion Sample that the scratch-pool version
// replaced, kept as the reference its draws must match.
func sampleWithMap(r *RNG, n, k int, excl map[int]bool) []int {
	pool := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if !excl[i] {
			pool = append(pool, i)
		}
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		j := i + r.Intn(len(pool)-i)
		pool[i], pool[j] = pool[j], pool[i]
		out[i] = pool[i]
	}
	return out
}

func TestRNGSample(t *testing.T) {
	r := NewRNG(11)
	var pool []int
	for trial := 0; trial < 100; trial++ {
		s := r.Sample(nil, 20, 5, 3, &pool)
		if len(s) != 5 {
			t.Fatalf("sample size %d", len(s))
		}
		seen := map[int]bool{}
		for _, v := range s {
			if v < 0 || v >= 20 || v == 3 || seen[v] {
				t.Fatalf("bad sample %v", s)
			}
			seen[v] = true
		}
	}

	// Draw for draw, the scratch-pool Sample matches the map-based
	// reference over random sizes and exclusions (including none, and one
	// outside the population), leaving both streams at the same position.
	params := NewRNG(5)
	for trial := 0; trial < 2000; trial++ {
		n := 1 + params.Intn(80)
		excl := params.Intn(n+2) - 1
		avail := n
		if excl >= 0 && excl < n {
			avail--
		}
		if avail == 0 {
			continue
		}
		k := 1 + params.Intn(avail)
		seed := params.Uint64()
		got := NewRNG(seed)
		want := NewRNG(seed)
		a := got.Sample(nil, n, k, excl, &pool)
		b := sampleWithMap(want, n, k, map[int]bool{excl: true})
		if !slices.Equal(a, b) || got.State() != want.State() {
			t.Fatalf("n=%d k=%d excl=%d: Sample %v, reference %v", n, k, excl, a, b)
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	f := func(seed uint64) bool {
		v := NewRNG(seed).Float64()
		return v >= 0 && v < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestEmptyClearsStorage checks that Empty leaves a kept slice's storage
// referring to nothing, beyond its length as well as within it.
func TestEmptyClearsStorage(t *testing.T) {
	s := []*int{new(int), new(int), new(int)}
	e := Empty(s[:2])
	if len(e) != 0 || cap(e) != 3 {
		t.Fatalf("Empty gave len %d cap %d, want 0 and 3", len(e), cap(e))
	}
	for i, p := range s {
		if p != nil {
			t.Errorf("element %d still refers to %p", i, p)
		}
	}
}

func TestLinkDelivery(t *testing.T) {
	l := NewLink("t", 3, 4)
	w := testWorm(4)
	if !l.TrySend(0, flit.Ref{W: w, Idx: 0}) {
		t.Fatal("fresh link cannot send")
	}
	for now := int64(0); now < 3; now++ {
		if _, ok := l.Take(now); ok {
			t.Fatalf("flit visible at cycle %d before latency", now)
		}
	}
	mustSend(t, l, 2, flit.Ref{W: w, Idx: 1})
	r, ok := l.Take(3)
	if !ok || r.Idx != 0 || l.Carried() != 1 {
		t.Fatalf("flit not delivered at latency: %v %v carried=%d", r, ok, l.Carried())
	}
	// The flit behind the taken one keeps its own arrival cycle.
	if _, ok := l.Take(4); ok {
		t.Fatal("second flit visible at cycle 4, before its arrival at 5")
	}
	if r, ok := l.Take(5); !ok || r.Idx != 1 {
		t.Fatalf("second flit not delivered at cycle 5: %v %v", r, ok)
	}
}

// mustSend sends r on l at now, failing the test if the link refuses it.
func mustSend(t *testing.T, l *Link, now int64, r flit.Ref) {
	t.Helper()
	if !l.TrySend(now, r) {
		t.Fatalf("link %s refused flit %v at cycle %d", l.Name(), r, now)
	}
}

// mustTake takes a flit off l at now, failing the test if none has arrived.
func mustTake(t *testing.T, l *Link, now int64) flit.Ref {
	t.Helper()
	r, ok := l.Take(now)
	if !ok {
		t.Fatalf("link %s: nothing to take at cycle %d", l.Name(), now)
	}
	return r
}

func TestLinkBandwidthOnePerCycle(t *testing.T) {
	l := NewLink("t", 1, 10)
	w := testWorm(4)
	mustSend(t, l, 5, flit.Ref{W: w, Idx: 0})
	if l.TrySend(5, flit.Ref{W: w, Idx: 1}) {
		t.Fatal("second send allowed in same cycle")
	}
	if !l.TrySend(6, flit.Ref{W: w, Idx: 1}) {
		t.Fatal("send not allowed next cycle")
	}
}

func TestLinkCredits(t *testing.T) {
	l := NewLink("t", 1, 2)
	w := testWorm(4)
	mustSend(t, l, 0, flit.Ref{W: w, Idx: 0})
	mustSend(t, l, 1, flit.Ref{W: w, Idx: 1})
	if l.CanSend(2) {
		t.Fatal("send allowed with zero credits")
	}
	mustTake(t, l, 2) // receiver buffers it...
	if l.CanSend(3) {
		t.Fatal("credit appeared without ReturnCredit")
	}
	l.ReturnCredit(2, 1) // ...and frees the slot at cycle 2
	if l.CanSend(2) {
		t.Fatal("credit visible before reverse latency")
	}
	if !l.CanSend(3) {
		t.Fatal("credit not visible after reverse latency")
	}
}

func TestLinkReceiverOnePerCycle(t *testing.T) {
	l := NewLink("t", 1, 4)
	w := testWorm(4)
	mustSend(t, l, 0, flit.Ref{W: w, Idx: 0})
	mustSend(t, l, 1, flit.Ref{W: w, Idx: 1})
	mustTake(t, l, 2)
	if _, ok := l.Take(2); ok {
		t.Fatal("second take allowed in one cycle")
	}
	if _, ok := l.Take(3); !ok {
		t.Fatal("flit lost")
	}
}

// TestLinkArrivalBit: a bound arrival bit is set while any flit is on the
// wire (sent, arrived or not) and cleared when the last one is taken;
// binding and checkpoint restore re-derive it from the wire.
func TestLinkArrivalBit(t *testing.T) {
	var word uint64
	l := NewLink("t", 2, 4)
	w := testWorm(2)
	mustSend(t, l, 0, flit.Ref{W: w, Idx: 0})
	l.BindArrival(&word, 3)
	if word != 1<<3 {
		t.Fatalf("binding a busy wire: word %#x, want bit 3", word)
	}
	mustSend(t, l, 1, flit.Ref{W: w, Idx: 1})
	mustTake(t, l, 2)
	if word != 1<<3 {
		t.Fatalf("bit cleared with a flit still on the wire: %#x", word)
	}
	mustTake(t, l, 3)
	if word != 0 {
		t.Fatalf("bit left set on an empty wire: %#x", word)
	}
	l.ReturnCredit(3, 2)
	mustSend(t, l, 5, flit.Ref{W: w, Idx: 0})
	if word != 1<<3 {
		t.Fatalf("TrySend did not set the bit: %#x", word)
	}

	g := ckpt.NewGraph()
	var genc, enc ckpt.Enc
	l.EncodeState(&enc, g)
	g.Encode(&genc)
	var twinWord uint64
	twin := NewLink("t", 2, 4)
	twin.BindArrival(&twinWord, 5)
	twin.DecodeState(ckpt.NewDec(enc.Bytes()), ckpt.DecodeGraph(ckpt.NewDec(genc.Bytes())))
	if twinWord != 1<<5 {
		t.Fatalf("restored busy wire: word %#x, want bit 5", twinWord)
	}
}

// encodeLink returns the link's checkpoint bytes, its worm graph included.
func encodeLink(l *Link) []byte {
	g := ckpt.NewGraph()
	var genc, enc ckpt.Enc
	l.EncodeState(&enc, g)
	g.Encode(&genc)
	return append(genc.Bytes(), enc.Bytes()...)
}

// TestLinkTrySendWithoutCreditRefuses: a send the link cannot grant is
// refused without touching the wire, the credits, the bandwidth slot, the
// conservation tracking or the arrival bit.
func TestLinkTrySendWithoutCreditRefuses(t *testing.T) {
	var word uint64
	l := NewLink("t", 1, 1)
	l.BindArrival(&word, 0)
	w := testWorm(4)
	mustSend(t, l, 0, flit.Ref{W: w, Idx: 0})
	mustTake(t, l, 1)
	before := encodeLink(l)
	if l.TrySend(1, flit.Ref{W: w, Idx: 1}) {
		t.Fatal("send without credit granted")
	}
	if got := encodeLink(l); string(got) != string(before) {
		t.Fatal("refused TrySend changed the link state")
	}
	if word != 0 || l.InFlight() != 0 {
		t.Fatalf("refused TrySend put a flit on the wire: bit %#x, in flight %d", word, l.InFlight())
	}
}

// pipe is a minimal component that forwards flits from one link to another.
type pipe struct {
	name    string
	in, out *Link
	held    []flit.Ref
	cap     int
}

func (p *pipe) Name() string   { return p.name }
func (p *pipe) Quiesced() bool { return len(p.held) == 0 }
func (p *pipe) Step(now int64) {
	if len(p.held) > 0 && p.out != nil && p.out.TrySend(now, p.held[0]) {
		p.held = p.held[1:]
		p.in.ReturnCredit(now, 1)
	}
	if len(p.held) < p.cap {
		if r, ok := p.in.Take(now); ok {
			p.held = append(p.held, r)
		}
	}
}

// sink consumes flits and records arrival cycles.
type sink struct {
	in       *Link
	arrivals []int64
}

func (s *sink) Name() string   { return "sink" }
func (s *sink) Quiesced() bool { return true }
func (s *sink) Step(now int64) {
	if _, ok := s.in.Take(now); ok {
		s.in.ReturnCredit(now, 1)
		s.arrivals = append(s.arrivals, now)
	}
}

func TestSimulationPipeline(t *testing.T) {
	sim := NewSimulation(1000)
	l1 := sim.NewLink("l1", 1, 2)
	l2 := sim.NewLink("l2", 1, 2)
	p := &pipe{name: "p", in: l1, out: l2, cap: 2}
	snk := &sink{in: l2}
	sim.AddComponent(p)
	sim.AddComponent(snk)

	w := testWorm(3)
	for i := 0; i < 3; i++ {
		if !l1.TrySend(sim.Now, flit.Ref{W: w, Idx: i}) {
			sim.Step()
			mustSend(t, l1, sim.Now, flit.Ref{W: w, Idx: i})
		}
		sim.Step()
	}
	ok, err := sim.Drain(100)
	if err != nil || !ok {
		t.Fatalf("drain: ok=%v err=%v", ok, err)
	}
	if len(snk.arrivals) != 3 {
		t.Fatalf("sink got %d flits, want 3", len(snk.arrivals))
	}
	for i := 1; i < len(snk.arrivals); i++ {
		if snk.arrivals[i] <= snk.arrivals[i-1] {
			t.Fatalf("arrivals not strictly increasing: %v", snk.arrivals)
		}
	}
}

// stuckComponent holds work forever without moving flits.
type stuckComponent struct{}

func (stuckComponent) Name() string   { return "stuck" }
func (stuckComponent) Quiesced() bool { return false }
func (stuckComponent) Step(int64)     {}

func TestWatchdogFires(t *testing.T) {
	sim := NewSimulation(50)
	sim.AddComponent(stuckComponent{})
	err := sim.Run(200)
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("expected DeadlockError, got %v", err)
	}
	if len(de.Stuck) != 1 || de.Stuck[0] != "stuck" {
		t.Fatalf("wrong stuck list: %v", de.Stuck)
	}
}

func TestWatchdogSilentWhenIdle(t *testing.T) {
	sim := NewSimulation(10)
	if err := sim.Run(1000); err != nil {
		t.Fatalf("idle sim tripped watchdog: %v", err)
	}
}

// ticking holds work but declares internal progress (like a software
// overhead timer counting down).
type ticking struct{ sim *Simulation }

func (ticking) Name() string   { return "ticking" }
func (ticking) Quiesced() bool { return false }
func (c ticking) Step(int64)   { c.sim.Progress() }

func TestWatchdogResetByProgress(t *testing.T) {
	sim := NewSimulation(50)
	sim.AddComponent(ticking{sim: sim})
	if err := sim.Run(500); err != nil {
		t.Fatalf("watchdog fired despite declared progress: %v", err)
	}
}

func TestIDGen(t *testing.T) {
	var g IDGen
	if g.Next() != 1 || g.Next() != 2 || g.Next() != 3 {
		t.Fatal("IDGen not sequential from 1")
	}
}

func TestLinkAccessors(t *testing.T) {
	l := NewLink("wire", 2, 3)
	if l.Name() != "wire" || !l.Quiesced() || l.InFlight() != 0 {
		t.Fatal("fresh link accessors wrong")
	}
	w := testWorm(2)
	mustSend(t, l, 0, flit.Ref{W: w, Idx: 0})
	if l.Quiesced() || l.InFlight() != 1 {
		t.Fatal("in-flight accounting wrong")
	}
	mustTake(t, l, 2)
	if !l.Quiesced() {
		t.Fatal("link not quiesced after delivery")
	}
}

func TestSimulationLinksRegistered(t *testing.T) {
	sim := NewSimulation(0)
	sim.NewLink("a", 1, 1)
	sim.NewLink("b", 1, 1)
	if len(sim.Links()) != 2 {
		t.Fatalf("links = %d", len(sim.Links()))
	}
}

func TestDeadlockErrorListsLinks(t *testing.T) {
	sim := NewSimulation(10)
	l := sim.NewLink("stuck-wire", 1, 1)
	w := testWorm(2)
	mustSend(t, l, 0, flit.Ref{W: w, Idx: 0}) // never consumed
	err := sim.Run(100)
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("expected deadlock, got %v", err)
	}
	found := false
	for _, s := range de.Stuck {
		if s == "link:stuck-wire" {
			found = true
		}
	}
	if !found {
		t.Fatalf("stuck link not reported: %v", de.Stuck)
	}
}

func TestRunUntilBudget(t *testing.T) {
	sim := NewSimulation(0)
	calls := 0
	ok, err := sim.RunUntil(func() bool { calls++; return false }, 10)
	if ok || err != nil {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if sim.Now != 10 {
		t.Fatalf("advanced %d cycles, want 10", sim.Now)
	}
	// The event kernel jumps over spans where every component sleeps, so
	// the predicate is no longer polled once per cycle — but it must be
	// checked before advancing and once more when the budget runs out.
	if calls < 2 {
		t.Fatalf("predicate called %d times", calls)
	}
}

func TestTracerPlumbing(t *testing.T) {
	sim := NewSimulation(0)
	if sim.Tracing() {
		t.Fatal("tracing on by default")
	}
	var ct CollectTracer
	sim.SetTracer(&ct)
	if !sim.Tracing() {
		t.Fatal("tracer not installed")
	}
	sim.Now = 5
	sim.Emit(TraceEvent{Kind: TraceInject, Actor: "x"})
	if len(ct.Events) != 1 || ct.Events[0].Cycle != 5 {
		t.Fatalf("events: %+v", ct.Events)
	}
	if ct.Count(TraceInject) != 1 || ct.Count(TraceDeliver) != 0 {
		t.Fatal("Count wrong")
	}
	sim.SetTracer(nil)
	sim.Emit(TraceEvent{Kind: TraceInject})
	if len(ct.Events) != 1 {
		t.Fatal("emit after removal")
	}
}

// TestTraceKindNames is the exhaustiveness guard: every declared kind must
// render with a unique, stable name (never the trace(N) fallback) and parse
// back to itself. TraceKinds is sized by the traceKindCount sentinel, so a
// kind added without a name table entry fails here.
func TestTraceKindNames(t *testing.T) {
	kinds := TraceKinds()
	if len(kinds) < 10 {
		t.Fatalf("TraceKinds lists %d kinds, want at least the 10 seed kinds", len(kinds))
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		name := k.String()
		if name == "" || seen[name] {
			t.Fatalf("bad or duplicate kind name %q for kind %d", name, k)
		}
		if len(name) >= len("trace(") && name[:len("trace(")] == "trace(" {
			t.Fatalf("kind %d renders as fallback %q: name table out of sync", k, name)
		}
		back, ok := ParseTraceKind(name)
		if !ok || back != k {
			t.Fatalf("ParseTraceKind(%q) = %v,%v, want %v", name, back, ok, k)
		}
		seen[name] = true
	}
	if _, ok := ParseTraceKind("no-such-kind"); ok {
		t.Fatal("ParseTraceKind accepted an unknown name")
	}
}

// TestCollectTracerCap checks the optional ring cap: newest Max events are
// kept in order, overwritten ones are counted.
func TestCollectTracerCap(t *testing.T) {
	ct := CollectTracer{Max: 3}
	for i := 1; i <= 5; i++ {
		ct.Emit(TraceEvent{Cycle: int64(i), Kind: TraceInject})
	}
	if ct.Dropped != 2 {
		t.Fatalf("Dropped = %d, want 2", ct.Dropped)
	}
	got := ct.All()
	if len(got) != 3 || got[0].Cycle != 3 || got[1].Cycle != 4 || got[2].Cycle != 5 {
		t.Fatalf("All() = %+v, want cycles 3,4,5", got)
	}

	// Default stays unbounded with Events in arrival order.
	var unbounded CollectTracer
	for i := 1; i <= 100; i++ {
		unbounded.Emit(TraceEvent{Cycle: int64(i)})
	}
	if unbounded.Dropped != 0 || len(unbounded.Events) != 100 || len(unbounded.All()) != 100 {
		t.Fatalf("unbounded tracer dropped events: %d kept, %d dropped",
			len(unbounded.Events), unbounded.Dropped)
	}
}

func TestMultiTracer(t *testing.T) {
	var a, b CollectTracer
	m := MultiTracer{&a, &b}
	m.Emit(TraceEvent{Kind: TraceInject})
	if len(a.Events) != 1 || len(b.Events) != 1 {
		t.Fatalf("fan-out failed: %d/%d", len(a.Events), len(b.Events))
	}
}

func TestRunBudgetValidation(t *testing.T) {
	sim := NewSimulation(0)
	for _, cycles := range []int64{0, -5} {
		if err := sim.Run(cycles); err == nil {
			t.Fatalf("Run(%d) accepted a non-positive budget", cycles)
		}
		if _, err := sim.RunUntil(func() bool { return true }, cycles); err == nil {
			t.Fatalf("RunUntil(%d) accepted a non-positive budget", cycles)
		}
		if _, err := sim.Drain(cycles); err == nil {
			t.Fatalf("Drain(%d) accepted a non-positive budget", cycles)
		}
	}
	if sim.Now != 0 {
		t.Fatalf("rejected budgets still advanced the clock to %d", sim.Now)
	}
}

// TestLinkFastPathAllocs pins the steady-state send/take/credit path at zero
// allocations: the ring buffers reuse their storage once warmed up.
func TestLinkFastPathAllocs(t *testing.T) {
	l := NewLink("alloc", 1, 4)
	w := testWorm(1 << 20)
	now := int64(0)
	// Warm the rings past their initial growth.
	for i := 0; i < 16; i++ {
		l.TrySend(now, flit.Ref{W: w, Idx: 0})
		now++
		l.Take(now)
		l.ReturnCredit(now, 1)
	}
	avg := testing.AllocsPerRun(1000, func() {
		l.TrySend(now, flit.Ref{W: w, Idx: 0})
		now++
		l.Take(now)
		l.ReturnCredit(now, 1)
	})
	if avg != 0 {
		t.Fatalf("link fast path allocates %.2f times per cycle, want 0", avg)
	}
}

// counter consumes arrivals and counts how often the scheduler steps it.
type counter struct {
	in    *Link
	steps int
}

func (c *counter) Name() string   { return "counter" }
func (c *counter) Quiesced() bool { return true }
func (c *counter) Step(now int64) {
	c.steps++
	if _, ok := c.in.Take(now); ok {
		c.in.ReturnCredit(now, 1)
	}
}

// TestActiveSetSkipsIdle checks the scheduler contract: a component with
// declared inputs is stepped while stimulated, sleeps once idle, and is
// re-armed by a send on a declared link or an explicit Wake.
func TestActiveSetSkipsIdle(t *testing.T) {
	sim := NewSimulation(0)
	l := sim.NewLink("in", 1, 4)
	c := &counter{in: l}
	ci := sim.AddComponent(c)
	sim.DeclareInputs(ci, l)

	if err := sim.Run(10); err != nil {
		t.Fatal(err)
	}
	if c.steps != 1 {
		t.Fatalf("idle declared component stepped %d times in 10 cycles, want 1", c.steps)
	}

	w := testWorm(2)
	mustSend(t, l, sim.Now, flit.Ref{W: w, Idx: 0})
	if err := sim.Run(10); err != nil {
		t.Fatal(err)
	}
	if !l.Quiesced() {
		t.Fatal("flit not consumed: Send did not re-arm the component")
	}
	stepsAfterTraffic := c.steps
	if stepsAfterTraffic <= 1 {
		t.Fatalf("component never woke: steps=%d", stepsAfterTraffic)
	}
	if c.steps >= 11 {
		t.Fatalf("component never went back to sleep: steps=%d", c.steps)
	}

	sim.Wake(ci)
	if err := sim.Run(10); err != nil {
		t.Fatal(err)
	}
	if c.steps != stepsAfterTraffic+1 {
		t.Fatalf("Wake should buy exactly one step: %d -> %d", stepsAfterTraffic, c.steps)
	}
}

// TestUndeclaredComponentAlwaysStepped pins backward compatibility: a
// component that never called DeclareInputs is stepped every cycle even when
// quiesced.
func TestUndeclaredComponentAlwaysStepped(t *testing.T) {
	sim := NewSimulation(0)
	l := sim.NewLink("in", 1, 4)
	c := &counter{in: l}
	sim.AddComponent(c)
	if err := sim.Run(10); err != nil {
		t.Fatal(err)
	}
	if c.steps != 10 {
		t.Fatalf("undeclared component stepped %d times in 10 cycles, want 10", c.steps)
	}
}

// relay forwards flits between two links out of a fixed-size buffer so its
// own Step never allocates; it backs the steady-state allocation guard.
type relay struct {
	name    string
	in, out *Link
	buf     [4]flit.Ref
	n       int
}

func (r *relay) Name() string   { return r.name }
func (r *relay) Quiesced() bool { return r.n == 0 }
func (r *relay) Step(now int64) {
	if r.n > 0 && r.out.TrySend(now, r.buf[0]) {
		copy(r.buf[:], r.buf[1:r.n])
		r.n--
		r.in.ReturnCredit(now, 1)
	}
	if r.n < len(r.buf) {
		if f, ok := r.in.Take(now); ok {
			r.buf[r.n] = f
			r.n++
		}
	}
}

// steadyRing builds a two-relay ring with one flit circulating forever.
func steadyRing() *Simulation {
	sim := NewSimulation(0)
	la := sim.NewLink("ring-a", 1, 4)
	lb := sim.NewLink("ring-b", 1, 4)
	r1 := &relay{name: "r1", in: la, out: lb}
	r2 := &relay{name: "r2", in: lb, out: la}
	sim.DeclareInputs(sim.AddComponent(r1), la)
	sim.DeclareInputs(sim.AddComponent(r2), lb)
	// A single-flit worm keeps the per-link conservation checker satisfied
	// as the same flit loops forever.
	la.TrySend(sim.Now, flit.Ref{W: testWorm(1), Idx: 0})
	return sim
}

// TestSimStepSteadyStateAllocs pins the engine hot path with no tracer and no
// observer at zero allocations per cycle: observability must stay strictly
// pay-for-what-you-use.
func TestSimStepSteadyStateAllocs(t *testing.T) {
	sim := steadyRing()
	for i := 0; i < 64; i++ { // warm the rings past initial growth
		sim.Step()
	}
	avg := testing.AllocsPerRun(1000, sim.Step)
	if avg != 0 {
		t.Fatalf("engine steady state allocates %.2f times per cycle with no observer, want 0", avg)
	}
}

// BenchmarkSimStepSteadyState is the benchmark form of the guard above; run
// with -benchmem to see the 0 allocs/op.
func BenchmarkSimStepSteadyState(b *testing.B) {
	sim := steadyRing()
	for i := 0; i < 64; i++ {
		sim.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
	}
}

func BenchmarkLinkSendTakeCredit(b *testing.B) {
	l := NewLink("bench", 1, 4)
	w := testWorm(1 << 20)
	b.ReportAllocs()
	now := int64(0)
	for i := 0; i < b.N; i++ {
		l.TrySend(now, flit.Ref{W: w, Idx: 0})
		now++
		l.Take(now)
		l.ReturnCredit(now, 1)
	}
}

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}
