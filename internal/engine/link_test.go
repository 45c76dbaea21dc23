package engine

import (
	"testing"

	"mdworm/internal/ckpt"
	"mdworm/internal/flit"
)

// TestLinkQueuesSizedByWire: both rings are sized by the wire's latency, not
// by the receiver's buffer, and a sender that sends every cycle it can into
// a receiver that takes every arrival never grows them.
func TestLinkQueuesSizedByWire(t *testing.T) {
	sim := NewSimulation(0)
	for _, c := range []struct{ latency, credits, slots int }{
		{1, 576, 2},
		{3, 4, 4},
		{3, 576, 4},
		{3, 1 << 16, 4},
	} {
		for _, l := range []*Link{
			NewLink("solo", c.latency, c.credits),
			sim.NewLink("sim", c.latency, c.credits),
		} {
			w := testWorm(1 << 20)
			next, peak := 0, 0
			for now := int64(0); now < 500; now++ {
				if l.TrySend(now, flit.Ref{W: w, Idx: next}) {
					next++
				}
				peak = max(peak, l.InFlight())
				if _, ok := l.Take(now); ok {
					l.ReturnCredit(now, 1)
				}
			}
			if peak != c.latency+1 {
				t.Fatalf("%s latency %d credits %d: %d flits peaked on the wire, want a saturated %d",
					l.Name(), c.latency, c.credits, peak, c.latency+1)
			}
			if nf, nc := len(l.inflight.buf), len(l.creditsQ.buf); nf > c.slots || nc > c.slots {
				t.Fatalf("%s latency %d credits %d: rings hold %d flits and %d returns, want at most %d each",
					l.Name(), c.latency, c.credits, nf, nc, c.slots)
			}
		}
	}
}

// visibleCredits is the count CanSend(now) would see, computed without
// folding the queue.
func visibleCredits(l *Link, now int64) int {
	n := l.credits
	for i := 0; i < l.creditsQ.len(); i++ {
		if e := l.creditsQ.at(i); e.at <= now {
			n += e.v
		}
	}
	return n
}

// TestCreditReturnsFoldWhenDue: a receiver returns 600 single credits, one
// per cycle, while the sender never polls. The returns fold into the
// sender's count as they fall due, so at most latency of them stay pending,
// and each becomes visible exactly latency cycles after it was made.
func TestCreditReturnsFoldWhenDue(t *testing.T) {
	const latency, returns = 3, 600
	w := testWorm(1 << 20)
	quiet := NewLink("quiet", latency, returns) // sender never polls
	polled := NewLink("polled", latency, returns)
	// Fill the receiver's buffer: every credit is spent and every flit
	// taken off the wire.
	var now int64
	for ; now < returns+latency; now++ {
		for _, l := range []*Link{quiet, polled} {
			if now < returns {
				mustSend(t, l, now, flit.Ref{W: w, Idx: int(now)})
			}
			if now >= latency {
				mustTake(t, l, now)
			}
		}
	}
	start := now
	for i := 0; i < returns+latency; i++ {
		now = start + int64(i)
		if i < returns {
			quiet.ReturnCredit(now, 1)
			polled.ReturnCredit(now, 1)
		}
		if n := quiet.creditsQ.len(); n > latency {
			t.Fatalf("cycle %d: %d returns pending, want at most %d", now, n, latency)
		}
		// Returns made at start..now-latency are visible, no later ones.
		if got, want := visibleCredits(quiet, now), max(0, min(i-latency, returns-1)+1); got != want {
			t.Fatalf("cycle %d: %d credits visible, want %d", now, got, want)
		}
		// The polled sender spends each credit the cycle it appears.
		sent := polled.TrySend(now, flit.Ref{W: w, Idx: returns + i})
		if want := i >= latency; sent != want {
			t.Fatalf("cycle %d: send granted %v, want %v", now, sent, want)
		}
	}
	if polled.TrySend(now+1, flit.Ref{W: w, Idx: 2 * returns}) {
		t.Fatal("send granted after every returned credit was spent")
	}
}

// TestSameCycleReturnsMerge: returns made in one cycle share one queue
// entry and become visible together.
func TestSameCycleReturnsMerge(t *testing.T) {
	l := NewLink("t", 2, 8)
	w := testWorm(8)
	for now := int64(0); now < 4; now++ {
		mustSend(t, l, now, flit.Ref{W: w, Idx: int(now)})
	}
	for _, n := range []int{1, 1, 2} {
		l.ReturnCredit(10, n)
	}
	if n := l.creditsQ.len(); n != 1 {
		t.Fatalf("three returns in one cycle left %d queue entries, want 1", n)
	}
	if got := visibleCredits(l, 11); got != 4 {
		t.Fatalf("%d credits visible before the returns are due, want 4", got)
	}
	if got := visibleCredits(l, 12); got != 8 {
		t.Fatalf("%d credits visible once the returns are due, want 8", got)
	}
}

// TestLinkRestoresUnfoldedCreditQueue: a link state written before returns
// were folded on arrival holds one queue entry per return the sender had
// not yet polled, more than a wire-sized ring holds and several of them
// already due. It must restore, and the sender must then be granted
// exactly what it would have been granted before the restore.
func TestLinkRestoresUnfoldedCreditQueue(t *testing.T) {
	const latency, credits, now = 3, 576, int64(101)
	w := testWorm(64)
	g := ckpt.NewGraph()
	g.AddWorm(w)
	var genc ckpt.Enc
	g.Encode(&genc)

	// Hand-encoded in the link checkpoint layout: the wire, the credit
	// queue, then the scalar state.
	type ret struct {
		v  int
		at int64
	}
	queue := []ret{{1, 90}, {1, 95}, {2, 97}, {1, 99}, {1, 101}, {1, 102}, {2, 103}}
	var enc ckpt.Enc
	enc.Int(2) // flits on the wire, sent at cycles 99 and 100
	for i, at := range []int64{102, 103} {
		enc.U64(g.WormID(w))
		enc.Int(i)
		enc.I64(at)
	}
	enc.Int(len(queue))
	for _, r := range queue {
		enc.Int(r.v)
		enc.I64(r.at)
	}
	enc.Int(0)           // credits
	enc.I64(100)         // lastSend
	enc.I64(100)         // lastTake
	enc.I64(40)          // carried
	enc.Bool(false)      // failed
	enc.Bool(true)       // midWorm
	enc.I64(0)           // stuckUntil
	enc.U64(g.WormID(w)) // expectWorm
	enc.Int(2)           // expectIdx

	l := NewSimulation(0).NewLink("restored", latency, credits)
	slots := len(l.creditsQ.buf)
	if slots >= len(queue) {
		t.Fatalf("scenario needs more pending returns than the %d-slot ring holds", slots)
	}
	d := ckpt.NewDec(enc.Bytes())
	l.DecodeState(d, ckpt.DecodeGraph(ckpt.NewDec(genc.Bytes())))
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	if l.creditsQ.len() != len(queue) || l.InFlight() != 2 {
		t.Fatalf("restored %d returns and %d flits, want %d and 2", l.creditsQ.len(), l.InFlight(), len(queue))
	}
	if l.headAt != 102 || l.creditAt != 90 {
		t.Fatalf("cached due cycles: head %d, credit %d; want 102 and 90", l.headAt, l.creditAt)
	}

	// The grant each cycle if the sender polls and sends every cycle: the
	// credits visible are the returns due by then, less the sends so far.
	spent := 0
	for c := now; c < now+16; c++ {
		due := 0
		for _, r := range queue {
			if r.at <= c {
				due += r.v
			}
		}
		want := due > spent
		if got := l.TrySend(c, flit.Ref{W: w, Idx: 2 + spent}); got != want {
			t.Fatalf("cycle %d: send granted %v, want %v (%d due, %d spent)", c, got, want, due, spent)
		}
		if want {
			spent++
		}
	}
	if _, ok := l.Take(now); ok {
		t.Fatal("flit taken before its arrival cycle")
	}
	if r := mustTake(t, l, 102); r.Idx != 0 {
		t.Fatalf("first restored flit is %d, want 0", r.Idx)
	}
}
