//go:build mdworm_oracle

package flit

import "testing"

// TestWormArenaPoisonsReleased checks the oracle build: a released worm is
// never handed out again, and reading its length panics.
func TestWormArenaPoisonsReleased(t *testing.T) {
	var a WormArena
	w := a.New()
	*w = Worm{ID: 7, Msg: &Message{ID: 1, HeaderFlits: 1, PayloadFlits: 4}}
	w.Len()
	a.Release(w)
	for i := 0; i < 2*wormChunk; i++ {
		if a.New() == w {
			t.Fatalf("released worm handed out again by New %d", i)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Len of a released worm did not panic")
		}
	}()
	w.Len()
}

// TestPoolPoisonsReleasedMessagesAndOps checks the oracle build: a released
// message and op are never handed out again; the message names no op,
// destinations or forwarding step, and the op panics on Deliver and DropN.
func TestPoolPoisonsReleasedMessagesAndOps(t *testing.T) {
	var a WormArena
	op := a.NewOp(1, ClassMulticast, 0, 2, 0)
	group := op.SetGroup([]int{3, 5}, true)
	m := a.NewMessage(op)
	m.ID, m.Dests, m.HeaderFlits = 2, group[1:], 1
	m.SetForward(ForwardStep{Group: group, Hi: len(group)})
	w := a.New()
	*w = Worm{ID: 3, Msg: m}
	a.Hold(m)
	a.ReleaseOp(op)
	a.Release(w)
	if m.Op != nil || m.Dests != nil || m.Forward != nil {
		t.Fatalf("released message not poisoned: %+v", *m)
	}
	for i := 0; i < 2*messageChunk; i++ {
		if a.NewMessage(nil) == m {
			t.Fatalf("released message handed out again by NewMessage %d", i)
		}
	}
	for i := 0; i < 2*opChunk; i++ {
		if a.NewOp(9, ClassUnicast, 0, 1, 0) == op {
			t.Fatalf("released op handed out again by NewOp %d", i)
		}
	}
	for name, use := range map[string]func(){
		"Deliver": func() { op.Deliver(10) },
		"DropN":   func() { op.DropN(1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released op did not panic", name)
				}
			}()
			use()
		}()
	}
}
