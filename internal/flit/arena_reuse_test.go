//go:build !mdworm_oracle

package flit

import (
	"reflect"
	"testing"
)

// TestWormArenaReusesReleased checks that the next New after a release hands
// out the released worm, zeroed, and carves no chunk for it.
func TestWormArenaReusesReleased(t *testing.T) {
	var a WormArena
	w := a.New()
	*w = Worm{ID: 7, Msg: &Message{ID: 1, HeaderFlits: 1, PayloadFlits: 4}, Hops: 2, GoingUp: true}
	if w.Len() != 5 {
		t.Fatalf("Len = %d, want 5", w.Len())
	}
	a.Release(w)
	got := a.New()
	if got != w {
		t.Fatalf("New after Release returned %p, want the released worm %p", got, w)
	}
	if !reflect.ValueOf(*got).IsZero() {
		t.Fatalf("reused worm not zeroed: %+v", *got)
	}
	if a.Chunks() != 1 {
		t.Fatalf("carved %d chunks, want 1", a.Chunks())
	}
}

// TestPoolReusesMessagesAndOps checks that a recycled message and op come
// back zeroed apart from the op's group storage, and that the message
// builds its root worm's set in its own word.
func TestPoolReusesMessagesAndOps(t *testing.T) {
	var a WormArena
	op := a.NewOp(1, ClassMulticast, 0, 3, 0)
	group := op.SetGroup([]int{9, 4, 7}, true)
	m := a.NewMessage(op)
	m.ID, m.Dests, m.HeaderFlits = 2, group[1:], 1
	m.SetForward(ForwardStep{Group: group, Hi: len(group)})
	root := m.RootDests(16)
	w := a.New()
	*w = Worm{ID: 3, Msg: m, Dests: root}
	a.Hold(m)
	a.ReleaseOp(op)
	a.Release(w)

	op2 := a.NewOp(5, ClassUnicast, 2, 1, 7)
	if op2 != op || op2.ID != 5 || op2.Remaining() != 1 || len(op2.group) != 0 || cap(op2.group) < 4 {
		t.Fatalf("reused op %+v", *op2)
	}
	m2 := a.NewMessage(op2)
	if m2 != m || m2.Op != op2 || m2.ID != 0 || m2.Dests != nil || m2.Forward != nil {
		t.Fatalf("reused message %+v", *m2)
	}
	m2.Dests = op2.SetGroup([]int{6}, false)[1:]
	if set := m2.RootDests(16); &set.Words()[0] != &root.Words()[0] || !set.Has(6) || set.Count() != 1 {
		t.Fatalf("reused message built root set %v outside its own word", set)
	}
	if a.MessageChunks() != 1 || a.OpChunks() != 1 {
		t.Fatalf("carved %d message and %d op chunks, want 1 each", a.MessageChunks(), a.OpChunks())
	}
}
