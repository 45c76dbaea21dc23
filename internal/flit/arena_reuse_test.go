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
