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
