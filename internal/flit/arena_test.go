package flit

import (
	"reflect"
	"runtime"
	"runtime/metrics"
	"testing"
	"unsafe"
)

// TestWormSize pins the Worm layout that WormArena's chunk size assumes.
func TestWormSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Worm{}); got != 64 {
		t.Fatalf("Worm is %d bytes, want 64", got)
	}
}

// TestWormArenaChunkFitsSizeClass checks that a chunk refill costs no more
// heap than the 4,096-byte size class: a chunk one worm larger, or a larger
// worm, spills into the 4,864-byte class.
func TestWormArenaChunkFitsSizeClass(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("size classes pinned for 64-bit platforms")
	}
	const refills = 16
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	allocated := func() uint64 {
		// ReadMemStats flushes every P's allocation cache into the
		// counters the metric reads.
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		metrics.Read(sample)
		return sample[0].Value.Uint64()
	}
	var a WormArena
	best := ^uint64(0)
	for trial := 0; trial < 3; trial++ {
		before := allocated()
		for i := 0; i < refills*wormChunk; i++ {
			a.New()
		}
		best = min(best, allocated()-before)
	}
	if per := best / refills; per > 4096 {
		t.Fatalf("a chunk refill allocates %d bytes, want at most 4096", per)
	}
}

// TestNilWormArena checks the standalone arena: New allocates a fresh zeroed
// worm each time and Release leaves the worm untouched.
func TestNilWormArena(t *testing.T) {
	var a *WormArena
	w := a.New()
	if w == nil || !reflect.ValueOf(*w).IsZero() || a.New() == w {
		t.Fatalf("nil arena New returned %+v", w)
	}
	*w = Worm{ID: 3, Msg: &Message{ID: 1, HeaderFlits: 1}}
	a.Release(w)
	if w.ID != 3 || w.Len() != 1 {
		t.Fatalf("nil arena Release changed the worm: %+v", *w)
	}
}

// TestWormArenaDoubleReleasePanics checks that releasing a worm twice
// panics instead of putting it on the free list twice.
func TestWormArenaDoubleReleasePanics(t *testing.T) {
	var a WormArena
	w := a.New()
	*w = Worm{ID: 1, Msg: &Message{ID: 1, HeaderFlits: 1}}
	a.Release(w)
	defer func() {
		if recover() == nil {
			t.Fatal("second Release did not panic")
		}
	}()
	a.Release(w)
}

// TestMessageAndOpSizes pins the layouts that the message and op chunk
// sizes assume.
func TestMessageAndOpSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Message{}); got != 152 {
		t.Fatalf("Message is %d bytes, want 152", got)
	}
	if got := unsafe.Sizeof(Op{}); got != 128 {
		t.Fatalf("Op is %d bytes, want 128", got)
	}
}

// TestPoolChunksFitSizeClass checks that message and op chunk refills cost
// no more heap than the 4,096-byte size class, like worm chunks.
func TestPoolChunksFitSizeClass(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("size classes pinned for 64-bit platforms")
	}
	const refills = 16
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	allocated := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		metrics.Read(sample)
		return sample[0].Value.Uint64()
	}
	for _, c := range []struct {
		name  string
		chunk int
		carve func(a *WormArena)
	}{
		{"message", messageChunk, func(a *WormArena) { a.NewMessage(nil) }},
		{"op", opChunk, func(a *WormArena) { a.NewOp(1, ClassUnicast, 0, 1, 0) }},
	} {
		var a WormArena
		best := ^uint64(0)
		for trial := 0; trial < 3; trial++ {
			before := allocated()
			for i := 0; i < refills*c.chunk; i++ {
				c.carve(&a)
			}
			best = min(best, allocated()-before)
		}
		if per := best / refills; per > 4096 {
			t.Fatalf("a %s chunk refill allocates %d bytes, want at most 4096", c.name, per)
		}
	}
}

// TestNilPoolMessagesAndOps checks the standalone pool: messages and ops
// come from the heap, holds are not counted and releases change nothing.
func TestNilPoolMessagesAndOps(t *testing.T) {
	var a *WormArena
	op := a.NewOp(4, ClassMulticast, 1, 2, 10)
	m := a.NewMessage(op)
	if m.Op != op || m.pooled || op.pooled || op.Remaining() != 2 {
		t.Fatalf("nil pool made message %+v op %+v", *m, *op)
	}
	m.ID = 9
	a.Hold(m)
	a.ReleaseMessage(m)
	a.ReleaseMessage(m)
	a.ReleaseOp(op)
	if m.ID != 9 || m.Op != op || op.ID != 4 {
		t.Fatalf("nil pool release changed message %+v op %+v", *m, *op)
	}
}

// TestMessageHoldersKeepMessageAndOp checks the holder counts: a message
// goes back to the pool only when its last worm is released, and its op
// only once the message is back and the completion hold is dropped. A
// further release of either panics.
func TestMessageHoldersKeepMessageAndOp(t *testing.T) {
	var a WormArena
	op := a.NewOp(1, ClassMulticast, 0, 2, 0)
	m := a.NewMessage(op)
	m.ID, m.HeaderFlits = 2, 1
	worms := []*Worm{a.New(), a.New()}
	for i, w := range worms {
		*w = Worm{ID: uint64(10 + i), Msg: m}
		a.Hold(m)
	}
	a.Release(worms[0])
	if m.ID != 2 || m.Op != op {
		t.Fatalf("message recycled with a worm still live: %+v", *m)
	}
	a.ReleaseOp(op) // the completion hold
	if op.ID != 1 {
		t.Fatalf("op recycled while its message is live: %+v", *op)
	}
	a.Release(worms[1])
	if m.ID != 0 || m.Op != nil || op.ID != 0 {
		t.Fatalf("last release kept message %+v op %+v", *m, *op)
	}
	for name, release := range map[string]func(){
		"message": func() { a.ReleaseMessage(m) },
		"op":      func() { a.ReleaseOp(op) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("releasing a recycled %s did not panic", name)
				}
			}()
			release()
		}()
	}
}
