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
