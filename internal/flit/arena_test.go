package flit

import (
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
