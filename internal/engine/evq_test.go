package engine

import (
	"cmp"
	"slices"
	"testing"
)

// FuzzEventQueue checks the event queue against a reference multiset of
// (cycle, component) events. Each step pushes events a few cycles, a few
// hundred cycles, about 256 cycles and up to 5000 cycles ahead, and re-pushes
// queued pairs, as the kernel does with stale duplicates. Then the clock
// moves on by one cycle or jumps up to 600, as Advance does when every
// component sleeps. After each popDue the popped components must be exactly
// those due by now, and peek and len must match the reference; every 97
// steps the collected events must equal it.
func FuzzEventQueue(f *testing.F) {
	f.Add(uint64(1), uint16(3000))
	f.Add(uint64(7), uint16(5000))
	f.Add(uint64(12), uint16(600))
	f.Fuzz(func(t *testing.T, seed uint64, steps uint16) {
		rng := NewRNG(seed)
		var q eventQueue
		var ref []compEvent
		var now int64
		for step := 0; step < int(steps); step++ {
			for k := rng.Intn(3); k > 0; k-- {
				var d int
				switch rng.Intn(5) {
				case 0:
					d = 1 + rng.Intn(8)
				case 1:
					d = 1 + rng.Intn(300)
				case 2:
					d = 250 + rng.Intn(20)
				case 3:
					d = 1 + rng.Intn(5000)
				default:
					if len(ref) > 0 {
						ev := ref[rng.Intn(len(ref))]
						q.push(ev.at, ev.comp)
						ref = append(ref, ev)
					}
					continue
				}
				ev := compEvent{at: now + int64(d), comp: int32(rng.Intn(16))}
				q.push(ev.at, ev.comp)
				ref = append(ref, ev)
			}
			if rng.Intn(8) == 0 {
				now += 1 + int64(rng.Intn(600))
			} else {
				now++
			}

			var got, want []int32
			q.popDue(now, func(comp int32) { got = append(got, comp) })
			ref = slices.DeleteFunc(ref, func(ev compEvent) bool {
				due := ev.at <= now
				if due {
					want = append(want, ev.comp)
				}
				return due
			})
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("step %d, now %d: popped %v, want %v", step, now, got, want)
			}
			at, ok := q.peek()
			if ok != (len(ref) > 0) || ok && at != slices.MinFunc(ref, compareEvents).at {
				t.Fatalf("step %d, now %d: peek %d %v, want the earliest of %v", step, now, at, ok, ref)
			}
			if q.len() != len(ref) {
				t.Fatalf("step %d, now %d: len %d, want %d", step, now, q.len(), len(ref))
			}
			if step%97 == 0 {
				all := q.collect(nil)
				slices.SortFunc(all, compareEvents)
				sorted := slices.Clone(ref)
				slices.SortFunc(sorted, compareEvents)
				if !slices.Equal(all, sorted) {
					t.Fatalf("step %d, now %d: collected %v, want %v", step, now, all, sorted)
				}
			}
		}
	})
}

func compareEvents(a, b compEvent) int {
	return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.comp, b.comp))
}
