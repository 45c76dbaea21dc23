package routing

import (
	"testing"

	"mdworm/internal/bitset"
	"mdworm/internal/topology"
)

// BenchmarkRoute times one routing decision into a reused Decision on a
// 4-ary 3-tree with replication on the up path: a unicast going up and
// going down at stage 0, and an 8-destination multicast replicating at
// stage 0 and fanning out at its LCA (the top stage).
func BenchmarkRoute(b *testing.B) {
	net, err := topology.NewKaryTree(4, 3)
	if err != nil {
		b.Fatal(err)
	}
	r := &Router{Net: net, ReplicateOnUpPath: true, Policy: UpHash}
	mcast := []int{1, 2, 9, 17, 30, 41, 50, 63}
	for _, c := range []struct {
		name      string
		sw        *topology.Switch
		dests     []int
		ascending bool
	}{
		{"unicast-up", net.SwitchAt(0, 0), []int{63}, true},
		{"unicast-down", net.SwitchAt(0, 0), []int{1}, false},
		{"multicast8-stage0", net.SwitchAt(0, 0), mcast, true},
		{"multicast8-lca", net.SwitchAt(2, 0), mcast, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			dests := bitset.FromSlice(net.N, c.dests)
			var dec Decision
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := r.Route(c.sw, dests, c.ascending, &dec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
