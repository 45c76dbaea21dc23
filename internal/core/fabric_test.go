package core

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"mdworm/internal/collective"
	"mdworm/internal/faults"
	"mdworm/internal/stats"
	"mdworm/internal/topology"
)

// memoized returns the shared fabric held for key, or nil.
func memoized(key fabricKey) *topology.Network {
	fabrics.Lock()
	defer fabrics.Unlock()
	for _, e := range fabrics.lru {
		if e.key == key {
			return e.net
		}
	}
	return nil
}

// netOf builds a simulator for cfg and returns its fabric.
func netOf(t *testing.T, cfg Config) *topology.Network {
	t.Helper()
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sim.Net()
}

// TestFabricsShared checks that configurations of one fabric shape share
// one topology, whatever else they set, and that Canonicalize reads and
// fills the same memo New does; another shape gets its own.
func TestFabricsShared(t *testing.T) {
	if !reuse {
		t.Skip("the oracle build gives every simulator a fresh fabric")
	}
	// Canonicalize of a shape no other test builds puts it in the memo,
	// and New then reads that fabric.
	odd := DefaultConfig()
	odd.Arity, odd.Stages = 3, 3
	if _, err := odd.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	shared := memoized(fabricKey{kind: KaryTree, arity: 3, stages: 3})
	if shared == nil {
		t.Fatal("Canonicalize did not keep the fabric it built")
	}
	if got := netOf(t, odd); got != shared {
		t.Fatal("New built its own fabric for a shape Canonicalize had built")
	}

	base := DefaultConfig()
	want := netOf(t, base)
	same := map[string]func(*Config){
		"seed":        func(c *Config) { c.Seed = 9 },
		"arch":        func(c *Config) { c.Arch = InputBuffer },
		"scheme":      func(c *Config) { c.Scheme = collective.SoftwareBinomial },
		"stray tree":  func(c *Config) { c.Tree = topology.TreeSpec{Switches: 6, MaxHosts: 2, MaxChildren: 2} },
		"canonical":   func(c *Config) { *c, _ = c.Canonicalize() },
		"link faults": func(c *Config) { c.Faults = faults.Plan{Events: []faults.Event{{Kind: faults.LinkDown, At: 9}}} },
	}
	for name, mutate := range same {
		cfg := base
		mutate(&cfg)
		if got := netOf(t, cfg); got != want {
			t.Errorf("%s: New built its own fabric for a shape already built", name)
		}
	}

	deeper := base
	deeper.Stages = 2
	if netOf(t, deeper) == want {
		t.Error("a 2-stage tree shares the 3-stage fabric")
	}
	tree := irregularCfg(1)
	other := irregularCfg(2)
	if a, b := netOf(t, tree), netOf(t, other); a == b {
		t.Error("irregular trees of different seeds share one fabric")
	} else if netOf(t, tree) != a {
		t.Error("an irregular tree is built twice")
	}
}

// TestFabricMemoBound builds more distinct shapes than the memo holds: the
// memo stays at its bound, drops the least recently used shape, and still
// shares the most recent one.
func TestFabricMemoBound(t *testing.T) {
	if !reuse {
		t.Skip("the oracle build keeps no fabrics")
	}
	build := func(cfg Config) *topology.Network {
		net, err := cfg.buildTopology()
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	cfgs := make([]Config, maxFabrics+4)
	nets := make([]*topology.Network, len(cfgs))
	for i := range cfgs {
		cfgs[i] = irregularCfg(1000 + uint64(i))
		cfgs[i].Tree.Switches = 3
		nets[i] = build(cfgs[i])
	}
	fabrics.Lock()
	n := len(fabrics.lru)
	fabrics.Unlock()
	if n != maxFabrics {
		t.Fatalf("memo holds %d fabrics after %d shapes, want its bound %d", n, len(cfgs), maxFabrics)
	}
	last := len(cfgs) - 1
	if build(cfgs[last]) != nets[last] {
		t.Error("the most recent shape is no longer shared")
	}
	if memoized(cfgs[0].fabricKey()) != nil {
		t.Error("the least recently used shape outlived the bound")
	}
}

// fabricReaders is one point per read path of a fabric: both switch
// organizations; bit-string, multiport and software schemes; the combining
// barrier; link-down and port-stuck faults, which route around dead ports;
// 2-, 3- and 4-stage trees and an irregular one.
func fabricReaders() map[string]Config {
	load := func(stages int, arch SwitchArch, scheme collective.Scheme) Config {
		cfg := faultTestBase()
		cfg.Stages = stages
		cfg.Arch = arch
		cfg.Scheme = scheme
		cfg.Traffic.MulticastFraction = 0.5
		cfg.Traffic.OpRate = cfg.Traffic.RateForLoad(0.3)
		return cfg
	}
	pts := map[string]Config{
		"cb-bitstring-2": load(2, CentralBuffer, collective.HardwareBitString),
		"ib-bitstring-3": load(3, InputBuffer, collective.HardwareBitString),
		"cb-multiport-3": load(3, CentralBuffer, collective.HardwareMultiport),
		"ib-software-4":  load(4, InputBuffer, collective.SoftwareBinomial),
		"cb-software-2":  load(2, CentralBuffer, collective.SoftwareSeparate),
	}
	tree := irregularCfg(3)
	tree.Arch = InputBuffer
	pts["irregular-ib"] = tree
	for _, arch := range []SwitchArch{CentralBuffer, InputBuffer} {
		cfg := DefaultConfig()
		cfg.Arch = arch
		cfg.Traffic.OpRate = 0
		cfg.WarmupCycles, cfg.MeasureCycles = 0, 0
		cfg.Collective = collective.Spec{Kind: collective.CombiningBarrier, Reps: 2}
		pts["combining-"+arch.String()] = cfg
		faulty := load(3, arch, collective.HardwareBitString)
		faulty.Faults = faults.Plan{Events: []faults.Event{
			{Kind: faults.LinkDown, At: 700, Switch: 0, Port: 0},
			{Kind: faults.LinkDown, At: 900, Switch: 1, Port: 4},
			{Kind: faults.PortStuck, At: 800, Duration: 300, Switch: 17, Port: 5},
		}}
		pts["faults-"+arch.String()] = faulty
	}
	return pts
}

// TestSharedFabricsStayUnchanged runs every read path of a fabric
// concurrently on shared fabrics, then requires each fabric the process
// holds to equal a fresh build of its shape. Under the race detector a write
// to a shared fabric during the runs fails the test too.
func TestSharedFabricsStayUnchanged(t *testing.T) {
	pts := fabricReaders()
	var wg sync.WaitGroup
	errs := make(chan error, len(pts))
	for name, cfg := range pts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sim, err := New(cfg)
			if err == nil {
				var res stats.Results
				res, err = sim.Run()
				t.Logf("%s: %d multicast ops, %d destinations dropped, %d cycles",
					name, res.Multicast.OpsCompleted, res.DestsDropped, sim.Now())
				if err == nil && cfg.Faults.Events != nil && res.DestsDropped == 0 {
					err = errors.New("no destination dropped: the dead-port path did not run")
				}
			}
			if err != nil {
				errs <- fmt.Errorf("%s: %w", name, err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	fabrics.Lock()
	held := append([]fabricEntry(nil), fabrics.lru...)
	fabrics.Unlock()
	if reuse && len(held) == 0 {
		t.Fatal("no fabric is shared")
	}
	for _, e := range held {
		fresh, err := e.key.build()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(e.net, fresh) {
			t.Errorf("shared fabric %+v differs from a fresh build after the runs", e.key)
		}
	}
}

// BenchmarkNew times building a central-buffer bit-string simulator on a
// fabric shape the process has already built, into new storage and, as the
// recycled cases, into the storage of the simulator the last op released.
func BenchmarkNew(b *testing.B) {
	for _, recycled := range []bool{false, true} {
		for _, stages := range []int{3, 4} {
			cfg := DefaultConfig()
			cfg.Stages = stages
			name := fmt.Sprintf("nodes-%d", cfg.N())
			if recycled {
				name += "-recycled"
			}
			b.Run(name, func(b *testing.B) {
				dropParked()
				if _, err := New(cfg); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sim, err := New(cfg)
					if err != nil {
						b.Fatal(err)
					}
					if recycled {
						Release(sim)
					}
				}
			})
		}
	}
}
