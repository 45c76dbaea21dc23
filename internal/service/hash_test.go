package service

import (
	"encoding/json"
	"testing"

	"mdworm/internal/collective"
	"mdworm/internal/core"
	"mdworm/internal/topology"
)

// hashOf decodes a ConfigRequest JSON body, resolves it, and hashes it.
func hashOf(t *testing.T, body string) string {
	t.Helper()
	var req ConfigRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatalf("decode %s: %v", body, err)
	}
	cfg, err := req.Resolve()
	if err != nil {
		t.Fatalf("resolve %s: %v", body, err)
	}
	h, _, err := Hash(cfg)
	if err != nil {
		t.Fatalf("hash %s: %v", body, err)
	}
	return h
}

// JSON field order is presentation, not semantics: it must not reach the
// content address.
func TestHashIgnoresFieldOrder(t *testing.T) {
	a := hashOf(t, `{"arch":"cb","degree":4,"seed":7}`)
	b := hashOf(t, `{"seed":7,"degree":4,"arch":"cb"}`)
	if a != b {
		t.Fatalf("field order changed the hash: %s vs %s", a, b)
	}
}

// Spelling out a default must hash like omitting it.
func TestHashIgnoresSpelledOutDefaults(t *testing.T) {
	base := hashOf(t, `{}`)
	for _, body := range []string{
		`{"arch":"cb"}`,                         // default architecture
		`{"scheme":"hw-bitstring"}`,             // default scheme
		`{"degree":8,"seed":1}`,                 // default workload fields
		`{"stages":3,"arity":4}`,                // default fabric
		`{"up_policy":"hash"}`,                  // default routing
		`{"warmup_cycles":5000,"mcast_len":64}`, // default windows/lengths
	} {
		if h := hashOf(t, body); h != base {
			t.Errorf("%s: spelled-out default changed the hash", body)
		}
	}
}

// Every semantic change must change the hash.
func TestHashTracksSemanticChanges(t *testing.T) {
	base := hashOf(t, `{}`)
	seen := map[string]string{"{}": base}
	for _, body := range []string{
		`{"arch":"ib"}`,
		`{"scheme":"sw-binomial"}`,
		`{"degree":4}`,
		`{"seed":2}`,
		`{"stages":2}`,
		`{"up_policy":"adaptive"}`,
		`{"mcast_len":32}`,
		`{"measure_cycles":10000}`,
		`{"op_rate":0.002}`,
		`{"send_overhead":32}`,
		`{"replicate_on_up_path":false}`,
	} {
		h := hashOf(t, body)
		if prev, dup := seen[body]; dup {
			t.Fatalf("duplicate body %s (%s)", body, prev)
		}
		for other, oh := range seen {
			if h == oh {
				t.Errorf("%s and %s collide on %s", body, other, h)
			}
		}
		seen[body] = h
	}
}

// The normalization inside canonicalization must also unify configs that
// differ only in buffer parameters below the normalized floor.
func TestHashIgnoresSubNormalBufferParams(t *testing.T) {
	var a, b ConfigRequest
	cfgA, err := a.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	cfgB, err := b.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	// Values below the header floor are both raised to it by
	// normalization, so they describe the same simulated system.
	cfgA.CB.InFIFOFlits = 1
	cfgB.CB.InFIFOFlits = 2
	ha, _, err := Hash(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	hb, _, err := Hash(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Fatalf("sub-normal buffer parameter changed the hash")
	}
}

// Invalid configs must be rejected by Hash, not silently addressed.
func TestHashRejectsInvalid(t *testing.T) {
	var req ConfigRequest
	bad := 100
	req.Degree = &bad // 64-node default fabric allows at most 63
	cfg, err := req.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Hash(cfg); err == nil {
		t.Fatal("invalid config hashed")
	}
}

// Load/op_rate are mutually exclusive, and resolution applies load after
// payload lengths so the derived rate is stable.
func TestResolveLoadOpRate(t *testing.T) {
	var req ConfigRequest
	l, r := 0.1, 0.001
	req.Load, req.OpRate = &l, &r
	if _, err := req.Resolve(); err == nil {
		t.Fatal("load+op_rate accepted")
	}
	if hashOf(t, `{"load":0.1,"mcast_len":32}`) == hashOf(t, `{"load":0.1}`) {
		t.Fatal("payload length ignored by load conversion")
	}
}

// Topology fields a kind ignores must not reach the content address: an
// irregular request that also sends arity and stages, and a k-ary config
// that carries a tree spec, describe the systems without them.
func TestHashIgnoresUnusedTopologyFields(t *testing.T) {
	const tree = `"tree":{"switches":6,"min_hosts":1,"max_hosts":3,"max_children":2,"seed":5}`
	if a, b := hashOf(t, `{`+tree+`}`), hashOf(t, `{`+tree+`,"arity":2,"stages":5}`); a != b {
		t.Errorf("arity and stages split the hash of an irregular tree: %s vs %s", a, b)
	}
	kary := core.DefaultConfig()
	stray := kary
	stray.Tree = topology.TreeSpec{Switches: 6, MinHosts: 1, MaxHosts: 3, MaxChildren: 2, Seed: 5}
	a, _, err := Hash(kary)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Hash(stray)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("a tree spec split the hash of a k-ary tree: %s vs %s", a, b)
	}
}

// A Hash of a config whose fabric shape the process has already built reads
// the shared fabric, so it costs little more than its encoding.
func TestHashWarmAllocs(t *testing.T) {
	if oracleBuild {
		t.Skip("the oracle build gives every canonicalization a fresh fabric")
	}
	cfg := core.DefaultConfig()
	if _, _, err := Hash(cfg); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := Hash(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Fatalf("a warm Hash of a 64-node config makes %.0f allocations, want at most 8", allocs)
	}
}

// BenchmarkHash times the content address of a config whose fabric shape
// the process has already built: 64- and 256-node k-ary trees, and a
// 64-node barrier, whose collective schedule is built on every call.
func BenchmarkHash(b *testing.B) {
	barrier := core.DefaultConfig()
	barrier.Traffic.OpRate = 0
	barrier.Collective = collective.Spec{Kind: collective.Barrier, Reps: 4}
	deep := core.DefaultConfig()
	deep.Stages = 4
	for _, c := range []struct {
		name string
		cfg  core.Config
	}{
		{"nodes-64", core.DefaultConfig()},
		{"nodes-256", deep},
		{"barrier-nodes-64", barrier},
	} {
		cfg := c.cfg
		b.Run(c.name, func(b *testing.B) {
			if _, _, err := Hash(cfg); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := Hash(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
