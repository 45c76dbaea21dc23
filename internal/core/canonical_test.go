package core

import (
	"reflect"
	"strings"
	"testing"

	"mdworm/internal/topology"
)

// Canonicalization must be idempotent: normalizing an already-normalized
// config is a no-op, so canonical forms can be compared (or hashed) safely.
func TestCanonicalizeIdempotent(t *testing.T) {
	once, err := DefaultConfig().Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	twice, err := once.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(once, twice) {
		t.Fatalf("canonicalize not idempotent:\nonce:  %+v\ntwice: %+v", once, twice)
	}
}

// A config that leaves buffer sizes at their (too-small) defaults and one
// that spells out the normalized values must canonicalize identically.
func TestCanonicalizeResolvesDefaults(t *testing.T) {
	base := DefaultConfig()
	canon, err := base.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}

	spelled := base
	spelled.CB = canon.CB // pre-resolved buffer parameters
	spelled.IB = canon.IB
	canon2, err := spelled.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(canon, canon2) {
		t.Fatalf("defaulted and spelled-out configs diverge:\n%+v\n%+v", canon, canon2)
	}
}

// Semantic changes must survive canonicalization (they may not be
// normalized away).
func TestCanonicalizeKeepsSemanticChanges(t *testing.T) {
	canon, err := DefaultConfig().Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	mutations := map[string]func(*Config){
		"arch":   func(c *Config) { c.Arch = InputBuffer },
		"seed":   func(c *Config) { c.Seed++ },
		"degree": func(c *Config) { c.Traffic.Degree = 4 },
		"policy": func(c *Config) { c.UpPolicy = 2 },
		"warmup": func(c *Config) { c.WarmupCycles += 1000 },
	}
	for name, mutate := range mutations {
		cfg := DefaultConfig()
		mutate(&cfg)
		got, err := cfg.Canonicalize()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if reflect.DeepEqual(canon, got) {
			t.Errorf("%s: semantic change lost by canonicalization", name)
		}
	}
}

// Invalid configs are rejected rather than canonicalized.
func TestCanonicalizeRejectsInvalid(t *testing.T) {
	bad := DefaultConfig()
	bad.Arity = 1
	if _, err := bad.Canonicalize(); err == nil {
		t.Error("Arity=1 accepted")
	}
	bad = DefaultConfig()
	bad.LinkLatency = 0
	if _, err := bad.Canonicalize(); err == nil {
		t.Error("LinkLatency=0 accepted")
	}
	bad = DefaultConfig()
	bad.Traffic.OpRate = 2
	if _, err := bad.Canonicalize(); err == nil {
		t.Error("OpRate=2 accepted")
	}
}

// TestSwitchWidthBound: both switch models keep per-port activity in 64-bit
// bitmaps, so a fabric whose widest switch has more than 64 ports is an
// invalid configuration for either architecture, k-ary or irregular, and
// is rejected before any switch is built.
func TestSwitchWidthBound(t *testing.T) {
	for _, arch := range []SwitchArch{CentralBuffer, InputBuffer} {
		cfg := DefaultConfig()
		cfg.Arch = arch
		cfg.Stages = 1
		cfg.Arity = 32 // 64 ports: the widest supported switch
		if _, err := cfg.Canonicalize(); err != nil {
			t.Errorf("%v arity 32: %v", arch, err)
		}
		cfg.Arity = 33
		if _, err := cfg.Canonicalize(); err == nil || !strings.Contains(err.Error(), "at most 64") {
			t.Errorf("%v arity 33: Canonicalize err = %v, want the 64-port bound", arch, err)
		}
		if _, err := New(cfg); err == nil {
			t.Errorf("%v arity 33: New accepted the config", arch)
		}
		cfg = DefaultConfig()
		cfg.Arch = arch
		cfg.Topology = IrregularTree
		cfg.Tree = topology.TreeSpec{Switches: 1, MinHosts: 65, MaxHosts: 65}
		if _, err := cfg.Canonicalize(); err == nil || !strings.Contains(err.Error(), "at most 64") {
			t.Errorf("%v 65-host irregular switch: Canonicalize err = %v, want the 64-port bound", arch, err)
		}
	}
}
