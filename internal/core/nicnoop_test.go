package core

import (
	"bytes"
	"testing"

	"mdworm/internal/ckpt"
	"mdworm/internal/collective"
	"mdworm/internal/faults"
	"mdworm/internal/nic"
	"mdworm/internal/switches"
)

// nicNoOp is a checker registered after the whole fabric, so it steps last
// in every cycle, and it never sleeps. At the end of each cycle it takes
// every NIC the kernel may put to sleep, one that is quiesced with no flit
// due on its ejection link next cycle, steps it for that cycle and requires
// that neither the NIC nor its two links changed.
type nicNoOp struct {
	t      *testing.T
	s      *Simulator
	checks int
}

func (c *nicNoOp) Name() string   { return "nic-no-op" }
func (c *nicNoOp) Quiesced() bool { return true }
func (c *nicNoOp) Step(now int64) {
	for p, n := range c.s.nics {
		sw, port := c.s.net.ProcAttach(p)
		links := c.s.ports[sw][port] // In injects, Out ejects
		// At unit latency a flit on the wire arrives by the next cycle.
		if !n.Quiesced() || links.Out.InFlight() > 0 {
			continue
		}
		before := encodeNIC(n, links)
		n.Step(now + 1)
		if after := encodeNIC(n, links); !bytes.Equal(before, after) {
			c.t.Fatalf("cycle %d: stepping quiesced %s with an empty ejection link changed its state", now+1, n.Name())
		}
		c.checks++
	}
}

// encodeNIC returns the checkpoint bytes of a NIC and its two links.
func encodeNIC(n *nic.NIC, links switches.PortIO) []byte {
	g := ckpt.NewGraph()
	var e ckpt.Enc
	n.EncodeState(&e, g)
	links.In.EncodeState(&e, g)
	links.Out.EncodeState(&e, g)
	g.Encode(&e)
	return e.Bytes()
}

// TestQuiescedNICStepIsNoOp checks the rule the kernel's NIC sleep rests on:
// a NIC with no work and no arrived flit is left unchanged by Step. It runs
// bit-string and software-tree multicasts, each with a NIC stall window and
// a link down.
func TestQuiescedNICStepIsNoOp(t *testing.T) {
	for _, scheme := range []collective.Scheme{collective.HardwareBitString, collective.SoftwareBinomial} {
		t.Run(scheme.String(), func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig()
			cfg.Arity, cfg.Stages = 4, 2
			cfg.Scheme = scheme
			cfg.WarmupCycles, cfg.MeasureCycles = 200, 1500
			cfg.Traffic.OpRate = 0.003
			cfg.Traffic.MulticastFraction = 0.5
			cfg.Traffic.Degree = 6
			cfg.Faults = faults.Plan{Events: []faults.Event{
				{Kind: faults.NICStall, At: 300, Duration: 400, Node: 6},
				{Kind: faults.LinkDown, At: 900, Switch: 0, Port: 1},
			}}
			if cfg.LinkLatency != 1 {
				t.Fatalf("link latency %d: the checker assumes unit latency", cfg.LinkLatency)
			}
			sim, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			check := &nicNoOp{t: t, s: sim}
			sim.sim.AddComponent(check)
			if _, err := sim.Run(); err != nil {
				t.Fatal(err)
			}
			if check.checks == 0 {
				t.Fatal("no NIC was ever quiesced with an empty ejection link")
			}
			t.Logf("%d quiesced NIC steps checked", check.checks)
		})
	}
}
