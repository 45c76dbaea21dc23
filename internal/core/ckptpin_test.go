package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"mdworm/internal/ckpt"
	"mdworm/internal/collective"
	"mdworm/internal/faults"
)

// pinnedCheckpointPeriod is the snapshot period of TestCheckpointBytesPinned.
// It is prime, so snapshots land at every phase of the runs' periodic
// behaviour (collective gaps, fault windows).
const pinnedCheckpointPeriod = 97

// pinnedCheckpoint is one run of TestCheckpointBytesPinned and the sha256
// of every blob it writes, in order.
type pinnedCheckpoint struct {
	name   string
	cfg    Config
	digest string
}

// pinnedCheckpoints returns the runs of TestCheckpointBytesPinned: both
// organizations, bit-string and software traffic under fault plans, an
// all-reduce beside background traffic, and the combining barrier. Each
// sets Traffic.OpRate directly, so no float conversion feeds the run.
func pinnedCheckpoints() []pinnedCheckpoint {
	base := func(arch SwitchArch, scheme collective.Scheme) Config {
		cfg := DefaultConfig()
		cfg.Arity, cfg.Stages = 4, 2
		cfg.Arch = arch
		cfg.Scheme = scheme
		cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 200, 1500, 60_000
		cfg.Seed = 3
		cfg.Traffic.OpRate = 0.003
		cfg.Traffic.MulticastFraction = 0.5
		cfg.Traffic.Degree = 6
		return cfg
	}

	cb := base(CentralBuffer, collective.HardwareBitString)
	cb.CB.Chunks = 192
	cb.Faults = faults.Plan{Events: []faults.Event{
		{Kind: faults.PortStuck, At: 300, Duration: 250, Switch: 4, Port: 1},
		{Kind: faults.CBShrink, At: 400, Switch: 0, Chunks: 48},
		{Kind: faults.LinkDown, At: 700, Switch: 1, Port: 2},
	}}

	sw := base(InputBuffer, collective.SoftwareBinomial)
	sw.NIC.SendOverhead, sw.NIC.RecvOverhead = 8, 8
	sw.Faults = faults.Plan{Events: []faults.Event{
		{Kind: faults.NICStall, At: 250, Duration: 300, Node: 5},
		{Kind: faults.LinkDown, At: 650, Switch: 2, Port: 0},
	}}

	ar := base(InputBuffer, collective.HardwareBitString)
	ar.Traffic.OpRate = 0.001
	ar.Collective = collective.Spec{Kind: collective.AllReduce, PayloadFlits: 8, Reps: 12, SkewCycles: 30, GapCycles: 15}

	barrier := func(arch SwitchArch) Config {
		cfg := base(arch, collective.HardwareBitString)
		cfg.Traffic.OpRate = 0
		cfg.WarmupCycles, cfg.MeasureCycles = 0, 0
		cfg.Collective = collective.Spec{Kind: collective.CombiningBarrier, Reps: 16, GapCycles: 10}
		return cfg
	}

	return []pinnedCheckpoint{
		{"cb-bitstring-faults", cb, "dd4be53efc8d7e950f429c3bc5b654db6006eb0314eecb42386c9ca8be1f756e"},
		{"ib-software-faults", sw, "034f4ba06b5d70410e54a2545acfd289c510ce0ed36cdb4e79d57ec71dae2e13"},
		{"ib-allreduce", ar, "bc9f4c35b6da54aff8786ead2145899d2b6cde02359e33bb2f7c3adbe16c6074"},
		{"cb-combining-barrier", barrier(CentralBuffer), "66cef1a722f634771f6ef17490a30847a3f6d78bf2413b3997a8a2eebb5e8b65"},
		{"ib-combining-barrier", barrier(InputBuffer), "010399db837756f04ae7aacb4800bb6a1560c3cfc96fb83ac4112334869eb9df"},
	}
}

// TestCheckpointBytesPinned pins the checkpoint layout: the blobs that
// RunCheckpointed writes for a few small runs hash to the digests recorded
// in pinnedCheckpoints. A change that alters the layout on purpose updates
// the digests and says so in CHANGES.md; any other change must leave them as
// they are.
func TestCheckpointBytesPinned(t *testing.T) {
	for _, pc := range pinnedCheckpoints() {
		t.Run(pc.name, func(t *testing.T) {
			sim, err := New(pc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			blobs, withObjects := 0, 0
			if _, err := sim.RunCheckpointed(pinnedCheckpointPeriod, func(data []byte, cycle int64) error {
				h.Write(data)
				blobs++
				// An empty graph is three zero counts.
				if r, err := ckpt.NewReader(data); err != nil {
					return err
				} else if d, err := r.Section(secObjects); err != nil {
					return err
				} else if d.Remaining() > 24 {
					withObjects++
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if withObjects == 0 {
				t.Fatalf("none of %d blobs holds an object", blobs)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != pc.digest {
				t.Errorf("%d blobs (%d with objects) hash to %s, want %s", blobs, withObjects, got, pc.digest)
			}
		})
	}
}
