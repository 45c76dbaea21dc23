package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"mdworm/internal/ckpt"
	"mdworm/internal/collective"
	"mdworm/internal/engine"
	"mdworm/internal/faults"
)

// pinnedCheckpointPeriod is the snapshot period of TestCheckpointBytesPinned.
// It is prime, so snapshots land at every phase of the runs' periodic
// behaviour (collective gaps, fault windows).
const pinnedCheckpointPeriod = 97

// pinnedCheckpoint is one run of TestCheckpointBytesPinned: the sha256 of
// every blob it writes, in order, with and without the mdworm_oracle build
// tag, and the sha256 of the model state in those blobs (see hashModel),
// which the tag does not change.
type pinnedCheckpoint struct {
	name   string
	cfg    Config
	digest string // without the tag: components sleep on deadlines
	oracle string // under the tag: components with work step every cycle
	model  string
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
		{"cb-bitstring-faults", cb, "ee8e121a008a66a1182ab3d3f1fb0dd9c51a431abe755803f0359027765bfba2",
			"dd4be53efc8d7e950f429c3bc5b654db6006eb0314eecb42386c9ca8be1f756e",
			"5eb3ce5c225c09db6977fe3f29df92ea595d2d2bc69a13bac03459a4d016507b"},
		{"ib-software-faults", sw, "c9e06397ae19b850b69b7793e274e21dc4e2435aa2ee4fd92e8eb057972991d7",
			"034f4ba06b5d70410e54a2545acfd289c510ce0ed36cdb4e79d57ec71dae2e13",
			"23fc1a209310d995b6a4a478f113c79e401d231d8f2aab991b3961f50165003b"},
		{"ib-allreduce", ar, "876191aff8972a402648c7e25a79ebde963a698757fdc0f63abe51b6f55c693a",
			"bc9f4c35b6da54aff8786ead2145899d2b6cde02359e33bb2f7c3adbe16c6074",
			"88962078596fcf7bd06094f79a54c0b171bff4d6f6c10e142d052353fe057097"},
		{"cb-combining-barrier", barrier(CentralBuffer), "82269ce07c5be04c35fca8ecfe8813f7a93d8af26bacb4f7459496d67dcca0e0",
			"66cef1a722f634771f6ef17490a30847a3f6d78bf2413b3997a8a2eebb5e8b65",
			"5496f3fb8b2e351368e73b03c2ba06a0abfd141e4be2b77fe19115751dac1d84"},
		{"ib-combining-barrier", barrier(InputBuffer), "2cdaa86e06e86c252b2007c9863595713b6bd35f02bdfd779a76051d314ff0de",
			"010399db837756f04ae7aacb4800bb6a1560c3cfc96fb83ac4112334869eb9df",
			"9456454d00f0cfd540561414b6adde4244186ab53561c58ffa7108648d08ad91"},
	}
}

// hashModel adds the model state of one checkpoint blob to h: every section,
// by name and payload, except the kernel's events section and the engine
// section's scheduler header (clock, activity counters and one sleep state
// byte per component). Those record how the kernel schedules a run, not what
// the run computes, so a scheduling change that keeps every cycle of the
// model leaves this digest as it is.
func hashModel(h hash.Hash, blob []byte) error {
	body := blob[len(ckpt.Magic)+12:]
	for len(body) > 0 {
		if len(body) < 2 {
			return ckpt.ErrCorrupt
		}
		n := int(binary.LittleEndian.Uint16(body))
		if len(body) < 2+n+8 {
			return ckpt.ErrCorrupt
		}
		name := string(body[2 : 2+n])
		size := binary.LittleEndian.Uint64(body[2+n:])
		body = body[2+n+8:]
		if size > uint64(len(body)) {
			return ckpt.ErrCorrupt
		}
		payload := body[:size]
		body = body[size:]
		switch name {
		case secEvents:
			continue
		case secEngine:
			if len(payload) < 32 || binary.LittleEndian.Uint64(payload[24:]) > uint64(len(payload)-32) {
				return ckpt.ErrCorrupt
			}
			payload = payload[32+binary.LittleEndian.Uint64(payload[24:]):]
		}
		h.Write(binary.LittleEndian.AppendUint16(nil, uint16(len(name))))
		h.Write([]byte(name))
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(len(payload))))
		h.Write(payload)
	}
	return nil
}

// TestCheckpointBytesPinned pins the checkpoint layout: the blobs that
// RunCheckpointed writes for a few small runs hash to the digests recorded
// in pinnedCheckpoints. A change that alters the layout on purpose updates
// the digests and says so in CHANGES.md; any other change must leave them as
// they are. The model digest pins what the runs compute apart from kernel
// scheduling: a change to how the kernel schedules components may change
// the whole-blob digests, but never the model digest.
func TestCheckpointBytesPinned(t *testing.T) {
	for _, pc := range pinnedCheckpoints() {
		t.Run(pc.name, func(t *testing.T) {
			sim, err := New(pc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			h, model := sha256.New(), sha256.New()
			blobs, withObjects := 0, 0
			if _, err := sim.RunCheckpointed(pinnedCheckpointPeriod, func(data []byte, cycle int64) error {
				h.Write(data)
				if err := hashModel(model, data); err != nil {
					return err
				}
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
			want := pc.digest
			if !engine.DeadlineSleep {
				want = pc.oracle
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != want {
				t.Errorf("%d blobs (%d with objects) hash to %s, want %s", blobs, withObjects, got, want)
			}
			if got := hex.EncodeToString(model.Sum(nil)); got != pc.model {
				t.Errorf("model state of %d blobs hashes to %s, want %s", blobs, got, pc.model)
			}
		})
	}
}
