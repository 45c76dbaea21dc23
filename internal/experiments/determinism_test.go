package experiments

import (
	"encoding/json"
	"errors"
	"hash/fnv"
	"reflect"
	"testing"

	"mdworm/internal/collective"
	"mdworm/internal/core"
	"mdworm/internal/faults"
	"mdworm/internal/routing"
	"mdworm/internal/stats"
	"mdworm/internal/topology"
)

// checkpointConfig returns a small configuration exercising the machinery an
// experiment id distinguishes itself by — architecture, scheme, topology,
// traffic mix, fault plan — so the determinism property covers every state
// path the suite can reach.
func checkpointConfig(id string) core.Config {
	cfg := core.DefaultConfig()
	cfg.Arity = 4
	cfg.Stages = 2
	cfg.WarmupCycles = 200
	cfg.MeasureCycles = 700
	cfg.DrainCycles = 80_000
	cfg.Seed = 7
	cfg.Traffic.OpRate = 0.002
	cfg.Traffic.Degree = 6
	// idle runs reps of one collective kind back to back from cycle 0 on
	// an otherwise idle fabric, as the single-multicast and barrier points
	// do. Each such id's snapshot lands inside a rep, and the multicast ids'
	// degrees make their draws differ in latency or worm count, so a restore
	// that replays the draw stream wrongly diverges.
	idle := func(kind collective.Kind, reps int) {
		cfg.Traffic.OpRate = 0
		cfg.WarmupCycles, cfg.MeasureCycles = 0, 0
		cfg.Collective = collective.Spec{Kind: kind, PayloadFlits: cfg.Traffic.McastPayloadFlits, Reps: reps}
	}

	switch id {
	case "e1": // multiple multicast latency: the baseline
	case "e2": // throughput: push load up
		cfg.Traffic.OpRate = 0.004
	case "e3": // bimodal, unicast under multicast background
		cfg.Traffic.MulticastFraction = 0.3
	case "e4": // bimodal, multicast side
		cfg.Traffic.MulticastFraction = 0.7
	case "e5": // degree sweep
		cfg.Traffic.Degree = 12
	case "e6": // message length sweep
		cfg.Traffic.McastPayloadFlits = 128
	case "e7": // system size: the full 64-node baseline
		cfg.Stages = 3
		cfg.Traffic.Degree = 8
	case "e8": // single multicasts, drawn afresh every rep
		idle(collective.Multicast, 16)
		cfg.Traffic.Degree = 4
	case "a1": // central-buffer size ablation
		cfg.CB.Chunks = 96
	case "a2": // chunk size ablation
		cfg.CB.ChunkFlits = 4
	case "a3": // replicate-on-up-path off
		cfg.ReplicateOnUpPath = false
	case "a4": // up-port policy
		cfg.UpPolicy = routing.UpRandom
	case "a5": // single multicasts under the multiport encoding
		idle(collective.Multicast, 16)
		cfg.Scheme = collective.HardwareMultiport
		cfg.Traffic.Degree = 12
	case "a6": // single software multicasts with host overhead
		idle(collective.Multicast, 16)
		cfg.Scheme = collective.SoftwareBinomial
		cfg.NIC.SendOverhead, cfg.NIC.RecvOverhead = 64, 64
		cfg.Traffic.Degree = 4
	case "a7": // hot-spot traffic
		cfg.Traffic.MulticastFraction = 0.2
		cfg.Traffic.HotSpotFraction = 0.3
		cfg.Traffic.HotSpotNode = 3
	case "a8": // in-switch combining barrier on the input-buffer switch
		idle(collective.CombiningBarrier, 4)
		cfg.Arch = core.InputBuffer
	case "a9": // irregular topology
		cfg.Topology = core.IrregularTree
		cfg.Tree = topology.TreeSpec{Switches: 6, MinHosts: 1, MaxHosts: 3, MaxChildren: 3, Seed: 11}
		cfg.Traffic.Degree = 4
	case "a10": // sync replication study: separate-addressing software scheme
		cfg.Scheme = collective.SoftwareSeparate
	case "a11": // buffer bandwidth ablation
		cfg.CB.PortBandwidth = 1
	case "c1": // barrier, hardware release worm
		cfg.Collective = collective.Spec{Kind: collective.Barrier, PayloadFlits: 1, Reps: 40, GapCycles: 15}
	case "c2": // broadcast, software tree alongside background unicasts
		cfg.Scheme = collective.SoftwareBinomial
		cfg.Collective = collective.Spec{Kind: collective.Broadcast, PayloadFlits: 32, Reps: 25, GapCycles: 20}
	case "c3": // all-reduce, combine tree with skewed arrivals
		cfg.Collective = collective.Spec{Kind: collective.AllReduce, PayloadFlits: 8, Reps: 20, SkewCycles: 30, GapCycles: 15}
	case "c4": // scatter on the input-buffer architecture
		cfg.Arch = core.InputBuffer
		cfg.Collective = collective.Spec{Kind: collective.Scatter, PayloadFlits: 6, Reps: 25, GapCycles: 15}
	case "c5": // gather to a non-zero root, software tree
		cfg.Scheme = collective.SoftwareBinomial
		cfg.Collective = collective.Spec{Kind: collective.Gather, Root: 5, PayloadFlits: 6, Reps: 25, GapCycles: 15}
	case "c6": // direct-gather all-reduce converging on the root ejection link
		cfg.Collective = collective.Spec{Kind: collective.AllReduceGather, PayloadFlits: 4, Reps: 20, SkewCycles: 10, GapCycles: 25}
	}

	// Mid-run faults stress the fault-driver cursor and link failure state
	// in the checkpoint on a couple of ids.
	if id == "e2" || id == "a7" {
		cfg.Faults = faults.Plan{Events: []faults.Event{
			{Kind: faults.NICStall, At: 350, Duration: 120, Node: 1},
			{Kind: faults.PortStuck, At: 500, Duration: 90, Switch: 0, Port: 1},
		}}
	}
	return cfg
}

// snapshotCycle derives the pseudo-random snapshot point for an id,
// deterministic across runs so failures reproduce.
func snapshotCycle(id string, cfg core.Config) int64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	span := cfg.WarmupCycles + cfg.MeasureCycles
	return 1 + int64(h.Sum64()%uint64(span+200)) // may land in warmup, measure, or early drain
}

var errCrash = errors.New("simulated crash after checkpoint")

// TestCheckpointDeterminism is the tentpole property: for every experiment
// id, a run snapshotted at a pseudo-random cycle, "crashed", and restored
// from the blob produces results byte-identical to the uninterrupted run.
func TestCheckpointDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("checkpoint determinism sweep skipped in -short mode")
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			cfg := checkpointConfig(id)
			snapAt := snapshotCycle(id, cfg)

			ref, err := core.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Run()
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}

			crashed, err := core.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var blob []byte
			_, err = crashed.RunCheckpointed(snapAt, func(data []byte, cycle int64) error {
				if cycle != snapAt {
					return nil // a later multiple; the first already crashed us
				}
				blob = data
				return errCrash
			})
			switch {
			case err == nil:
				// The run quiesced before the snapshot point ever fired (the
				// checkpoint only triggers on exact multiples inside the
				// loop); nothing to restore, so the property holds vacuously.
				t.Skipf("run finished before cycle %d", snapAt)
			case !errors.Is(err, errCrash):
				t.Fatalf("crashed run: %v", err)
			}

			restored, err := core.Restore(blob)
			if err != nil {
				t.Fatalf("restore at cycle %d: %v", snapAt, err)
			}
			got, err := restored.Run()
			if err != nil {
				t.Fatalf("resumed run: %v", err)
			}

			if !reflect.DeepEqual(want, got) {
				t.Fatalf("resumed results diverge from uninterrupted run (snapshot at cycle %d):\nwant %+v\ngot  %+v",
					snapAt, want, got)
			}
			wj := mustJSON(t, want)
			gj := mustJSON(t, got)
			if string(wj) != string(gj) {
				t.Fatalf("resumed results render differently:\nwant %s\ngot  %s", wj, gj)
			}
		})
	}
}

func mustJSON(t *testing.T, r stats.Results) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
