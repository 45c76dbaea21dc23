package core

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"mdworm/internal/collective"
	"mdworm/internal/faults"
	"mdworm/internal/obs"
	"mdworm/internal/stats"
)

// dropParked empties every parked simulator, so that the next New of any
// shape builds into new storage.
func dropParked() {
	fabrics.Lock()
	defer fabrics.Unlock()
	for i := range fabrics.lru {
		fabrics.lru[i].parked = [2][]*Simulator{}
	}
}

// parkedFor returns how many simulators are parked for cfg's fabric and
// architecture.
func parkedFor(t *testing.T, cfg Config) int {
	t.Helper()
	net, err := cfg.buildTopology()
	if err != nil {
		t.Fatal(err)
	}
	fabrics.Lock()
	defer fabrics.Unlock()
	if p := parking(cfg.fabricKey(), net, cfg.Arch); p != nil {
		return len(*p)
	}
	return 0
}

// mustNew builds a simulator or fails the test.
func mustNew(t *testing.T, cfg Config) *Simulator {
	t.Helper()
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// dirtyPredecessor builds a simulator on cfg's fabric and architecture with
// other link latency and buffer sizes, runs a saturated software multicast
// load with a capture attached and a fault plan, and cuts the drain short,
// so that worms, packets, NIC backlogs and forwarding tasks are live, a link
// is failed, a port stuck and a NIC stalled when the caller releases it.
func dirtyPredecessor(t *testing.T, cfg Config) *Simulator {
	t.Helper()
	net, err := cfg.buildTopology()
	if err != nil {
		t.Fatal(err)
	}
	d := cfg
	d.Scheme = collective.SoftwareBinomial
	d.Collective = collective.Spec{}
	d.Traffic = DefaultConfig().Traffic
	d.Traffic.Degree = min(8, net.N-1)
	d.Traffic.OpRate = d.Traffic.RateForLoad(1.5)
	d.LinkLatency = 2
	d.CB.InFIFOFlits, d.CB.OutFIFOFlits, d.CB.Chunks = 24, 12, 192
	d.IB.BufFlits += 64
	d.NIC.RecvFIFOFlits, d.NIC.RecvOverhead = 24, 400
	d.WarmupCycles, d.MeasureCycles, d.DrainCycles = 300, 1_500, 100
	d.WatchdogLimit = 100_000
	down, downPort := net.ProcAttach(0)
	stuck, stuckPort := net.ProcAttach(1)
	d.Faults = faults.Plan{Events: []faults.Event{
		{Kind: faults.LinkDown, At: 400, Switch: down, Port: downPort},
		{Kind: faults.PortStuck, At: 500, Switch: stuck, Port: stuckPort},
		{Kind: faults.NICStall, At: 600, Node: 2},
	}}
	if d.Arch == CentralBuffer {
		d.Faults.Events = append(d.Faults.Events, faults.Event{Kind: faults.CBShrink, At: 700, Chunks: 4})
	}
	sim := mustNew(t, d)
	sim.Observe(&obs.Capture{SampleEvery: 64, CaptureEvents: true})
	res, err := sim.Run()
	if err != nil {
		t.Fatalf("dirty predecessor: %v", err)
	}
	g := sim.SampleGauges()
	forwards := 0
	for _, n := range sim.nics {
		forwards += n.PendingForwards()
	}
	if sim.Quiesced() || !res.Saturated || g.NICQueue == 0 || g.LinkFlits == 0 || forwards == 0 ||
		g.InputFlits+g.OutputFlits+g.CBChunks == 0 || !sim.ports[down][downPort].Out.Dead() {
		t.Fatalf("dirty predecessor is not dirty at release: saturated %v, gauges %+v, %d forwarding tasks",
			res.Saturated, g, forwards)
	}
	return sim
}

// recycledPoints is one configuration per build path a rebuild must reset:
// both organizations; bit-string, multiport, binomial and separate schemes;
// the combining barrier and a skewed collective; a fault plan; 2-, 3- and
// 4-stage trees and an irregular one; and a longer wire than the dirty
// predecessor's, so that every ring is carved anew.
func recycledPoints() map[string]Config {
	load := func(stages int, arch SwitchArch, scheme collective.Scheme) Config {
		cfg := DefaultConfig()
		cfg.Stages, cfg.Arch, cfg.Scheme = stages, arch, scheme
		cfg.Traffic.MulticastFraction = 0.5
		cfg.Traffic.OpRate = cfg.Traffic.RateForLoad(0.3)
		cfg.WarmupCycles, cfg.MeasureCycles = 300, 2_000
		return cfg
	}
	pts := map[string]Config{
		"cb-bitstring-3": load(3, CentralBuffer, collective.HardwareBitString),
		"ib-bitstring-3": load(3, InputBuffer, collective.HardwareBitString),
		"cb-multiport-2": load(2, CentralBuffer, collective.HardwareMultiport),
		"cb-separate-3":  load(3, CentralBuffer, collective.SoftwareSeparate),
	}
	big := load(4, InputBuffer, collective.SoftwareBinomial)
	big.MeasureCycles = 800 // 256 nodes
	pts["ib-binomial-4"] = big

	combining := load(3, CentralBuffer, collective.HardwareBitString)
	combining.Traffic.OpRate = 0
	combining.WarmupCycles, combining.MeasureCycles = 0, 0
	combining.Collective = collective.Spec{Kind: collective.CombiningBarrier, Reps: 3}
	pts["combining-cb"] = combining

	skewed := load(3, InputBuffer, collective.HardwareBitString)
	skewed.Traffic.OpRate = 0
	skewed.Collective = collective.Spec{Kind: collective.AllReduce, Reps: 4, SkewCycles: 200, GapCycles: 50}
	pts["skewed-allreduce-ib"] = skewed

	faulty := load(3, CentralBuffer, collective.HardwareBitString)
	faulty.CB.Chunks = 160
	faulty.Faults = faults.Plan{Events: []faults.Event{
		{Kind: faults.LinkDown, At: 700, Switch: 0, Port: 0},
		{Kind: faults.PortStuck, At: 800, Duration: 300, Switch: 17, Port: 5},
		{Kind: faults.NICStall, At: 900, Duration: 400, Node: 5},
		{Kind: faults.CBShrink, At: 1_000, Switch: 3, Chunks: 8},
	}}
	pts["faults-cb"] = faulty

	tree := irregularCfg(3)
	tree.Arch = InputBuffer
	tree.Traffic.OpRate = tree.Traffic.RateForLoad(0.2)
	pts["irregular-ib"] = tree

	wire := load(3, InputBuffer, collective.HardwareBitString)
	wire.LinkLatency = 4
	wire.IB.BufFlits += 32
	pts["latency-4-ib"] = wire
	return pts
}

// runBlobs runs sim checkpointed every 200 cycles and returns its cycle-0
// snapshot, every checkpoint, and the run's results and error.
func runBlobs(t *testing.T, sim *Simulator) (blobs [][]byte, res stats.Results, err error) {
	t.Helper()
	first, err := sim.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	blobs = append(blobs, first)
	res, err = sim.RunCheckpointed(200, func(b []byte, _ int64) error {
		blobs = append(blobs, b)
		return nil
	})
	return blobs, res, err
}

// TestRecycledSimulatorMatchesFresh rebuilds every configuration into a
// released dirty predecessor of its fabric and architecture and requires the
// rebuild to be indistinguishable from a simulator built into new storage:
// the same snapshot at cycle 0 and at every checkpoint, byte for byte, and
// the same results, also when a checkpoint is restored into it again.
func TestRecycledSimulatorMatchesFresh(t *testing.T) {
	for name, cfg := range recycledPoints() {
		t.Run(name, func(t *testing.T) {
			dropParked()
			wantBlobs, wantRes, wantErr := runBlobs(t, mustNew(t, cfg))
			dirty := dirtyPredecessor(t, cfg)
			Release(dirty)
			sim := mustNew(t, cfg)
			if reuse && sim != dirty {
				t.Fatal("New built into new storage while a released simulator of the fabric was parked")
			}
			blobs, res, err := runBlobs(t, sim)
			Release(sim)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("rebuilt run ended with %v, fresh with %v", err, wantErr)
			}
			if len(blobs) != len(wantBlobs) {
				t.Fatalf("rebuilt run wrote %d checkpoints, fresh %d", len(blobs), len(wantBlobs))
			}
			for i := range blobs {
				if !bytes.Equal(blobs[i], wantBlobs[i]) {
					t.Fatalf("checkpoint %d (cycle %d) differs from the fresh simulator's", i, 200*i)
				}
			}
			if !reflect.DeepEqual(res, wantRes) {
				t.Fatalf("rebuilt results differ:\n got  %+v\n want %+v", res, wantRes)
			}
			// A checkpoint restores into released storage as into new.
			restored, err := Restore(blobs[len(blobs)/2])
			if err != nil {
				t.Fatal(err)
			}
			if reuse && restored != sim {
				t.Fatal("Restore built into new storage while a released simulator of the fabric was parked")
			}
			res, err = restored.Run()
			Release(restored)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(res, wantRes) {
				t.Fatalf("run restored into released storage ended with %v and differs from the fresh run", err)
			}
			t.Logf("%d checkpoints equal; %d multicast ops, %d dropped destinations",
				len(blobs), res.Multicast.OpsCompleted, res.DestsDropped)
		})
	}
}

// TestReleaseContract checks who may get a released simulator: releasing
// twice panics, another architecture or shape never gets it, the same
// fabric and architecture does, and at most GOMAXPROCS park per key.
func TestReleaseContract(t *testing.T) {
	dropParked()
	cfg := DefaultConfig()
	sim := mustNew(t, cfg)
	Release(sim)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("releasing a simulator twice did not panic")
			}
		}()
		Release(sim)
	}()

	other := cfg
	other.Arch = InputBuffer
	smaller := cfg
	smaller.Stages = 2
	for name, c := range map[string]Config{"architecture": other, "shape": smaller} {
		if got := mustNew(t, c); got == sim {
			t.Errorf("a simulator of another %s got the released one", name)
		}
	}
	if got := mustNew(t, cfg); reuse && got != sim {
		t.Error("New of the same fabric and architecture did not take the released simulator")
	}

	bound := runtime.GOMAXPROCS(0)
	sims := make([]*Simulator, bound+3)
	for i := range sims {
		sims[i] = mustNew(t, cfg)
	}
	for _, s := range sims {
		Release(s)
	}
	want := bound
	if !reuse {
		want = 0
	}
	if n := parkedFor(t, cfg); n != want {
		t.Errorf("%d simulators parked after %d releases, want %d", n, len(sims), want)
	}
	dropParked()
}

// TestParkedSimulatorDropsItsRun checks that a parked simulator holds only
// the storage a rebuild keeps and the work live at release: the capture and
// fault driver of the run it held become garbage once it parks.
func TestParkedSimulatorDropsItsRun(t *testing.T) {
	if !reuse {
		t.Skip("the oracle build parks nothing")
	}
	dropParked()
	cfg := DefaultConfig()
	sim := dirtyPredecessor(t, cfg)
	collected := make(chan string, 2)
	runtime.SetFinalizer(sim.capture, func(*obs.Capture) { collected <- "capture" })
	runtime.SetFinalizer(sim.fdrv, func(*faultDriver) { collected <- "fault driver" })
	Release(sim)
	if n := parkedFor(t, cfg); n != 1 {
		t.Fatalf("%d simulators parked, want 1", n)
	}
	got := map[string]bool{}
	for range 100 {
		runtime.GC()
		select {
		case name := <-collected:
			got[name] = true
		case <-time.After(10 * time.Millisecond):
		}
		if len(got) == 2 {
			break
		}
	}
	if len(got) != 2 {
		t.Errorf("a parked simulator keeps its run alive: only %v of its capture and fault driver were collected", got)
	}
	dropParked()
}

// TestEvictionDropsParked checks that a fabric evicted from the memo takes
// its parked simulators with it: a rebuilt simulator's fabric is always the
// memo's.
func TestEvictionDropsParked(t *testing.T) {
	cfg := irregularCfg(2000)
	cfg.Tree.Switches = 3
	cfg.Traffic.Degree = 1
	sim := mustNew(t, cfg)
	Release(sim)
	for i := range maxFabrics {
		other := irregularCfg(2001 + uint64(i))
		other.Tree.Switches = 3
		if _, err := other.buildTopology(); err != nil {
			t.Fatal(err)
		}
	}
	if memoized(cfg.fabricKey()) != nil {
		t.Fatal("the oldest fabric outlived the memo's bound")
	}
	if got := mustNew(t, cfg); got == sim {
		t.Error("a simulator parked on an evicted fabric was rebuilt")
	} else if got.Net() != memoized(cfg.fabricKey()) && reuse {
		t.Error("a new simulator does not read the memo's fabric")
	}
}

// TestReleasePoisonsUnderOracle checks the oracle build: Release parks
// nothing, New never reuses, and any later use of a released simulator
// panics.
func TestReleasePoisonsUnderOracle(t *testing.T) {
	if reuse {
		t.Skip("the default build parks released simulators")
	}
	cfg := DefaultConfig()
	sim := mustNew(t, cfg)
	Release(sim)
	if got := mustNew(t, cfg); got == sim {
		t.Error("the oracle build rebuilt a released simulator")
	}
	for name, use := range map[string]func(){
		"Now":      func() { sim.Now() },
		"Run":      func() { sim.Run() },
		"Snapshot": func() { sim.Snapshot() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released simulator did not panic", name)
				}
			}()
			use()
		}()
	}
}

// TestConcurrentRecycling runs New, Run and Release on two fabric shapes
// from several goroutines at once and requires every result to equal a
// serial run on a new simulator. Run it under the race detector.
func TestConcurrentRecycling(t *testing.T) {
	var cfgs []Config
	for _, stages := range []int{2, 3} {
		for seed := range uint64(4) {
			cfg := DefaultConfig()
			cfg.Stages, cfg.Seed = stages, seed+1
			cfg.Arch = SwitchArch(seed % 2)
			cfg.Traffic.OpRate = cfg.Traffic.RateForLoad(0.4)
			cfg.WarmupCycles, cfg.MeasureCycles = 200, 1_500
			cfgs = append(cfgs, cfg)
		}
	}
	dropParked()
	want := make([]stats.Results, len(cfgs))
	for i, cfg := range cfgs {
		res, err := mustNew(t, cfg).Run()
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	const workers, rounds = 4, 3
	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds*len(cfgs))
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds * len(cfgs) {
				i := (w + r) % len(cfgs)
				sim, err := New(cfgs[i])
				if err != nil {
					errs <- err
					return
				}
				res, err := sim.Run()
				Release(sim)
				if err != nil || !reflect.DeepEqual(res, want[i]) {
					errs <- fmt.Errorf("config %d on a recycled simulator: %v, results equal %v",
						i, err, reflect.DeepEqual(res, want[i]))
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
