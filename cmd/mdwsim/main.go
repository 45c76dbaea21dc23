// Command mdwsim runs one simulation from command-line flags and prints the
// measured results — the fine-grained companion to mdwbench.
//
// Example: compare hardware and software multicast at one operating point:
//
//	mdwsim -arch cb -scheme hw-bitstring -load 0.2 -degree 8
//	mdwsim -arch cb -scheme sw-binomial  -load 0.2 -degree 8
//
// With -reps N the operating point is replicated over seeds seed..seed+N-1
// (fanned across -workers goroutines, each replica an independent simulator);
// the first replica prints the full report and a seed-spread summary follows.
// Ctrl-C (or SIGTERM) stops cleanly: running replicas finish, pending ones
// are skipped, and the process exits 130.
//
// Long runs survive crashes with -checkpoint FILE -checkpoint-every N: the
// snapshot file is atomically replaced every N simulated cycles and removed
// on success. To resume, rerun the same command plus -resume FILE; the
// report is byte-identical to the uninterrupted run.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"syscall"

	"mdworm"
	"mdworm/internal/prof"
	"mdworm/internal/service"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment made explicit so tests can drive it: a
// cancellation context (Ctrl-C), argument list, and output streams. It
// returns the process exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mdwsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		arch     = fs.String("arch", "cb", "switch architecture: cb (central buffer) or ib (input buffer)")
		scheme   = fs.String("scheme", "hw-bitstring", "multicast scheme: hw-bitstring, hw-multiport, sw-binomial, sw-separate")
		stages   = fs.Int("stages", 3, "BMIN stages (nodes = 4^stages)")
		load     = fs.Float64("load", 0.1, "offered load in delivered payload flits per node per cycle")
		frac     = fs.Float64("mcast-fraction", 1.0, "fraction of operations that are multicasts")
		degree   = fs.Int("degree", 8, "multicast destinations per op")
		uniLen   = fs.Int("uni-len", 32, "unicast payload flits")
		mcastLen = fs.Int("mcast-len", 64, "multicast payload flits")
		warmup   = fs.Int64("warmup", 4000, "warmup cycles")
		measure  = fs.Int64("measure", 20000, "measurement cycles")
		seed     = fs.Uint64("seed", 1, "random seed")
		sendOv   = fs.Int("send-overhead", 64, "software send overhead in cycles")
		recvOv   = fs.Int("recv-overhead", 64, "software receive overhead in cycles")
		trace    = fs.String("trace", "", "write a message-level event trace to this file ('-' for stderr)")
		timeline = fs.String("timeline", "", "write an ndjson timeline (events + occupancy samples) for mdwtrace")
		sampleEv = fs.Int64("sample-every", 64, "occupancy sampling period in cycles for -timeline/-perfetto (0 = off)")
		perfetto = fs.String("perfetto", "", "write a Perfetto/Chrome trace-event JSON file for ui.perfetto.dev")
		swStats  = fs.Bool("switch-stats", false, "print aggregated switch counters after the run")
		reps     = fs.Int("reps", 1, "replicate the run over this many consecutive seeds")
		workers  = fs.Int("workers", 0, "concurrent replicas when -reps > 1 (0 = GOMAXPROCS)")
		faultArg = fs.String("faults", "", "fault plan spec like 'link-down@1000:sw3.p2;nic-stall@500+200:n5', or @file holding one")
		collKind = fs.String("collective", "", "drive a phase-structured collective: "+strings.Join(mdworm.CollectiveKinds(), ", "))
		collPay  = fs.Int("coll-payload", 64, "collective payload flits per step (per node for scatter/gather)")
		collReps = fs.Int("coll-reps", 10, "collective repetitions")
		collSkew = fs.Int64("coll-skew", 0, "max per-node collective arrival skew in cycles (deterministic draws)")
		collGap  = fs.Int64("coll-gap", 100, "idle cycles between collective repetitions")
		collRoot = fs.Int("coll-root", 0, "collective root node")
		strict   = fs.Bool("strict", false, "upgrade model-invariant violations to hard run failures")
		ckptFile = fs.String("checkpoint", "", "write a resumable snapshot to this file (atomic replace) every -checkpoint-every cycles")
		ckptEv   = fs.Int64("checkpoint-every", 0, "checkpoint period in simulated cycles (0 with -checkpoint = 100000)")
		resume   = fs.String("resume", "", "resume from a snapshot written by -checkpoint; rerun with the original flags plus -resume")
		cpuProf  = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf  = fs.String("memprofile", "", "write a pprof heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(stderr, "mdwsim:", err)
		return 1
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(stderr, "mdwsim:", err)
		}
	}()

	cfg := mdworm.DefaultConfig()
	cfg.Stages = *stages
	cfg.Seed = *seed
	cfg.WarmupCycles = *warmup
	cfg.MeasureCycles = *measure
	cfg.NIC.SendOverhead = *sendOv
	cfg.NIC.RecvOverhead = *recvOv
	cfg.Traffic.MulticastFraction = *frac
	cfg.Traffic.Degree = *degree
	cfg.Traffic.UniPayloadFlits = *uniLen
	cfg.Traffic.McastPayloadFlits = *mcastLen
	cfg.Traffic.OpRate = cfg.Traffic.RateForLoad(*load)

	a, err := service.ParseArch(*arch)
	if err != nil {
		fmt.Fprintln(stderr, "mdwsim:", err)
		return 2
	}
	cfg.Arch = a
	sch, err := service.ParseScheme(*scheme)
	if err != nil {
		fmt.Fprintln(stderr, "mdwsim:", err)
		return 2
	}
	cfg.Scheme = sch
	if *faultArg != "" {
		spec := *faultArg
		if strings.HasPrefix(spec, "@") {
			b, err := os.ReadFile(spec[1:])
			if err != nil {
				fmt.Fprintln(stderr, "mdwsim:", err)
				return 1
			}
			spec = strings.TrimSpace(string(b))
		}
		plan, err := mdworm.ParseFaultSpec(spec)
		if err != nil {
			fmt.Fprintln(stderr, "mdwsim:", err)
			return 2
		}
		cfg.Faults = plan
	}
	if *collKind != "" {
		kind, err := mdworm.ParseCollectiveKind(*collKind)
		if err != nil {
			fmt.Fprintln(stderr, "mdwsim:", err)
			return 2
		}
		cfg.Collective = mdworm.CollectiveSpec{
			Kind:         kind,
			Root:         *collRoot,
			PayloadFlits: *collPay,
			Reps:         *collReps,
			SkewCycles:   *collSkew,
			GapCycles:    *collGap,
		}
	}
	cfg.StrictInvariants = *strict

	if *reps < 1 {
		fmt.Fprintln(stderr, "mdwsim: -reps must be >= 1")
		return 2
	}
	if (*ckptFile != "" || *resume != "") && *reps != 1 {
		fmt.Fprintln(stderr, "mdwsim: -checkpoint/-resume require -reps 1 (a snapshot holds exactly one simulator)")
		return 2
	}
	if *ckptFile != "" && (*trace != "" || *timeline != "" || *perfetto != "") {
		// Snapshot refuses attached observers rather than silently dropping
		// them, so refuse the combination up front with a better message.
		fmt.Fprintln(stderr, "mdwsim: -checkpoint is incompatible with -trace/-timeline/-perfetto")
		return 2
	}
	if *ckptEv < 0 || (*ckptEv > 0 && *ckptFile == "") {
		fmt.Fprintln(stderr, "mdwsim: -checkpoint-every needs -checkpoint FILE and a positive period")
		return 2
	}
	if *ckptFile != "" && *ckptEv == 0 {
		*ckptEv = 100_000
	}
	traceOut := stderr
	if *trace != "" && *trace != "-" {
		f, err := os.Create(*trace)
		if err != nil {
			fmt.Fprintln(stderr, "mdwsim:", err)
			return 1
		}
		defer f.Close()
		traceOut = f
	}

	// Observation attaches to replica 0 only (replicas stay independent).
	// The timeline streams to disk as the run progresses; a Perfetto export
	// additionally retains events in memory until the end of the run.
	var capture *mdworm.Capture
	if *timeline != "" || *perfetto != "" {
		capture = &mdworm.Capture{SampleEvery: *sampleEv, CaptureEvents: *perfetto != ""}
		if *timeline != "" {
			f, err := os.Create(*timeline)
			if err != nil {
				fmt.Fprintln(stderr, "mdwsim:", err)
				return 1
			}
			defer f.Close()
			capture.Stream = f
		}
	}

	// Each replica is an independent simulator over a consecutive seed;
	// replica 0 carries the trace and the detailed report. A canceled
	// context skips replicas not yet started (running ones finish — a
	// simulator run is not interruptible mid-cycle).
	type repOut struct {
		sim *mdworm.Simulator
		res mdworm.Results
		err error
	}
	outs := make([]repOut, *reps)
	runRep := func(r int) {
		if ctx.Err() != nil {
			outs[r].err = ctx.Err()
			return
		}
		c := cfg
		c.Seed = *seed + uint64(r)
		var sim *mdworm.Simulator
		var err error
		if r == 0 && *resume != "" {
			sim, err = restoreSnapshot(*resume, c)
		} else {
			sim, err = mdworm.New(c)
		}
		if err != nil {
			outs[r].err = err
			return
		}
		if r == 0 && *trace != "" {
			sim.SetTracer(mdworm.NewWriterTracer(traceOut))
		}
		if r == 0 && capture != nil {
			sim.Observe(capture)
		}
		var res mdworm.Results
		if r == 0 && *ckptEv > 0 {
			// A checkpoint the user asked for that cannot be written is a
			// hard failure — silent loss of durability defeats the flag.
			res, err = sim.RunCheckpointed(*ckptEv, func(data []byte, cycle int64) error {
				if werr := service.WriteFileAtomic(*ckptFile, data); werr != nil {
					return fmt.Errorf("checkpoint at cycle %d: %w", cycle, werr)
				}
				return nil
			})
		} else {
			res, err = sim.Run()
		}
		outs[r] = repOut{sim: sim, res: res, err: err}
	}
	w := *workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > *reps {
		w = *reps
	}
	if w <= 1 {
		for r := 0; r < *reps; r++ {
			runRep(r)
		}
	} else {
		jobs := make(chan int)
		var wg sync.WaitGroup
		wg.Add(w)
		for i := 0; i < w; i++ {
			go func() {
				defer wg.Done()
				for r := range jobs {
					runRep(r)
				}
			}()
		}
		for r := 0; r < *reps; r++ {
			jobs <- r
		}
		close(jobs)
		wg.Wait()
	}
	if ctx.Err() != nil {
		fmt.Fprintln(stderr, "mdwsim: interrupted, partial results discarded")
		return 130
	}
	if outs[0].err != nil {
		fmt.Fprintln(stderr, "mdwsim:", outs[0].err)
		return 1
	}
	sim, res := outs[0].sim, outs[0].res
	if *ckptFile != "" {
		os.Remove(*ckptFile) // the completed report supersedes the snapshot
	}

	// Observability outputs go to stderr/files only: the stdout report stays
	// byte-identical whether or not the run was observed.
	if capture != nil {
		if err := capture.StreamErr(); err != nil {
			fmt.Fprintln(stderr, "mdwsim:", err)
			return 1
		}
		if *perfetto != "" {
			f, err := os.Create(*perfetto)
			if err == nil {
				err = mdworm.WritePerfetto(f, capture.Trace())
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintln(stderr, "mdwsim:", err)
				return 1
			}
		}
		if *timeline != "" {
			fmt.Fprintf(stderr, "mdwsim: timeline written to %s (%d samples)\n", *timeline, len(capture.Samples))
		}
		if *perfetto != "" {
			fmt.Fprintf(stderr, "mdwsim: perfetto trace written to %s\n", *perfetto)
		}
	}

	fmt.Fprintf(stdout, "system: %d nodes, %s switches, %s multicast, seed %d\n",
		cfg.N(), *arch, *scheme, *seed)
	fmt.Fprintf(stdout, "offered load: %.4g delivered payload flits/node/cycle (op rate %.6f)\n",
		*load, cfg.Traffic.OpRate)
	fmt.Fprintf(stdout, "saturated: %v (max send queue %d)\n\n", res.Saturated, res.MaxSendQueue)
	fmt.Fprintf(stdout, "multicast: ops=%d/%d phases-scheme=%s\n",
		res.Multicast.OpsCompleted, res.Multicast.OpsGenerated, *scheme)
	fmt.Fprintf(stdout, "  last-arrival latency: %v\n", res.Multicast.LastArrival)
	fmt.Fprintf(stdout, "  mean-arrival latency: %v\n", res.Multicast.MeanArrival)
	fmt.Fprintf(stdout, "  messages per op: %.2f\n", res.Multicast.MessagesPerOp)
	fmt.Fprintf(stdout, "  delivered payload: %.4f flits/node/cycle\n\n", res.Multicast.DeliveredPayloadPerNodeCycle)
	fmt.Fprintf(stdout, "unicast: ops=%d/%d\n", res.Unicast.OpsCompleted, res.Unicast.OpsGenerated)
	fmt.Fprintf(stdout, "  latency: %v\n", res.Unicast.LastArrival)
	fmt.Fprintf(stdout, "  delivered payload: %.4f flits/node/cycle\n\n", res.Unicast.DeliveredPayloadPerNodeCycle)
	// The collective report appears only when a collective was driven, so
	// plain runs keep their historical output byte-identical.
	if c := res.Collective; c != nil {
		fmt.Fprintf(stdout, "collective %s: reps=%d/%d degraded=%d\n",
			c.Kind, c.Completed, c.Started, c.Degraded)
		fmt.Fprintf(stdout, "  last-arrival latency: %v\n", c.LastArrival)
		fmt.Fprintf(stdout, "  final-phase arrival skew: %v\n", c.Skew)
		for i, p := range c.Phases {
			fmt.Fprintf(stdout, "  phase %d latency: %v\n", i+1, p)
		}
		fmt.Fprintln(stdout)
	}
	fmt.Fprintf(stdout, "raw delivered flits (headers included): %.4f /node/cycle\n", res.DeliveredFlitsPerNodeCycle)
	fmt.Fprintf(stdout, "drain: %d cycles\n", res.DrainCycles)
	// The fault report appears only for fault-injected runs, so fault-free
	// output stays byte-identical to earlier releases.
	if !cfg.Faults.Empty() {
		fmt.Fprintf(stdout, "\nfault plan: %s\n", cfg.Faults.Spec())
		fmt.Fprintf(stdout, "degraded ops: %d (fully dropped: %d), destinations dropped: %d\n",
			res.OpsDegraded, res.OpsDropped, res.DestsDropped)
		viol := fmt.Sprintf("invariant violations: %d", res.InvariantViolations)
		if s := sim.Invariants().Summary(); s != "" {
			viol += " (" + s + ")"
		}
		fmt.Fprintln(stdout, viol)
	}

	if *reps > 1 {
		fmt.Fprintf(stdout, "\nseed spread over %d replicas (seeds %d..%d):\n",
			*reps, *seed, *seed+uint64(*reps)-1)
		fmt.Fprintf(stdout, "%8s %12s %12s %14s\n", "seed", "mcast_lat", "uni_lat", "delivered")
		var sumM, sumU, sumT float64
		ok := 0
		for r := 0; r < *reps; r++ {
			if outs[r].err != nil {
				fmt.Fprintf(stdout, "%8d  ERROR: %v\n", *seed+uint64(r), outs[r].err)
				continue
			}
			rr := outs[r].res
			thr := rr.Multicast.DeliveredPayloadPerNodeCycle + rr.Unicast.DeliveredPayloadPerNodeCycle
			fmt.Fprintf(stdout, "%8d %12.4g %12.4g %14.5g\n",
				*seed+uint64(r), rr.Multicast.LastArrival.Mean, rr.Unicast.LastArrival.Mean, thr)
			sumM += rr.Multicast.LastArrival.Mean
			sumU += rr.Unicast.LastArrival.Mean
			sumT += thr
			ok++
		}
		if ok > 0 {
			fmt.Fprintf(stdout, "%8s %12.4g %12.4g %14.5g\n", "mean",
				sumM/float64(ok), sumU/float64(ok), sumT/float64(ok))
		}
	}

	if *swStats {
		printSwitchStats(stdout, sim)
	}
	return 0
}

// restoreSnapshot loads a -checkpoint blob and verifies the command line
// describes the same system the snapshot embeds, so the printed report's
// labels (arch, scheme, load, seed) stay truthful.
func restoreSnapshot(path string, flagCfg mdworm.Config) (*mdworm.Simulator, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sim, err := mdworm.Restore(blob)
	if err != nil {
		return nil, err
	}
	canon, err := flagCfg.Canonicalize()
	if err != nil {
		return nil, err
	}
	want, err := json.Marshal(canon)
	if err != nil {
		return nil, err
	}
	got, err := json.Marshal(sim.Config())
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(want, got) {
		return nil, fmt.Errorf("snapshot %s was taken under a different configuration; rerun with the original flags plus -resume", path)
	}
	return sim, nil
}

// printSwitchStats aggregates per-switch counters across the fabric.
func printSwitchStats(w io.Writer, sim *mdworm.Simulator) {
	fmt.Fprintln(w, "\nswitch counters (aggregated):")
	if cbs := sim.CBStats(); cbs != nil {
		var bypass, buffer, admits, resWait, uniCB, decodes int64
		maxChunks := 0
		for _, st := range cbs {
			bypass += st.BypassFlits
			buffer += st.BufferFlits
			admits += st.AdmittedMcasts
			resWait += st.ReserveWaitSum
			uniCB += st.UnicastCBEnters
			decodes += st.Decodes
			if st.MaxChunksInUse > maxChunks {
				maxChunks = st.MaxChunksInUse
			}
		}
		fmt.Fprintf(w, "  decodes=%d bypass-flits=%d buffer-flits=%d\n", decodes, bypass, buffer)
		fmt.Fprintf(w, "  multicast admissions=%d (total reservation wait %d cycles)\n", admits, resWait)
		fmt.Fprintf(w, "  unicasts diverted to central buffer=%d; peak chunks in use=%d\n", uniCB, maxChunks)
	}
	if ibs := sim.IBStats(); ibs != nil {
		var grants, hol, decodes int64
		maxOcc := 0
		for _, st := range ibs {
			grants += st.GrantWaitSum
			hol += st.HOLBlockedSum
			decodes += st.Decodes
			if st.MaxBufOccupancy > maxOcc {
				maxOcc = st.MaxBufOccupancy
			}
		}
		fmt.Fprintf(w, "  decodes=%d grant-wait=%d cycles, head-of-line stall=%d cycles\n", decodes, grants, hol)
		fmt.Fprintf(w, "  peak input-buffer occupancy=%d flits\n", maxOcc)
	}
}
