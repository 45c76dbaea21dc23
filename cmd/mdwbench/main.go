// Command mdwbench regenerates the paper's evaluation: every figure/table
// (e1..e8), the design-choice ablations (a1..a11), and the collective
// experiments (c1..c6).
//
// Usage:
//
//	mdwbench                 # run the full suite
//	mdwbench -exp e1,e3      # run selected experiments
//	mdwbench -exp ablation   # run a1..a11 only
//	mdwbench -exp paper      # run e1..e8 only
//	mdwbench -exp collective # run c1..c6 only
//	mdwbench -quick          # shrunk windows and point counts
//	mdwbench -workers 8      # sweep-point pool size (0 = GOMAXPROCS)
//	mdwbench -bench-out f    # append batch timing stats to a JSON history
//	mdwbench -daemon URL     # run on an mdwd daemon instead of in-process
//	mdwbench -cpuprofile f   # write a pprof CPU profile of the run
//	mdwbench -memprofile f   # write a pprof heap profile on exit
//	mdwbench -api-key K      # authenticate -daemon requests (mdwd -tenants)
//	mdwbench -load 30s       # open-loop soak of a daemon instead of a sweep
//	mdwbench -v              # per-point progress on stderr
//
// Sweep points are independent simulator instances, so -workers only
// changes wall-clock time: the rendered tables are byte-identical for
// every worker count. Ctrl-C (or SIGTERM) cancels the sweep: pending
// points are skipped and the process exits 130 without partial tables.
//
// With -daemon the experiments execute on a running mdwd server (repeat
// runs are served from its result cache); tables stream back identical to
// the in-process rendering. Only -format text is available remotely. The
// URL may equally point at a cluster coordinator (mdwd -coordinator): the
// API and the rendered tables are identical, with the sweep sharded across
// the coordinator's worker fleet. Against a daemon running with -tenants,
// pass -api-key (sweeps) or -load-keys (soaks) to authenticate.
//
// With -load the tool becomes a load generator: per-tenant open-loop Poisson
// arrivals against -daemon for the given duration, with per-tenant latency
// percentiles and error counts appended to -load-out (BENCH_load.json) and
// optional regression gates -load-fail-5xx and -load-max-p99. See the README
// "Multi-tenancy" section.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mdworm"
	"mdworm/internal/engine"
	"mdworm/internal/prof"
	"mdworm/internal/service"
)

// benchReport is one timing record of a sweep batch. The -bench-out file
// (BENCH_sweep.json) holds a JSON array of these, newest last, so the perf
// trajectory across commits is preserved; see appendBenchHistory.
type benchReport struct {
	Timestamp      string   `json:"timestamp,omitempty"`
	Kernel         string   `json:"kernel,omitempty"`
	GoVersion      string   `json:"go_version,omitempty"`
	Quick          bool     `json:"quick"`
	Seed           uint64   `json:"seed"`
	Experiments    []string `json:"experiments"`
	Family         string   `json:"family,omitempty"`
	Workers        int      `json:"workers"`
	Points         int      `json:"points"`
	SimulatedCycle int64    `json:"simulated_cycles"`
	WallSeconds    float64  `json:"wall_seconds"`
	PointsPerSec   float64  `json:"points_per_sec"`
	CyclesPerSec   float64  `json:"cycles_per_sec"`
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment made explicit so tests can drive it.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mdwbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		expFlag  = fs.String("exp", "all", "comma-separated experiment ids, or all|paper|ablation|collective")
		quick    = fs.Bool("quick", false, "shrink windows and point counts")
		format   = fs.String("format", "text", "output format: text, csv, or plot")
		seed     = fs.Uint64("seed", 1, "random seed")
		workers  = fs.Int("workers", 0, "concurrent sweep points (0 = GOMAXPROCS)")
		benchOut = fs.String("bench-out", "", "append batch timing stats (points/sec, cycles/sec) to this JSON history file")
		daemon   = fs.String("daemon", "", "run experiments on an mdwd daemon at this base URL (e.g. http://localhost:8080)")
		cpuProf  = fs.String("cpuprofile", "", "write a pprof CPU profile of the sweep to this file")
		memProf  = fs.String("memprofile", "", "write a pprof heap profile to this file on exit")
		retries  = fs.Int("retries", 5, "with -daemon: retry a busy, draining, or unreachable daemon this many times (exponential backoff honoring Retry-After)")
		verbose  = fs.Bool("v", false, "per-point progress on stderr")
		apiKey   = fs.String("api-key", "", "with -daemon: authenticate as \"Authorization: Bearer <key>\" (multi-tenant daemons)")

		loadDur     = fs.Duration("load", 0, "soak mode: open-loop load test against -daemon for this duration instead of running experiments")
		loadRate    = fs.Float64("load-rate", 20, "soak: aggregate target arrival rate in req/s (Poisson, split evenly across tenants)")
		loadClients = fs.Int("load-clients", 4, "soak: max in-flight requests per tenant")
		loadKeys    = fs.String("load-keys", "", "soak: comma-separated name=APIkey tenant pairs (empty = one anonymous tenant)")
		loadOut     = fs.String("load-out", "BENCH_load.json", "soak: append per-tenant latency percentiles to this JSON history file (empty = don't record)")
		loadMaxP99  = fs.Duration("load-max-p99", 0, "soak: fail if any tenant's p99 latency exceeds this (0 = no gate)")
		loadFail5xx = fs.Bool("load-fail-5xx", false, "soak: fail on any 5xx or transport error")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *loadDur > 0 {
		if *daemon == "" {
			fmt.Fprintln(stderr, "mdwbench: -load needs -daemon (the soak drives a running mdwd)")
			return 2
		}
		tenants, err := parseLoadKeys(*loadKeys)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		rep, err := runLoad(ctx, loadOpts{
			Base:     *daemon,
			Duration: *loadDur,
			Rate:     *loadRate,
			Clients:  *loadClients,
			Tenants:  tenants,
			Seed:     *seed,
			Verbose:  *verbose,
		}, stderr)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Fprintln(stderr, "mdwbench: interrupted, soak results discarded")
				return 130
			}
			fmt.Fprintf(stderr, "mdwbench: %v\n", err)
			return 1
		}
		formatLoadReport(stdout, rep)
		if *loadOut != "" {
			n, err := appendLoadHistory(*loadOut, rep)
			if err != nil {
				fmt.Fprintln(stderr, "mdwbench:", err)
				return 1
			}
			fmt.Fprintf(stderr, "mdwbench: soak recorded -> %s (%d runs)\n", *loadOut, n)
		}
		if err := checkLoadGates(rep, *loadFail5xx, *loadMaxP99); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}

	ids, err := expand(*expFlag)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(stderr, "mdwbench:", err)
		return 1
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(stderr, "mdwbench:", err)
		}
	}()

	var (
		points int
		cycles int64
		wall   float64
		wkrs   int
	)
	if *daemon != "" {
		if *format != "text" {
			fmt.Fprintln(stderr, "mdwbench: -daemon streams pre-rendered tables; only -format text is supported")
			return 2
		}
		points, cycles, wall, err = runRemote(ctx, *daemon, ids, remoteOpts{
			Quick: *quick, Seed: *seed, Workers: *workers, Verbose: *verbose, Retries: *retries,
			APIKey: *apiKey,
		}, stdout, stderr)
		wkrs = *workers
	} else {
		opts := mdworm.ExperimentOptions{Quick: *quick, Seed: *seed, Workers: *workers, Context: ctx}
		if *verbose {
			opts.Progress = stderr
		}
		var tables []*mdworm.ExperimentTable
		var st mdworm.SweepStats
		tables, st, err = mdworm.RunExperiments(ids, opts)
		if err == nil {
			for _, t := range tables {
				switch *format {
				case "text":
					t.Format(stdout)
					fmt.Fprintln(stdout)
				case "csv":
					if err := t.WriteCSV(stdout); err != nil {
						fmt.Fprintln(stderr, "mdwbench:", err)
						return 1
					}
					fmt.Fprintln(stdout)
				case "plot":
					t.Plot(stdout)
					fmt.Fprintln(stdout)
				default:
					fmt.Fprintf(stderr, "mdwbench: unknown format %q\n", *format)
					return 2
				}
			}
		}
		points, cycles, wall, wkrs = st.Points, st.Cycles, st.Wall.Seconds(), st.Workers
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(stderr, "mdwbench: interrupted, partial results discarded")
			return 130
		}
		fmt.Fprintf(stderr, "mdwbench: %v\n", err)
		return 1
	}

	if *benchOut != "" {
		rep := benchReport{
			Timestamp:      time.Now().UTC().Format(time.RFC3339),
			Kernel:         engine.Kernel,
			GoVersion:      runtime.Version(),
			Quick:          *quick,
			Seed:           *seed,
			Experiments:    ids,
			Family:         batchFamily(ids),
			Workers:        wkrs,
			Points:         points,
			SimulatedCycle: cycles,
			WallSeconds:    wall,
		}
		if wall > 0 {
			rep.PointsPerSec = float64(points) / wall
			rep.CyclesPerSec = float64(cycles) / wall
		}
		n, err := appendBenchHistory(*benchOut, rep)
		if err != nil {
			fmt.Fprintln(stderr, "mdwbench:", err)
			return 1
		}
		fmt.Fprintf(stderr, "mdwbench: %d points, %.1fs wall, %.2f points/s, %.3g cycles/s (workers=%d) -> %s (%d runs recorded)\n",
			points, wall, rep.PointsPerSec, rep.CyclesPerSec, wkrs, *benchOut, n)
	}
	return 0
}

// appendBenchHistory appends rep to the JSON array in path, starting a new
// history if the file is absent or empty; anything else that is not a JSON
// array of reports is rejected. Returns the number of recorded runs.
func appendBenchHistory(path string, rep benchReport) (int, error) {
	var hist []benchReport
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
	case err != nil:
		return 0, err
	case strings.TrimSpace(string(data)) != "":
		if err := json.Unmarshal(data, &hist); err != nil {
			return 0, fmt.Errorf("%s: existing history unreadable: %w", path, err)
		}
	}
	hist = append(hist, rep)
	out, err := json.MarshalIndent(hist, "", "  ")
	if err != nil {
		return 0, err
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return 0, err
	}
	return len(hist), nil
}

type remoteOpts struct {
	Quick   bool
	Seed    uint64
	Workers int
	Verbose bool
	Retries int
	APIKey  string
}

// runRemote drives each experiment on an mdwd daemon via POST /v1/experiment,
// consuming the chunked JSON-lines stream: point events go to stderr under
// -v, rendered tables to stdout, and the done event carries the batch cost.
// A stream cut mid-sweep (daemon restart, network fault) is resumed: the
// reconnect carries the stream token from the start event and the highest
// delivered seq as the cursor, so no completed point is re-delivered.
func runRemote(ctx context.Context, base string, ids []string, o remoteOpts, stdout, stderr io.Writer) (points int, cycles int64, wall float64, err error) {
	base = strings.TrimRight(base, "/")
	client := &http.Client{} // no timeout: experiments stream for minutes
	for _, id := range ids {
		p, c, w, err := runExperiment(ctx, client, base, id, o, stdout, stderr)
		if err != nil {
			if ctx.Err() != nil {
				return points, cycles, wall, ctx.Err()
			}
			return points, cycles, wall, err
		}
		points += p
		cycles += c
		wall += w
	}
	return points, cycles, wall, nil
}

// runExperiment streams one experiment to its done event, reconnecting with
// the resume cursor when the stream is cut or the daemon reports a retryable
// error. Reconnect backoff doubles from 1s, capped at a minute, jittered,
// and honors ctx cancellation.
func runExperiment(ctx context.Context, client *http.Client, base, id string, o remoteOpts, stdout, stderr io.Writer) (points int, cycles int64, wall float64, err error) {
	req := service.ExperimentRequest{ID: id, Quick: o.Quick, Seed: o.Seed, Workers: o.Workers}
	backoff := time.Second
	tablesPrinted := 0 // tables already written to stdout across resume attempts
	for resumes := 0; ; resumes++ {
		reqBody, err := json.Marshal(req)
		if err != nil {
			return 0, 0, 0, err
		}
		resp, err := postWithRetry(ctx, client, base+"/v1/experiment", string(reqBody), o.APIKey, o.Retries, o.Verbose, stderr)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("%s: %w", id, err)
		}
		st := consumeStream(resp, id, &req, &tablesPrinted, o.Verbose, stdout, stderr)
		resp.Body.Close()
		if st.done {
			return st.points, st.cycles, st.wall, nil
		}
		// Resume only when it can help: the interruption must be transient,
		// the server must have issued a stream token, and the attempt budget
		// must not be spent.
		if !st.retryable || req.Stream == "" || resumes >= o.Retries || ctx.Err() != nil {
			if st.err == nil {
				st.err = fmt.Errorf("%s: stream ended without a done event", id)
			}
			return 0, 0, 0, st.err
		}
		wait := backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1))
		if o.Verbose {
			fmt.Fprintf(stderr, "mdwbench: %s: stream interrupted (%v), resuming after seq %d in %s (attempt %d/%d)\n",
				id, st.err, req.AfterSeq, wait.Round(time.Millisecond), resumes+1, o.Retries)
		}
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return 0, 0, 0, ctx.Err()
		}
		backoff *= 2
		if backoff > time.Minute {
			backoff = time.Minute
		}
	}
}

// postWithRetry posts body to url, retrying an unreachable daemon
// (connection refused while it restarts) and 429/503 backpressure rejections
// with exponential backoff plus jitter, honoring the server's Retry-After
// hint when one is present. Any other response returns to the caller as-is.
func postWithRetry(ctx context.Context, client *http.Client, url, body, apiKey string, retries int, verbose bool, stderr io.Writer) (*http.Response, error) {
	backoff := time.Second
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		if apiKey != "" {
			req.Header.Set("Authorization", "Bearer "+apiKey)
		}
		resp, err := client.Do(req)
		wait := time.Duration(0)
		switch {
		case err != nil:
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			wait = backoff
		case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
			wait = retryWait(resp.Header.Get("Retry-After"), backoff)
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
		default:
			return resp, nil
		}
		if attempt >= retries {
			if err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("daemon still rejecting (%s) after %d retries", resp.Status, retries)
		}
		// Full jitter on the upper half of the window keeps a fleet of
		// retrying clients from re-colliding on the same instant.
		wait = wait/2 + time.Duration(rand.Int63n(int64(wait/2)+1))
		if verbose {
			fmt.Fprintf(stderr, "mdwbench: daemon busy or unreachable, retrying in %s (attempt %d/%d)\n",
				wait.Round(time.Millisecond), attempt+1, retries)
		}
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		backoff *= 2
		if backoff > time.Minute {
			backoff = time.Minute
		}
	}
}

// retryWait picks the pause before a retry: the server's Retry-After hint
// when present, otherwise the client's own backoff — either way capped at a
// minute, so a confused (or hostile) server cannot park the client for an
// hour.
func retryWait(retryAfter string, backoff time.Duration) time.Duration {
	wait := backoff
	if retryAfter != "" {
		if secs, err := strconv.Atoi(retryAfter); err == nil && secs > 0 {
			wait = time.Duration(secs) * time.Second
		}
	}
	return min(wait, time.Minute)
}

// streamState is one consumeStream outcome: either done (the stream reached
// its done event, stats valid), or interrupted (retryable says whether a
// reconnect with the updated cursor in req can finish the job).
type streamState struct {
	points    int
	cycles    int64
	wall      float64
	done      bool
	retryable bool
	err       error
}

// consumeStream reads one /v1/experiment JSON-lines response, advancing the
// resume cursor in req as events arrive: the start event's stream token and
// each point's seq are recorded before the event is acted on, so a cut at
// any byte resumes without re-delivering a consumed point. tablesPrinted is
// the cross-attempt cursor for table events, which carry no seq and are
// re-streamed in full on a resume: the stream is deterministic, so the K-th
// table of the resumed stream is the K-th table of the cut one, and only
// tables past the cursor are printed.
func consumeStream(resp *http.Response, id string, req *service.ExperimentRequest, tablesPrinted *int, verbose bool, stdout, stderr io.Writer) streamState {
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return streamState{err: fmt.Errorf("%s: daemon returned %s: %s", id, resp.Status, strings.TrimSpace(string(body)))}
	}
	var st streamState
	tablesSeen := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024) // tables are one line each
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var ev service.StreamEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			st.err = fmt.Errorf("%s: bad stream line %q: %w", id, line, err)
			st.retryable = true // a truncated line is a cut connection
			return st
		}
		switch ev.Type {
		case "start":
			if ev.Stream != "" {
				req.Stream = ev.Stream
			}
			if verbose {
				fmt.Fprintf(stderr, "%s: job %s started\n", id, ev.Job)
			}
		case "point":
			if ev.Seq > req.AfterSeq {
				req.AfterSeq = ev.Seq
			}
			if verbose {
				if ev.Err != "" {
					fmt.Fprintf(stderr, "%s: ERROR: %s\n", ev.Tag, ev.Err)
				} else {
					fmt.Fprintf(stderr, "%s: x=%g mcast=%.4g uni=%.4g thr=%.5g\n",
						ev.Tag, ev.X, ev.McastLat, ev.UniLat, ev.Throughput)
				}
			}
		case "table":
			tablesSeen++
			if tablesSeen > *tablesPrinted {
				fmt.Fprint(stdout, ev.Text)
				fmt.Fprintln(stdout)
				*tablesPrinted = tablesSeen
			}
		case "done":
			st.points, st.cycles, st.wall = ev.Points, ev.Cycles, ev.WallSeconds
			st.done = true
		case "error":
			st.err = fmt.Errorf("%s: daemon: %s", id, ev.Err)
			st.retryable = ev.Retryable
			return st
		}
	}
	if err := sc.Err(); err != nil {
		st.err = fmt.Errorf("%s: stream: %w", id, err)
		st.retryable = !st.done
	} else if !st.done {
		st.retryable = true // clean EOF mid-stream: the server went away
	}
	return st
}

// expFamily names the family an experiment id belongs to, by its registry
// prefix: e = paper figures/tables, a = ablations, c = collectives.
func expFamily(id string) string {
	switch {
	case strings.HasPrefix(id, "e"):
		return "paper"
	case strings.HasPrefix(id, "a"):
		return "ablation"
	case strings.HasPrefix(id, "c"):
		return "collective"
	}
	return "unknown"
}

// batchFamily names the family a batch of ids shares, or "mixed".
func batchFamily(ids []string) string {
	if len(ids) == 0 {
		return ""
	}
	f := expFamily(ids[0])
	for _, id := range ids[1:] {
		if expFamily(id) != f {
			return "mixed"
		}
	}
	return f
}

func expand(spec string) ([]string, error) {
	all := mdworm.ExperimentIDs()
	switch spec {
	case "all":
		return all, nil
	case "paper", "ablation", "collective":
		var out []string
		for _, id := range all {
			if expFamily(id) == spec {
				out = append(out, id)
			}
		}
		return out, nil
	}
	var out []string
	for _, id := range strings.Split(spec, ",") {
		id = strings.TrimSpace(strings.ToLower(id))
		if id == "" {
			continue
		}
		found := false
		for _, known := range all {
			if id == known {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("mdwbench: unknown experiment %q (have %v)", id, all)
		}
		out = append(out, id)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("mdwbench: no experiments selected")
	}
	return out, nil
}
