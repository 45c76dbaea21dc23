// Command perfbench is the repository benchmark. It runs one named workload
// against the simulator and its service stack from outside, through public
// seams, checks that the outputs are correct, and prints the workload's
// metrics. The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A failed correctness gate prints no
// numbers and exits 1.
//
// Build and run it from the repository root through run.sh:
//
//	bash perfbench/run.sh --workload fabric_loaded --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced run; --trace 1
// repeats the workload with spans recorded at the seams and reports the
// per-layer metrics. README.md in this directory describes the workloads and
// maps each per-layer metric to the end-to-end metric it should move.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// defaultSeed reproduces the committed results_all.txt tables. heldOutSeed
// is kept out of tuning, so a claimed gain can be confirmed on inputs the
// change was not tuned on.
const (
	defaultSeed = 1
	heldOutSeed = 7
)

// metricDef names one reported metric; BENCHMARK.json lists the same set.
type metricDef struct {
	name, unit, better string
}

// endToEnd metrics are reported by every workload's untraced run.
var endToEnd = []metricDef{
	{"sim_cycles_per_s", "1/s", "higher"},
	{"ok_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_tail_ms", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"alloc_kb_per_op", "KB", "lower"},
}

// perLayer metrics are reported by every traced run; a layer the workload
// does not exercise reads 0.
var perLayer = []metricDef{
	{"bench.trace_overhead_pct", "%", "lower"},
	{"error_rate", "ratio", "lower"},

	{"core.run_s", "s", "lower"},
	{"core.new_s", "s", "lower"},
	{"core.ns_per_sim_cycle", "ns", "lower"},
	{"switches.ns_per_flit", "ns", "lower"},
	{"core.alloc_mb", "MB", "lower"},
	{"core.gc_cycles", "count", "lower"},
	{"experiments.plan_ms", "ms", "lower"},
	{"experiments.finish_ms", "ms", "lower"},
	{"experiments.unattributed_s", "s", "lower"},

	{"engine.sim_cycles", "count", "lower"},
	{"switches.flits_out", "count", "lower"},
	{"switches.decodes", "count", "lower"},
	{"switches.replications", "count", "lower"},
	{"centralbuf.buffer_flits", "count", "lower"},
	{"centralbuf.bypass_flits", "count", "lower"},
	{"centralbuf.reserve_wait_cycles", "count", "lower"},
	{"inputbuf.hol_blocked_cycles", "count", "lower"},
	{"inputbuf.grant_wait_cycles", "count", "lower"},
	{"nic.flits_injected", "count", "lower"},
	{"nic.forwarded_msgs", "count", "lower"},
	{"nic.overhead_cycles", "count", "lower"},

	{"service.miss_p50_ms", "ms", "lower"},
	{"service.miss_tail_ms", "ms", "lower"},
	{"service.hit_p50_ms", "ms", "lower"},
	{"service.hit_tail_ms", "ms", "lower"},
	{"service.queue_wait_ms_p50", "ms", "lower"},
	{"service.queue_wait_ms_tail", "ms", "lower"},
	{"service.job_run_ms_p50", "ms", "lower"},
	{"service.miss_handler_ms_p50", "ms", "lower"},
	{"service.miss_handler_ms_tail", "ms", "lower"},
	{"service.hit_handler_ms_p50", "ms", "lower"},
	{"http.client_overhead_ms_p50", "ms", "lower"},
	{"service.resolve_us_p50", "us", "lower"},
	{"service.hash_us_p50", "us", "lower"},
	{"service.body_sha_us_p50", "us", "lower"},
	{"service.cache_get_us_p50", "us", "lower"},
	{"service.cache_hit_ratio", "ratio", "higher"},
	{"service.rejected", "count", "lower"},
	{"loadgen.lag_ms_tail", "ms", "lower"},
	{"loadgen.requests", "count", "higher"},

	{"cluster.dispatch_ms_p50", "ms", "lower"},
	{"cluster.dispatch_ms_tail", "ms", "lower"},
	{"cluster.worker_handler_ms_p50", "ms", "lower"},
	{"cluster.attempts_per_shard", "ratio", "lower"},
	{"cluster.busy_retries", "count", "lower"},
	{"cluster.peer_share_max", "ratio", "lower"},
	{"cluster.hedges", "count", "lower"},
	{"cluster.migrations", "count", "lower"},
	{"cluster.local_points", "count", "lower"},
}

// env is what a workload receives: the inputs' seed, how long to measure,
// and the tracer of a traced run (nil when untraced).
type env struct {
	root    string
	seed    uint64
	seconds time.Duration
	tr      *tracer
}

// outcome is a workload's result. metrics holds end-to-end values on an
// untraced run and per-layer values on a traced one; counts holds the
// deterministic counts that must repeat exactly at one seed.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	counts            map[string]int64
	notes             []string
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(*env) (*outcome, error){
	"fabric_loaded":     sweepWorkload(fabricIDs),
	"collective_sparse": sweepWorkload(collectiveIDs),
	"service_mixed":     serviceWorkload,
	"cluster_sweep":     clusterWorkload,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment made explicit.
func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fl.Uint64("seed", defaultSeed, fmt.Sprintf("input seed (default %d; %d is held out for confirming claims)", defaultSeed, heldOutSeed))
	seconds := fl.Int("seconds", 10, "minimum measured seconds per run")
	traced := fl.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	root := fl.String("root", ".", "repository checkout root")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	e := &env{root: *root, seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	if *traced == 1 {
		e.tr = newTracer()
	}
	out := filepath.Join(*root, ".bench_build", "perfbench")
	prov := stamp(*root, *name, *seed, *seconds, *traced == 1)

	o, err := wl(e)
	if err == nil {
		err = checkCounts(filepath.Join(out, "counts"), prov, o.counts)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n", *name, *seed, err)
		return 1
	}
	defs := endToEnd
	if e.tr != nil {
		defs = perLayer
		o.metrics["error_rate"] = float64(o.failed) / float64(max(o.attempted, 1))
		path := filepath.Join(out, "trace", fmt.Sprintf("%s-seed%d.ndjson", *name, *seed))
		if err := writeSpans(path, prov, e.tr.snapshot()); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		o.note("spans: %s", path)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v := o.metrics[d.name]
		if e.tr == nil && !(v > 0 && !math.IsInf(v, 0)) {
			fmt.Fprintf(stderr, "perfbench: %s: end-to-end metric %s measured %v\n", *name, d.name, v)
			return 1
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		metrics[d.name] = value{v, d.unit}
	}
	provJSON, _ := json.Marshal(prov)
	fmt.Fprintf(stdout, "provenance %s\n", provJSON)
	for _, n := range o.notes {
		fmt.Fprintf(stdout, "  %s\n", n)
	}
	for _, d := range defs {
		fmt.Fprintf(stdout, "%-32s %16.6g %s\n", d.name, metrics[d.name].Value, d.unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{true, o.attempted, o.failed, metrics})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// provenance identifies what produced a result.
type provenance struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Traced     bool   `json:"traced"`
	GitRev     string `json:"git_rev"`
	SourceSHA  string `json:"source_sha256"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Time       string `json:"time"`
}

func stamp(root, workload string, seed uint64, seconds int, traced bool) provenance {
	return provenance{
		Workload:   workload,
		Seed:       seed,
		Seconds:    seconds,
		Traced:     traced,
		GitRev:     gitRev(root),
		SourceSHA:  sourceSHA(root),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
}

// gitRev is the checked-out commit, or "none" outside a git work tree.
func gitRev(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceSHA digests every Go source and module file of the checkout, so a
// result names the code it measured even where there is no git history.
func sourceSHA(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// heapAllocated is the bytes the process has allocated on the heap so far.
// Allocation per operation stands in for a memory footprint: peak RSS and the
// live heap a collection finds both moved by a fifth or more between
// identical runs, with when collections happened to fall.
func heapAllocated() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// checkCounts holds deterministic counts to exact repetition: the counts of
// every run of this binary at one workload, seed and run length (the service
// generates its arrivals for the run's length), traced or not, are merged
// into one record, and a count that differs from the recorded value fails
// the run.
func checkCounts(dir string, prov provenance, counts map[string]int64) error {
	if len(counts) == 0 {
		return nil
	}
	build, err := binaryID()
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%ds-%s.json", prov.Workload, prov.Seed, prov.Seconds, build))
	rec := map[string]int64{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &rec); err != nil {
			return fmt.Errorf("count record %s: %w", path, err)
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	var diffs []string
	for k, v := range counts {
		if old, ok := rec[k]; ok && old != v {
			diffs = append(diffs, fmt.Sprintf("%s %d, recorded %d", k, v, old))
		}
		rec[k] = v
	}
	if len(diffs) > 0 {
		sort.Strings(diffs)
		return fmt.Errorf("deterministic counts did not repeat (%s): %s", path, strings.Join(diffs, "; "))
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// binaryID names this build, so records from other code are never compared.
func binaryID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
