package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"mdworm/internal/core"
	"mdworm/internal/service"
)

// The service_mixed workload: open-loop Poisson arrivals against one
// in-process service.Server with a single pool worker, served on a loopback
// listener. About 70% of requests are fresh-seed small runs (cache misses);
// the rest repeat a configuration answered shortly before (cache hits).
const (
	// serviceRate is the fixed arrival rate. Its misses keep the one pool
	// worker about 15% busy. Near half busy (300/s), queueing amplified host
	// noise on a 2-vCPU VM until latency percentiles moved by 12-55% between
	// identical runs; at this rate they hold within about 8%.
	serviceRate = 100.0
	// hitShare is the chance that an arrival repeats an earlier config.
	hitShare = 0.3
	// A repeat names a fresh request scheduled hitMinAge to hitMaxAge
	// earlier: long enough ago to have been answered, recent enough to
	// still be in the server's default 1024-entry cache.
	hitMinAge = 250 * time.Millisecond
	hitMaxAge = 2 * time.Second
	// serviceConns bounds the client's connections and senders.
	serviceConns = 2
	// setupReps is how many times a run builds the server; setup_s is the
	// median.
	setupReps = 15
	// lagBound rejects a run whose generator sent its tail request later
	// than this after the scheduled instant.
	lagBound = 25 * time.Millisecond
	// verifyMisses is how many answered misses are recomputed in process
	// and compared byte for byte.
	verifyMisses = 3
)

// svcRequest is one generated arrival.
type svcRequest struct {
	at    time.Duration // scheduled offset from the phase start
	seed  uint64        // the config's simulation seed
	fresh bool          // false: repeats an earlier request's config
}

func (r svcRequest) body() []byte {
	// The small-run shape mdwbench -load sends: a real simulation of a few
	// milliseconds.
	return []byte(fmt.Sprintf(`{"config":{"stages":2,"degree":4,"warmup_cycles":200,"measure_cycles":800,"drain_cycles":50000,"op_rate":0.001,"seed":%d}}`, r.seed))
}

// serviceInputs generates the arrival schedule for one phase from seed.
func serviceInputs(seed uint64, dur time.Duration) []svcRequest {
	rng := rand.New(rand.NewSource(int64(seed)))
	var reqs []svcRequest
	var fresh []int // indices of fresh requests, in schedule order
	var at time.Duration
	for {
		at += time.Duration(rng.ExpFloat64() / serviceRate * float64(time.Second))
		if at >= dur {
			return reqs
		}
		r := svcRequest{at: at, fresh: true}
		if rng.Float64() < hitShare {
			lo := sort.Search(len(fresh), func(k int) bool { return reqs[fresh[k]].at >= at-hitMaxAge })
			hi := sort.Search(len(fresh), func(k int) bool { return reqs[fresh[k]].at > at-hitMinAge })
			if hi > lo {
				r = svcRequest{at: at, seed: reqs[fresh[lo+rng.Intn(hi-lo)]].seed}
			}
		}
		if r.fresh {
			r.seed = seed*1_000_000 + uint64(len(fresh))
			fresh = append(fresh, len(reqs))
		}
		reqs = append(reqs, r)
	}
}

// svcResult is what the client saw for one request.
type svcResult struct {
	lag        time.Duration // generator lateness
	sent, done time.Time
	latency    time.Duration // from the scheduled arrival to the last body byte
	status     int
	err        error
	body       []byte
	cache, sha string
	job        string
}

// svcPhase is one load phase on a freshly built server.
type svcPhase struct {
	setup   sample // seconds per build
	start   time.Time
	wall    time.Duration
	alloc   uint64 // heap bytes the process allocated during the load
	results []svcResult
	jobs    []service.JobView

	// hmu guards handlers: each request's server handler start and end,
	// written by the server's goroutines on a traced phase.
	hmu      sync.Mutex
	handlers [][2]time.Time
}

// startService builds the system under test: server, listener, and a
// first healthy probe.
func startService(client *http.Client, wrap func(http.Handler) http.Handler) (*served, error) {
	srv, err := service.New(service.Config{Workers: 1})
	if err != nil {
		return nil, err
	}
	s, err := serve(wrap(srv.Handler()))
	if err != nil {
		return nil, err
	}
	if err := probe(client, s.url); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// runServicePhase builds the server setupReps times, keeps the last one,
// and drives reqs against it open loop.
func runServicePhase(reqs []svcRequest, tr *tracer) (*svcPhase, error) {
	ph := &svcPhase{results: make([]svcResult, len(reqs)), handlers: make([][2]time.Time, len(reqs))}
	transport := &http.Transport{MaxConnsPerHost: serviceConns, MaxIdleConnsPerHost: serviceConns}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: time.Minute}

	wrap := func(h http.Handler) http.Handler { return h }
	if tr != nil {
		wrap = func(h http.Handler) http.Handler {
			return timed(h, func(r *http.Request, _ http.Header, start, end time.Time) {
				if i, err := strconv.Atoi(r.Header.Get("X-Bench-Req")); err == nil && i >= 0 && i < len(reqs) {
					ph.hmu.Lock()
					ph.handlers[i] = [2]time.Time{start, end}
					ph.hmu.Unlock()
				}
			})
		}
	}
	var s *served
	for i := 0; i < setupReps; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if s, err = startService(client, wrap); err != nil {
			return nil, fmt.Errorf("start service: %w", err)
		}
		ph.setup.addDur(time.Since(t0), time.Second)
	}
	defer s.close()

	// Sized to the number of sends, so the generator never blocks on a
	// slow sender: the loop stays open.
	queue := make(chan int, len(reqs))
	var wg sync.WaitGroup
	alloc := heapAllocated()
	ph.start = time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(queue)
		for i, r := range reqs {
			at := ph.start.Add(r.at)
			time.Sleep(time.Until(at))
			ph.results[i].lag = time.Since(at)
			queue <- i
		}
	}()
	for c := 0; c < serviceConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				sendRun(client, s.url, i, ph.start.Add(reqs[i].at), reqs[i].body(), &ph.results[i])
			}
		}()
	}
	wg.Wait()
	ph.wall = time.Since(ph.start)
	ph.alloc = heapAllocated() - alloc

	if tr != nil {
		jobs, err := listJobs(client, s.url)
		if err != nil {
			return nil, err
		}
		ph.jobs = jobs
	}
	return ph, nil
}

// sendRun posts one run request and files what came back.
func sendRun(client *http.Client, url string, i int, sched time.Time, body []byte, r *svcResult) {
	req, err := http.NewRequest(http.MethodPost, url+"/v1/run", bytes.NewReader(body))
	if err != nil {
		r.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Bench-Req", strconv.Itoa(i))
	r.sent = time.Now()
	resp, err := client.Do(req)
	if err != nil {
		r.err = err
		return
	}
	r.body, r.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	r.done = time.Now()
	r.latency = r.done.Sub(sched)
	r.status = resp.StatusCode
	r.cache = resp.Header.Get("X-Mdwd-Cache")
	r.sha = resp.Header.Get("X-Mdwd-Body-SHA256")
	r.job = resp.Header.Get("X-Mdwd-Job")
}

// listJobs reads the job records through GET /v1/jobs.
func listJobs(client *http.Client, url string) ([]service.JobView, error) {
	resp, err := client.Get(url + "/v1/jobs")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out struct {
		Jobs []service.JobView `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("GET /v1/jobs: %w", err)
	}
	return out.Jobs, nil
}

// svcSummary is a checked phase.
type svcSummary struct {
	ok, failed, rejected, hits int
	all, miss, hit, lag        sample // ms
	missCycles                 int64  // simulated cycles of requests answered as misses
	bodies                     map[uint64][]byte
	cycles                     map[uint64]int64 // per distinct config
}

// checkPhase applies the correctness gates to one phase: every 200 carries
// a valid body digest, every answer for one config is byte-identical (a
// hit equals its miss), no run reports invariant violations or dropped
// destinations, and the generator kept to its schedule.
func checkPhase(reqs []svcRequest, ph *svcPhase) (*svcSummary, error) {
	sum := &svcSummary{bodies: map[uint64][]byte{}, cycles: map[uint64]int64{}}
	for i, r := range ph.results {
		sum.lag.addDur(r.lag, time.Millisecond)
		switch {
		case r.err != nil:
			sum.failed++
			continue
		case r.status == http.StatusTooManyRequests || r.status == http.StatusServiceUnavailable:
			sum.rejected++
			sum.failed++
			continue
		case r.status != http.StatusOK:
			sum.failed++
			continue
		}
		if r.sha == "" || r.sha != service.BodySHA(r.body) {
			return nil, fmt.Errorf("request %d: body digest %q does not match its body", i, r.sha)
		}
		seed := reqs[i].seed
		if prev, ok := sum.bodies[seed]; ok && !bytes.Equal(prev, r.body) {
			return nil, fmt.Errorf("request %d: body differs from an earlier answer for the same config", i)
		}
		var rr service.RunResponse
		if err := json.Unmarshal(r.body, &rr); err != nil {
			return nil, fmt.Errorf("request %d: %w", i, err)
		}
		if rr.Results.InvariantViolations != 0 || rr.Results.DestsDropped != 0 {
			return nil, fmt.Errorf("request %d: %d invariant violations, %d dropped destinations",
				i, rr.Results.InvariantViolations, rr.Results.DestsDropped)
		}
		sum.bodies[seed] = r.body
		sum.cycles[seed] = rr.SimulatedCycles
		sum.ok++
		sum.all.addDur(r.latency, time.Millisecond)
		if r.cache == "hit" {
			sum.hits++
			sum.hit.addDur(r.latency, time.Millisecond)
		} else {
			sum.miss.addDur(r.latency, time.Millisecond)
			sum.missCycles += rr.SimulatedCycles
		}
	}
	if lag, pct := sum.lag.tail(); lag > float64(lagBound)/float64(time.Millisecond) {
		return nil, fmt.Errorf("load generator fell behind its schedule: p%g lag %.1f ms exceeds %s", pct, lag, lagBound)
	}
	if err := verifyLocally(reqs, sum); err != nil {
		return nil, err
	}
	return sum, nil
}

// verifyLocally recomputes the first few answered configs in process and
// requires the served bytes to match.
func verifyLocally(reqs []svcRequest, sum *svcSummary) error {
	n := 0
	for _, r := range reqs {
		body, ok := sum.bodies[r.seed]
		if !r.fresh || !ok {
			continue
		}
		want, err := localRun(r.body())
		if err != nil {
			return err
		}
		if !bytes.Equal(want, body) {
			return fmt.Errorf("served result for seed %d differs from the in-process run", r.seed)
		}
		if n++; n == verifyMisses {
			return nil
		}
	}
	return nil
}

// localRun computes a run request's response body the way the server
// does, through the public service functions and the simulator.
func localRun(body []byte) ([]byte, error) {
	var req service.RunRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	cfg, err := req.Config.Resolve()
	if err != nil {
		return nil, err
	}
	hash, canon, err := service.Hash(cfg)
	if err != nil {
		return nil, err
	}
	sim, err := core.New(canon)
	if err != nil {
		return nil, err
	}
	res, err := sim.Run()
	if err != nil {
		return nil, err
	}
	return json.Marshal(service.RunResponse{Hash: hash, Config: canon, Results: res, SimulatedCycles: sim.Now()})
}

// distinctCycles is the simulated-cycle total over distinct configs, which
// does not depend on which requests happened to hit.
func (s *svcSummary) distinctCycles() int64 {
	var t int64
	for _, c := range s.cycles {
		t += c
	}
	return t
}

func serviceWorkload(e *env) (*outcome, error) {
	reqs := serviceInputs(e.seed, e.seconds)
	ph, err := runServicePhase(reqs, nil)
	if err != nil {
		return nil, err
	}
	sum, err := checkPhase(reqs, ph)
	if err != nil {
		return nil, err
	}
	o := &outcome{attempted: len(reqs), failed: sum.failed,
		counts: map[string]int64{"engine.sim_cycles": sum.distinctCycles()}}
	if e.tr == nil {
		tail, pct := sum.all.tail()
		o.metrics = map[string]float64{
			"sim_cycles_per_s": float64(sum.missCycles) / ph.wall.Seconds(),
			"ok_per_s":         float64(sum.ok) / ph.wall.Seconds(),
			"latency_p50_ms":   sum.all.median(),
			"latency_tail_ms":  tail,
			"setup_s":          ph.setup.median(),
			"alloc_kb_per_op":  float64(ph.alloc) / 1024 / float64(len(reqs)),
		}
		o.note("%d requests at %.0f/s over %.2f s: %d ok (%d hits), %d failed",
			len(reqs), serviceRate, ph.wall.Seconds(), sum.ok, sum.hits, sum.failed)
		o.note("latency from scheduled arrival: all n=%d tail=p%g; miss n=%d p50=%.3f ms; hit n=%d p50=%.3f ms",
			len(sum.all), pct, len(sum.miss), sum.miss.median(), len(sum.hit), sum.hit.median())
		o.note("setup: server, listener, first healthy probe; median of %d", len(ph.setup))
		return o, nil
	}
	return tracedService(e, reqs, sum, o)
}

// tracedService repeats the phase with the handler timed, reads the job
// records, and replays the workload's bodies through the public service
// functions.
func tracedService(e *env, reqs []svcRequest, baseSum *svcSummary, o *outcome) (*outcome, error) {
	ph, err := runServicePhase(reqs, e.tr)
	if err != nil {
		return nil, err
	}
	sum, err := checkPhase(reqs, ph)
	if err != nil {
		return nil, err
	}
	for seed, b := range sum.bodies {
		if prev, ok := baseSum.bodies[seed]; ok && !bytes.Equal(prev, b) {
			return nil, fmt.Errorf("traced answer for seed %d differs from the untraced one", seed)
		}
	}
	o.attempted += len(reqs)
	o.failed += sum.failed

	jobs := map[string]service.JobView{}
	for _, j := range ph.jobs {
		jobs[j.ID] = j
	}
	var missH, hitH, overhead, queue, runMs sample
	ph.hmu.Lock()
	defer ph.hmu.Unlock()
	for i, r := range ph.results {
		if r.status != http.StatusOK {
			continue
		}
		root := e.tr.add(0, "http.client", strconv.Itoa(i), r.sent, r.done)
		h := ph.handlers[i]
		if h[0].IsZero() {
			continue
		}
		hid := e.tr.add(root, "service.handler", strconv.Itoa(i), h[0], h[1])
		overhead.addDur(r.done.Sub(r.sent)-h[1].Sub(h[0]), time.Millisecond)
		if r.cache == "hit" {
			hitH.addDur(h[1].Sub(h[0]), time.Millisecond)
			continue
		}
		missH.addDur(h[1].Sub(h[0]), time.Millisecond)
		if j, ok := jobs[r.job]; ok {
			created, started, finished, err := jobTimes(j)
			if err != nil {
				return nil, err
			}
			e.tr.add(hid, "service.queue_wait", strconv.Itoa(i), created, started)
			e.tr.add(hid, "service.job_run", strconv.Itoa(i), started, finished)
			queue.addDur(started.Sub(created), time.Millisecond)
			runMs.addDur(finished.Sub(started), time.Millisecond)
		}
	}
	bodies := make([][]byte, len(reqs))
	for i, r := range reqs {
		bodies[i] = r.body()
	}
	answers := make([][]byte, 0, len(sum.bodies))
	for _, b := range sum.bodies {
		answers = append(answers, b)
	}
	rp := replay(bodies, answers)

	missTail, missPct := baseSum.miss.tail()
	hitTail, hitPct := baseSum.hit.tail()
	queueTail, _ := queue.tail()
	missHTail, _ := missH.tail()
	lagTail, lagPct := baseSum.lag.tail()
	baseP50 := baseSum.all.median()
	o.metrics = map[string]float64{
		"bench.trace_overhead_pct":     100 * (sum.all.median() - baseP50) / baseP50,
		"engine.sim_cycles":            float64(sum.distinctCycles()),
		"service.miss_p50_ms":          baseSum.miss.median(),
		"service.miss_tail_ms":         missTail,
		"service.hit_p50_ms":           baseSum.hit.median(),
		"service.hit_tail_ms":          hitTail,
		"service.queue_wait_ms_p50":    queue.median(),
		"service.queue_wait_ms_tail":   queueTail,
		"service.job_run_ms_p50":       runMs.median(),
		"service.miss_handler_ms_p50":  missH.median(),
		"service.miss_handler_ms_tail": missHTail,
		"service.hit_handler_ms_p50":   hitH.median(),
		"http.client_overhead_ms_p50":  overhead.median(),
		"service.resolve_us_p50":       rp.resolve.median(),
		"service.hash_us_p50":          rp.hash.median(),
		"service.body_sha_us_p50":      rp.sha.median(),
		"service.cache_get_us_p50":     rp.get.median(),
		"service.cache_hit_ratio":      float64(baseSum.hits) / float64(max(baseSum.ok, 1)),
		"service.rejected":             float64(baseSum.rejected + sum.rejected),
		"loadgen.lag_ms_tail":          lagTail,
		"loadgen.requests":             float64(len(reqs)),
	}
	o.note("untraced phase: %d requests, %d ok, %d hits (cache_hit_ratio base: %d ok answers); miss n=%d tail=p%g, hit n=%d tail=p%g, lag tail=p%g",
		len(reqs), baseSum.ok, baseSum.hits, baseSum.ok, len(baseSum.miss), missPct, len(baseSum.hit), hitPct, lagPct)
	o.note("traced phase: handler spans miss n=%d hit n=%d, job records n=%d; trace overhead from latency p50 %.3f -> %.3f ms",
		len(missH), len(hitH), len(queue), baseP50, sum.all.median())
	o.note("replayed %d bodies through Resolve, Hash, BodySHA and Cache.Get", len(rp.resolve))
	return o, nil
}

func jobTimes(j service.JobView) (created, started, finished time.Time, err error) {
	for _, f := range []struct {
		s string
		t *time.Time
	}{{j.Created, &created}, {j.Started, &started}, {j.Finished, &finished}} {
		if *f.t, err = time.Parse(time.RFC3339Nano, f.s); err != nil {
			return created, started, finished, fmt.Errorf("job %s: %w", j.ID, err)
		}
	}
	return created, started, finished, nil
}

// replayTimes are per-call host times, in microseconds, of the service's
// public functions on the workload's own inputs.
type replayTimes struct {
	resolve, hash, sha, get sample
}

// replay times the service's request path on a workload's own run
// requests and answers, as handleRun takes it: Resolve (wire configs only;
// a raw config skips it), Hash, and Cache.Get on a cache holding every
// answer; BodySHA is timed on every answer.
func replay(bodies, answers [][]byte) replayTimes {
	var rt replayTimes
	cache, err := service.NewCache(len(answers)+1, "")
	if err != nil {
		return rt
	}
	for _, a := range answers {
		var rr service.RunResponse
		if json.Unmarshal(a, &rr) != nil {
			continue
		}
		t0 := time.Now()
		service.BodySHA(a)
		rt.sha.addDur(time.Since(t0), time.Microsecond)
		cache.Put(rr.Hash, a)
	}
	for _, b := range bodies {
		var req service.RunRequest
		if json.Unmarshal(b, &req) != nil {
			continue
		}
		var cfg core.Config
		if req.RawConfig != nil {
			cfg = *req.RawConfig
		} else {
			t0 := time.Now()
			c, err := req.Config.Resolve()
			rt.resolve.addDur(time.Since(t0), time.Microsecond)
			if err != nil {
				continue
			}
			cfg = c
		}
		t1 := time.Now()
		hash, _, err := service.Hash(cfg)
		rt.hash.addDur(time.Since(t1), time.Microsecond)
		if err != nil {
			continue
		}
		t2 := time.Now()
		cache.Get(hash)
		rt.get.addDur(time.Since(t2), time.Microsecond)
	}
	return rt
}
