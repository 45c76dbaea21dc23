package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mdworm/internal/obs"
)

// tinyRun is a request body that simulates in a few milliseconds: a 16-node
// fabric with short windows.
func tinyRun(seed uint64) string {
	return fmt.Sprintf(`{"config":{"stages":2,"degree":4,"warmup_cycles":200,"measure_cycles":800,"drain_cycles":50000,"op_rate":0.001,"seed":%d}}`, seed)
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { s.Drain(10 * time.Second) })
	return s, ts
}

func postRun(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func metric(t *testing.T, url, name string) int64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var n int64
		if _, err := fmt.Sscanf(sc.Text(), name+" %d", &n); err == nil {
			return n
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}

// TestRunCacheHitByteIdentical is the tentpole guarantee: repeating an
// identical POST /v1/run is a cache hit (counter increments) whose body is
// byte-identical to the original miss — even when the repeat spells the
// config differently.
func TestRunCacheHitByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	resp1, body1 := postRun(t, ts.URL, tinyRun(3))
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("miss: %d %s", resp1.StatusCode, body1)
	}
	if h := resp1.Header.Get("X-Mdwd-Cache"); h != "miss" {
		t.Fatalf("first request: X-Mdwd-Cache = %q", h)
	}
	hitsBefore := metric(t, ts.URL, "mdwd_cache_hits")

	// Same config, different JSON spelling: extra whitespace, reordered
	// fields, and a spelled-out default.
	respelled := `{"config":{"seed":3,  "op_rate":0.001,"drain_cycles":50000,"measure_cycles":800,"warmup_cycles":200,"degree":4,"stages":2,"arch":"cb"}}`
	resp2, body2 := postRun(t, ts.URL, respelled)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("hit: %d %s", resp2.StatusCode, body2)
	}
	if h := resp2.Header.Get("X-Mdwd-Cache"); h != "hit" {
		t.Fatalf("second request: X-Mdwd-Cache = %q", h)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("cache hit not byte-identical:\n%s\n%s", body1, body2)
	}
	if got := metric(t, ts.URL, "mdwd_cache_hits"); got != hitsBefore+1 {
		t.Fatalf("cache hits = %d, want %d", got, hitsBefore+1)
	}

	var rr RunResponse
	if err := json.Unmarshal(body1, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Hash == "" || rr.Results.Nodes != 16 {
		t.Fatalf("response incomplete: %+v", rr)
	}
	if rr.Hash != resp1.Header.Get("X-Mdwd-Hash") || rr.Hash != resp2.Header.Get("X-Mdwd-Hash") {
		t.Fatal("hash header mismatch")
	}
}

// TestConcurrentMixedClients hammers the daemon with interleaved hits and
// misses across several distinct configs; every response for a given config
// must be byte-identical regardless of which client populated the cache.
// (go test -race is the interesting mode, and CI runs it.)
func TestConcurrentMixedClients(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})

	const configs = 4
	const clients = 8
	const perClient = 6

	var mu sync.Mutex
	bodies := make(map[int][][]byte)

	// Clients run in lock-step rounds: each round starts once every client
	// has its previous answer. The service does not merge identical
	// in-flight misses, so only round 0 may miss, at most twice per config
	// (two clients share each config there); later rounds find every
	// config cached.
	for i := 0; i < perClient; i++ {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				cfg := (c + i) % configs
				resp, err := http.Post(ts.URL+"/v1/run", "application/json",
					strings.NewReader(tinyRun(uint64(100+cfg))))
				if err != nil {
					t.Error(err)
					return
				}
				b, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("config %d: %d %v %s", cfg, resp.StatusCode, err, b)
					return
				}
				mu.Lock()
				bodies[cfg] = append(bodies[cfg], b)
				mu.Unlock()
			}(c)
		}
		wg.Wait()
	}

	total := int64(0)
	for cfg, bs := range bodies {
		total += int64(len(bs))
		for _, b := range bs[1:] {
			if !bytes.Equal(bs[0], b) {
				t.Fatalf("config %d: divergent responses", cfg)
			}
		}
	}
	if total != clients*perClient {
		t.Fatalf("lost responses: %d/%d", total, clients*perClient)
	}
	hits := metric(t, ts.URL, "mdwd_cache_hits")
	misses := metric(t, ts.URL, "mdwd_cache_misses")
	if hits+misses != total {
		t.Fatalf("hits %d + misses %d != requests %d", hits, misses, total)
	}
	if hits < total-2*configs { // concurrent first misses per config are legal
		t.Fatalf("suspiciously few hits: %d of %d", hits, total)
	}
}

// TestCycleBudget: a config whose cycle ceiling exceeds the budget fails
// with a structured error — and leaves the daemon fully usable.
func TestCycleBudget(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxCycles: 100_000})

	// Per-request budget tighter than the config's ceiling.
	resp, body := postRun(t, ts.URL, `{"config":{"stages":2},"cycle_budget":1000}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var e struct {
		Error APIError `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error.Code != "cycle_budget_exceeded" {
		t.Fatalf("error body: %s (%v)", body, err)
	}

	// Server-wide cap: the default windows (225k cycles) exceed 100k.
	resp, body = postRun(t, ts.URL, `{"config":{}}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("server cap not enforced: %d %s", resp.StatusCode, body)
	}

	// Other jobs are unaffected: a request inside the budget succeeds.
	resp, body = postRun(t, ts.URL, tinyRun(1)+"")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("in-budget run failed: %d %s", resp.StatusCode, body)
	}
}

// TestInvalidConfig: resolution and validation failures are structured
// errors, not 500s.
func TestInvalidConfig(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, tc := range []struct {
		body   string
		status int
	}{
		{`{"config":{"arch":"quantum"}}`, http.StatusBadRequest},
		{`{"config":{"degree":100,"stages":2}}`, http.StatusUnprocessableEntity},
		{`{"config":{"load":0.1,"op_rate":0.1}}`, http.StatusBadRequest},
		{`{"config":{"bogus_field":1}}`, http.StatusBadRequest},
		{`not json`, http.StatusBadRequest},
	} {
		resp, body := postRun(t, ts.URL, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d want %d (%s)", tc.body, resp.StatusCode, tc.status, body)
			continue
		}
		var e struct {
			Error APIError `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error.Code == "" {
			t.Errorf("%s: unstructured error %s", tc.body, body)
		}
	}
}

// TestExperimentStream drives POST /v1/experiment and checks the chunked
// JSON-line protocol: start, per-point progress, the rendered table, done.
func TestExperimentStream(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	resp, err := http.Post(ts.URL+"/v1/experiment", "application/json",
		strings.NewReader(`{"id":"a8","quick":true,"workers":2}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	jobID := resp.Header.Get("X-Mdwd-Job")

	var kinds []string
	var points, tables int
	var final StreamEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		kinds = append(kinds, ev.Type)
		switch ev.Type {
		case "point":
			points++
			if ev.Tag == "" || ev.Err != "" {
				t.Fatalf("bad point event: %+v", ev)
			}
		case "table":
			tables++
			if !strings.Contains(ev.Text, "A8") {
				t.Fatalf("table text: %q", ev.Text)
			}
		case "done":
			final = ev
		case "error":
			t.Fatalf("stream error: %+v", ev)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(kinds) == 0 || kinds[0] != "start" || kinds[len(kinds)-1] != "done" {
		t.Fatalf("stream shape: %v", kinds)
	}
	if points != 6 || tables != 1 { // quick a8: 3 schemes x 2 sizes
		t.Fatalf("points=%d tables=%d", points, tables)
	}
	if final.Points != points || final.Cycles <= 0 {
		t.Fatalf("done event: %+v", final)
	}

	// The sweep ran as a tracked job and its work reached the counters.
	jresp, err := http.Get(ts.URL + "/v1/jobs/" + jobID)
	if err != nil {
		t.Fatal(err)
	}
	var jv JobView
	if err := json.NewDecoder(jresp.Body).Decode(&jv); err != nil {
		t.Fatal(err)
	}
	jresp.Body.Close()
	if jv.State != JobDone || jv.Kind != "experiment" || jv.Detail != "a8" || jv.Points != points {
		t.Fatalf("job view: %+v", jv)
	}
	if got := metric(t, ts.URL, "mdwd_points_total"); got < int64(points) {
		t.Fatalf("points_total = %d < %d", got, points)
	}
}

// TestExperimentUnknownID rejects unregistered ids with 404.
func TestExperimentUnknownID(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Post(ts.URL+"/v1/experiment", "application/json",
		strings.NewReader(`{"id":"zz"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

// TestExperimentsList returns the registry in definition order.
func TestExperimentsList(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string][]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	ids := out["experiments"]
	if len(ids) < 19 || ids[0] != "e1" {
		t.Fatalf("experiments: %v", ids)
	}
}

// TestJobsEndpoint covers the job listing and the 404 path.
func TestJobsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	postRun(t, ts.URL, tinyRun(9))

	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var out map[string][]JobView
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(out["jobs"]) != 1 || out["jobs"][0].State != JobDone || out["jobs"][0].Kind != "run" {
		t.Fatalf("jobs: %+v", out["jobs"])
	}

	resp, err = http.Get(ts.URL + "/v1/jobs/j999")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d", resp.StatusCode)
	}
}

// TestDrainRejectsNewWork: after BeginDrain the daemon refuses new jobs and
// reports draining on /healthz, while completed state stays readable.
func TestDrainRejectsNewWork(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	postRun(t, ts.URL, tinyRun(11))
	s.BeginDrain()

	resp, body := postRun(t, ts.URL, tinyRun(12))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining run: %d %s", resp.StatusCode, body)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d", hresp.StatusCode)
	}
	// Read-only endpoints still serve.
	if got := metric(t, ts.URL, "mdwd_jobs_done"); got != 1 {
		t.Fatalf("jobs_done = %d", got)
	}
	if !s.Drain(10 * time.Second) {
		t.Fatal("drain did not complete")
	}
}

// TestRunTimeoutBackground: a handler that outwaits its deadline returns a
// structured 504 naming the job; the job finishes in the background and the
// repeated request is then served from the cache.
func TestRunTimeoutBackground(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, RunTimeout: time.Nanosecond})

	body := tinyRun(21)
	resp, b := postRun(t, ts.URL, body)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var e struct {
		Error APIError `json:"error"`
	}
	if err := json.Unmarshal(b, &e); err != nil || e.Error.Code != "timeout" || e.Error.Job == "" {
		t.Fatalf("timeout body: %s", b)
	}

	// The job keeps running and caches its result; the retry hits.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, b = postRun(t, ts.URL, body)
		if resp.StatusCode == http.StatusOK {
			if h := resp.Header.Get("X-Mdwd-Cache"); h != "hit" {
				t.Fatalf("retry not a cache hit: %q", h)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background job never cached: %d %s", resp.StatusCode, b)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunFaultPlanCached: a fault-injected run round-trips through the
// cache, and the structured and spec spellings of the same plan resolve to
// the same key — the plan is part of the canonical config.
func TestRunFaultPlanCached(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	spec := `{"config":{"stages":2,"degree":4,"warmup_cycles":200,"measure_cycles":800,"drain_cycles":50000,"op_rate":0.001,"seed":3,"faults_spec":"nic-stall@300+200:n3;link-down@400:sw0.p0"}}`
	resp1, body1 := postRun(t, ts.URL, spec)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("miss: %d %s", resp1.StatusCode, body1)
	}
	if h := resp1.Header.Get("X-Mdwd-Cache"); h != "miss" {
		t.Fatalf("first faulted request: X-Mdwd-Cache = %q", h)
	}
	var rr RunResponse
	if err := json.Unmarshal(body1, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Results.DestsDropped == 0 {
		t.Fatalf("severed attachment dropped nothing: %s", body1)
	}
	if rr.Results.InvariantViolations != 0 {
		t.Fatalf("faulted run violated invariants: %s", body1)
	}

	// The same plan, structured and in a different event order.
	structured := `{"config":{"stages":2,"degree":4,"warmup_cycles":200,"measure_cycles":800,"drain_cycles":50000,"op_rate":0.001,"seed":3,"faults":{"events":[{"kind":"link-down","at":400,"switch":0},{"kind":"nic-stall","at":300,"duration":200,"node":3}]}}}`
	resp2, body2 := postRun(t, ts.URL, structured)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("hit: %d %s", resp2.StatusCode, body2)
	}
	if h := resp2.Header.Get("X-Mdwd-Cache"); h != "hit" {
		t.Fatalf("structured spelling missed the cache: X-Mdwd-Cache = %q", h)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("faulted cache hit not byte-identical:\n%s\n%s", body1, body2)
	}

	// The fault-free config is a different key entirely.
	resp3, _ := postRun(t, ts.URL, tinyRun(3))
	if h := resp3.Header.Get("X-Mdwd-Cache"); h != "miss" {
		t.Fatalf("fault-free config shared the faulted key: X-Mdwd-Cache = %q", h)
	}
}

// TestRunDeadlockStructuredError: a config whose fault plan wedges the
// fabric returns a structured 422 deadlock error, surfaces in the deadlock
// counter, and leaves the pool fully usable.
func TestRunDeadlockStructuredError(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	// Permanently freeze every up port of stage-0 switch sw0: ascending
	// worms wedge and the watchdog converts the stall into a DeadlockError.
	wedge := `{"config":{"stages":2,"degree":4,"warmup_cycles":200,"measure_cycles":800,"drain_cycles":50000,"op_rate":0.01,"seed":3,"watchdog_limit":10000,"faults_spec":"port-stuck@300:sw0.p4;port-stuck@300:sw0.p5;port-stuck@300:sw0.p6;port-stuck@300:sw0.p7"}}`
	resp, body := postRun(t, ts.URL, wedge)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var e struct {
		Error APIError `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error.Code != "deadlock" || e.Error.Job == "" {
		t.Fatalf("error body: %s (%v)", body, err)
	}
	if !strings.Contains(e.Error.Message, "no progress") {
		t.Fatalf("deadlock message: %q", e.Error.Message)
	}
	if got := metric(t, ts.URL, "mdwd_deadlocks_total"); got != 1 {
		t.Fatalf("mdwd_deadlocks_total = %d", got)
	}
	// Failures are not cached: the retry runs again and fails the same way.
	resp, body = postRun(t, ts.URL, wedge)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("retry status %d: %s", resp.StatusCode, body)
	}
	// The job slot is free again: a healthy run still succeeds.
	resp, body = postRun(t, ts.URL, tinyRun(77))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pool poisoned by deadlock: %d %s", resp.StatusCode, body)
	}
	if got := metric(t, ts.URL, "mdwd_invariant_violations_total"); got != 0 {
		t.Fatalf("mdwd_invariant_violations_total = %d", got)
	}
}

// TestRunFaultErrors: malformed fault requests are structured client errors.
func TestRunFaultErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, tc := range []struct {
		body   string
		status int
		code   string
	}{
		// Both spellings at once.
		{`{"config":{"stages":2,"faults_spec":"link-down@1:sw0.p0","faults":{"events":[{"kind":"link-down","at":1}]}}}`,
			http.StatusBadRequest, "bad_config"},
		// Unparseable spec.
		{`{"config":{"stages":2,"faults_spec":"flood@10:sw0.p0"}}`,
			http.StatusBadRequest, "bad_config"},
		// Parseable but inapplicable: switch out of range for the fabric.
		{`{"config":{"stages":2,"faults_spec":"link-down@1:sw999.p0"}}`,
			http.StatusUnprocessableEntity, "invalid_config"},
		// cb-shrink beyond the floor of the default central buffer.
		{`{"config":{"stages":2,"faults_spec":"cb-shrink@1:sw0*8"}}`,
			http.StatusUnprocessableEntity, "invalid_config"},
	} {
		resp, body := postRun(t, ts.URL, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d want %d (%s)", tc.body, resp.StatusCode, tc.status, body)
			continue
		}
		var e struct {
			Error APIError `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error.Code != tc.code {
			t.Errorf("%s: error %s, want code %q", tc.body, body, tc.code)
		}
	}
}

// TestRunRejectsWideSwitch: a fabric whose switches exceed the 64-port bound
// of the switch models is an invalid config (422), not a job panic (500).
func TestRunRejectsWideSwitch(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, arch := range []string{"cb", "ib"} {
		body := `{"config":{"arity":33,"stages":1,"arch":"` + arch + `"}}`
		resp, got := postRun(t, ts.URL, body)
		var e struct {
			Error APIError `json:"error"`
		}
		if resp.StatusCode != http.StatusUnprocessableEntity ||
			json.Unmarshal(got, &e) != nil || e.Error.Code != "invalid_config" {
			t.Errorf("%s: %d %s, want 422 invalid_config", body, resp.StatusCode, got)
		}
	}
}

// TestMetricsPrometheusFormat: /metrics serves the Prometheus text exposition
// format — versioned content type, HELP/TYPE headers for every family, valid
// sample lines, and well-formed (cumulative) histograms — while keeping the
// historical metric names.
func TestMetricsPrometheusFormat(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	if resp, body := postRun(t, ts.URL, tinyRun(5)); resp.StatusCode != http.StatusOK {
		t.Fatalf("run: %d %s", resp.StatusCode, body)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Fatalf("content type %q, want %q", ct, obs.PromContentType)
	}

	types := map[string]string{}      // family -> TYPE
	samples := map[string]float64{}   // sample name (no labels) -> last value
	buckets := map[string][]float64{} // histogram family -> cumulative bucket counts
	sampleRe := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)
	typeRe := regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram)$`)
	helpRe := regexp.MustCompile(`^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) .+$`)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if m := typeRe.FindStringSubmatch(line); m != nil {
				types[m[1]] = m[2]
			} else if helpRe.MatchString(line) {
				// fine
			} else {
				t.Fatalf("malformed comment line: %q", line)
			}
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed sample line: %q", line)
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		samples[m[1]] = v
		// Every sample must belong to a declared family (histograms declare
		// the base name; samples append _bucket/_sum/_count).
		base := m[1]
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(m[1], suf) && types[strings.TrimSuffix(m[1], suf)] == "histogram" {
				base = strings.TrimSuffix(m[1], suf)
			}
		}
		if _, ok := types[base]; !ok {
			t.Fatalf("sample %q has no # TYPE declaration", m[1])
		}
		if strings.HasSuffix(m[1], "_bucket") {
			buckets[strings.TrimSuffix(m[1], "_bucket")] = append(buckets[strings.TrimSuffix(m[1], "_bucket")], v)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	// Historical names survive the format change.
	for name, typ := range map[string]string{
		"mdwd_up_seconds":             "gauge",
		"mdwd_workers":                "gauge",
		"mdwd_jobs_done":              "gauge",
		"mdwd_cache_hits":             "counter",
		"mdwd_points_total":           "counter",
		"mdwd_simulated_cycles_total": "counter",
		"mdwd_busy_seconds":           "counter",
		"mdwd_job_seconds":            "histogram",
		"mdwd_run_occupancy":          "histogram",
	} {
		if types[name] != typ {
			t.Errorf("%s: TYPE %q, want %q", name, types[name], typ)
		}
	}
	if samples["mdwd_points_total"] != 1 || samples["mdwd_jobs_done"] != 1 {
		t.Fatalf("counters after one run: points=%v done=%v",
			samples["mdwd_points_total"], samples["mdwd_jobs_done"])
	}

	// Histogram invariants: one observation, cumulative non-decreasing
	// buckets ending at _count, +Inf bucket == _count.
	for _, h := range []string{"mdwd_job_seconds", "mdwd_run_occupancy"} {
		count := samples[h+"_count"]
		bs := buckets[h]
		if len(bs) == 0 {
			t.Fatalf("%s: no buckets", h)
		}
		for i := 1; i < len(bs); i++ {
			if bs[i] < bs[i-1] {
				t.Fatalf("%s: buckets not cumulative: %v", h, bs)
			}
		}
		if bs[len(bs)-1] != count {
			t.Fatalf("%s: +Inf bucket %v != count %v", h, bs[len(bs)-1], count)
		}
	}
	if samples["mdwd_job_seconds_count"] != 1 {
		t.Fatalf("mdwd_job_seconds_count = %v after one job", samples["mdwd_job_seconds_count"])
	}
}

// TestRunRecordsOccupancy: a completed run feeds the occupancy histogram —
// the per-job peak lands in /metrics without any observability request.
func TestRunRecordsOccupancy(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	// A higher-rate run so the coarse 256-cycle probe catches non-empty
	// buffers deterministically.
	body := `{"config":{"stages":2,"degree":4,"warmup_cycles":200,"measure_cycles":800,"drain_cycles":50000,"op_rate":0.01,"seed":3}}`
	if resp, b := postRun(t, ts.URL, body); resp.StatusCode != http.StatusOK {
		t.Fatalf("run: %d %s", resp.StatusCode, b)
	}
	_, occ := s.pool.Histograms()
	if occ.N() != 1 || occ.Sum() <= 0 {
		t.Fatalf("occupancy histogram after one busy run: n=%d sum=%g", occ.N(), occ.Sum())
	}
}

// TestCacheDirSharedAcrossServers: with -cache-dir, a second daemon serves
// the first daemon's results byte-identically.
func TestCacheDirSharedAcrossServers(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := newTestServer(t, Config{Workers: 1, CacheDir: dir})
	resp, body1 := postRun(t, ts1.URL, tinyRun(31))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("miss: %d %s", resp.StatusCode, body1)
	}

	_, ts2 := newTestServer(t, Config{Workers: 1, CacheDir: dir})
	resp, body2 := postRun(t, ts2.URL, tinyRun(31))
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Mdwd-Cache") != "hit" {
		t.Fatalf("restart hit: %d %q", resp.StatusCode, resp.Header.Get("X-Mdwd-Cache"))
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("persisted result not byte-identical")
	}
}
