package service

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
)

// testTenants is the three-tenant table the auth tests share: alpha has a
// deep queue cap, beta a shallow one (the Retry-After regression needs the
// asymmetry), gamma a higher weight and priority.
func testTenants(t *testing.T) *TenantSet {
	t.Helper()
	ts, err := ParseTenants([]byte(
		"key-a alpha 1 max-queued=4\n" +
			"key-b beta 1 max-queued=1\n" +
			"key-c gamma 2 priority=3\n"))
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// authedDo sends a request with an optional Bearer key and returns the
// response plus its body.
func authedDo(t *testing.T, method, url, key, body string) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := http.DefaultClient.Do(req)
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

// errCode digs the structured code out of an apiError body.
func errCode(t *testing.T, body []byte) string {
	t.Helper()
	var e struct {
		Error APIError `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("not an apiError body: %v (%s)", err, body)
	}
	return e.Error.Code
}

// TestAuthRejectsBadCredentials: with tenants configured, every missing,
// malformed, or unknown credential is a structured 401 with a
// WWW-Authenticate challenge — on job submission and listing alike.
func TestAuthRejectsBadCredentials(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Tenants: testTenants(t)})

	cases := []struct {
		name   string
		header string
	}{
		{"missing", ""},
		{"wrong-scheme", "Basic a2V5LWE="},
		{"empty-key", "Bearer "},
		{"no-space", "Bearerkey-a"},
		{"unknown-key", "Bearer key-z"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/run", strings.NewReader(tinyRun(400)))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			if c.header != "" {
				req.Header.Set("Authorization", c.header)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusUnauthorized {
				t.Fatalf("status %d, want 401 (body %s)", resp.StatusCode, body)
			}
			if got := resp.Header.Get("WWW-Authenticate"); !strings.Contains(got, "Bearer") {
				t.Fatalf("WWW-Authenticate = %q, want a Bearer challenge", got)
			}
			if code := errCode(t, body); code != "unauthorized" {
				t.Fatalf("error code %q, want %q", code, "unauthorized")
			}
		})
	}

	// Listings are gated the same way.
	resp, _ := authedDo(t, http.MethodGet, ts.URL+"/v1/jobs", "", "")
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated /v1/jobs: status %d, want 401", resp.StatusCode)
	}

	// And a valid key clears the gate.
	resp, body := authedDo(t, http.MethodPost, ts.URL+"/v1/run", "key-a", tinyRun(401))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("authed run: status %d (body %s)", resp.StatusCode, body)
	}
}

// TestTenantScopedJobs: each tenant lists and fetches only its own jobs;
// another tenant's job id answers 404, not 403 (existence would leak
// traffic shape through the sequential ids).
func TestTenantScopedJobs(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Tenants: testTenants(t)})

	resp, body := authedDo(t, http.MethodPost, ts.URL+"/v1/run", "key-a", tinyRun(411))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("alpha run: status %d (body %s)", resp.StatusCode, body)
	}
	alphaJob := resp.Header.Get("X-Mdwd-Job")
	resp, body = authedDo(t, http.MethodPost, ts.URL+"/v1/run", "key-b", tinyRun(412))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("beta run: status %d (body %s)", resp.StatusCode, body)
	}
	betaJob := resp.Header.Get("X-Mdwd-Job")
	if alphaJob == "" || betaJob == "" {
		t.Fatalf("missing X-Mdwd-Job headers (alpha %q, beta %q)", alphaJob, betaJob)
	}

	resp, body = authedDo(t, http.MethodGet, ts.URL+"/v1/jobs", "key-a", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("alpha jobs: status %d", resp.StatusCode)
	}
	var listing struct {
		Jobs []JobView `json:"jobs"`
	}
	if err := json.Unmarshal(body, &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Jobs) != 1 {
		t.Fatalf("alpha sees %d jobs, want only its own 1: %s", len(listing.Jobs), body)
	}
	if v := listing.Jobs[0]; v.ID != alphaJob || v.Tenant != "alpha" {
		t.Fatalf("alpha's listing = %+v, want job %s tenant alpha", v, alphaJob)
	}

	// Cross-tenant fetch reads as nonexistent.
	resp, body = authedDo(t, http.MethodGet, ts.URL+"/v1/jobs/"+betaJob, "key-a", "")
	if resp.StatusCode != http.StatusNotFound || errCode(t, body) != "unknown_job" {
		t.Fatalf("cross-tenant job fetch: status %d code %s, want 404 unknown_job", resp.StatusCode, body)
	}
	// The owner still sees it.
	resp, body = authedDo(t, http.MethodGet, ts.URL+"/v1/jobs/"+betaJob, "key-b", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("owner job fetch: status %d (body %s)", resp.StatusCode, body)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if v.Tenant != "beta" {
		t.Fatalf("beta's job view tenant = %q", v.Tenant)
	}
}

// TestAnonymousModeOmitsTenantSurface: without a tenants file the API is
// byte-compatible with the pre-tenant daemon — no auth demanded, no "tenant"
// key in job views, no mdwd_tenant_* metric families.
func TestAnonymousModeOmitsTenantSurface(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	resp, body := postRun(t, ts.URL, tinyRun(421))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: status %d (body %s)", resp.StatusCode, body)
	}
	resp, body = authedDo(t, http.MethodGet, ts.URL+"/v1/jobs", "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/jobs: status %d", resp.StatusCode)
	}
	if strings.Contains(string(body), `"tenant"`) {
		t.Fatalf("anonymous job listing leaks a tenant field: %s", body)
	}
	resp, body = authedDo(t, http.MethodGet, ts.URL+"/metrics", "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	if strings.Contains(string(body), "mdwd_tenant_") {
		t.Fatal("anonymous /metrics exposes mdwd_tenant_* families")
	}
}

// TestTenantMetricsFamilies: multi-tenant mode labels per-tenant gauges for
// every configured tenant (zeros included) and accounts cache hits/misses to
// the requesting tenant.
func TestTenantMetricsFamilies(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Tenants: testTenants(t)})

	// Same config twice: one miss (simulated), one hit (served from cache).
	for i := 0; i < 2; i++ {
		resp, body := authedDo(t, http.MethodPost, ts.URL+"/v1/run", "key-a", tinyRun(431))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d: status %d (body %s)", i, resp.StatusCode, body)
		}
	}

	_, body := authedDo(t, http.MethodGet, ts.URL+"/metrics", "", "")
	text := string(body)
	for _, want := range []string{
		`mdwd_tenant_weight{tenant="alpha"} 1`,
		`mdwd_tenant_weight{tenant="gamma"} 2`,
		`mdwd_tenant_priority{tenant="gamma"} 3`,
		`mdwd_tenant_jobs_completed{tenant="alpha"} 1`,
		`mdwd_tenant_jobs_completed{tenant="beta"} 0`,
		`mdwd_tenant_cache_hits{tenant="alpha"} 1`,
		`mdwd_tenant_cache_misses{tenant="alpha"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestRetryAfterAsymmetricRegression pins the bugfix end to end: two tenants
// rejected over quota at the same instant get Retry-After values computed
// from their own queues — 4-deep alpha must be told to wait longer than
// 1-deep beta, where the old global estimate answered both identically.
func TestRetryAfterAsymmetricRegression(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Backlog: 100, Tenants: testTenants(t)})

	gate := make(chan struct{})
	if _, err := s.pool.Submit("run", "gate", func() (JobStats, error) {
		<-gate
		return JobStats{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { close(gate) }) // runs before newTestServer's drain
	waitCount(t, s.pool, JobRunning, 1)

	// Fill each tenant to its queue cap behind the gate: alpha 4 deep,
	// beta 1 deep.
	noop := func() (JobStats, error) { return JobStats{}, nil }
	alpha, beta := s.cfg.Tenants.ByName("alpha"), s.cfg.Tenants.ByName("beta")
	for i := 0; i < alpha.MaxQueued; i++ {
		if _, err := s.pool.SubmitTenant("run", "a"+strconv.Itoa(i), alpha, noop); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.pool.SubmitTenant("run", "b0", beta, noop); err != nil {
		t.Fatal(err)
	}

	retryAfter := func(key string, seed uint64) int {
		resp, body := authedDo(t, http.MethodPost, ts.URL+"/v1/run", key, tinyRun(seed))
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("%s over quota: status %d, want 429 (body %s)", key, resp.StatusCode, body)
		}
		if code := errCode(t, body); code != "quota" {
			t.Fatalf("%s over quota: code %q, want %q", key, code, "quota")
		}
		secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
		if err != nil {
			t.Fatalf("%s Retry-After header %q: %v", key, resp.Header.Get("Retry-After"), err)
		}
		return secs
	}
	ra, rb := retryAfter("key-a", 441), retryAfter("key-b", 442)
	if ra <= rb {
		t.Fatalf("Retry-After alpha=%ds beta=%ds: the 4-deep tenant must be told to wait longer than the 1-deep one", ra, rb)
	}
}
