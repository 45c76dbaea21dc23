package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"mdworm/internal/service"
)

// The front-door suite: a single daemon and a cluster coordinator must answer
// every request step the two modes share with the same status, headers and
// bytes, and differ only where the modes differ on purpose (drain).

const frontDoorTenants = `
fd-key-alpha alpha 1
fd-key-beta  beta  2
`

func parseTenants(t *testing.T, text string) *service.TenantSet {
	t.Helper()
	ts, err := service.ParseTenants([]byte(text))
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// frontDoorReq is one request shape; status is the answer both modes give.
type frontDoorReq struct {
	name, method, path, body string
	auth                     string // Authorization header value ("" = none)
	status                   int
}

// send issues one request and returns the response with its body read.
func send(t *testing.T, base string, q frontDoorReq) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(q.method, base+q.path, strings.NewReader(q.body))
	if err != nil {
		t.Fatal(err)
	}
	if q.auth != "" {
		req.Header.Set("Authorization", q.auth)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// frontDoorErr is the structured error body, decoded field by field.
type frontDoorErr struct {
	Error struct {
		Code              string `json:"code"`
		Message           string `json:"message"`
		Job               string `json:"job"`
		RetryAfterSeconds int    `json:"retry_after_seconds"`
		Retryable         bool   `json:"retryable"`
	} `json:"error"`
}

func decodeErr(t *testing.T, body []byte) frontDoorErr {
	t.Helper()
	var e frontDoorErr
	if err := json.Unmarshal(body, &e); err != nil || e.Error.Code == "" {
		t.Fatalf("not a structured error body: %v (%s)", err, body)
	}
	return e
}

// scrape returns a /metrics exposition.
func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, body := send(t, base, frontDoorReq{method: http.MethodGet, path: "/metrics"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %s", resp.Status)
	}
	return string(body)
}

// TestFrontDoorParity sends one table of requests to a daemon and to a
// coordinator, without and with tenants, and requires the same status,
// Content-Type, WWW-Authenticate and body bytes from both.
func TestFrontDoorParity(t *testing.T) {
	const (
		post = http.MethodPost
		get  = http.MethodGet
	)
	token := service.NewStreamToken()
	shared := []frontDoorReq{
		{name: "run/bad-json", method: post, path: "/v1/run", body: `{`, status: 400},
		{name: "run/unknown-field", method: post, path: "/v1/run", body: `{"config":{},"bogus":1}`, status: 400},
		{name: "run/bad-config", method: post, path: "/v1/run", body: `{"config":{"arch":"nope"}}`, status: 400},
		{name: "run/invalid-config", method: post, path: "/v1/run",
			body: `{"config":{"stages":2,"faults_spec":"link-down@1:sw999.p0"}}`, status: 422},
		{name: "experiment/bad-json", method: post, path: "/v1/experiment", body: `{`, status: 400},
		{name: "experiment/unknown", method: post, path: "/v1/experiment", body: `{"id":"zz"}`, status: 404},
		{name: "experiment/bad-stream", method: post, path: "/v1/experiment",
			body: `{"id":"e1","stream":"nope"}`, status: 400},
		{name: "experiment/bad-cursor", method: post, path: "/v1/experiment",
			body: fmt.Sprintf(`{"id":"e1","stream":%q,"after_seq":-1}`, token), status: 400},
		{name: "experiments", method: get, path: "/v1/experiments", status: 200},
		{name: "healthz", method: get, path: "/healthz", status: 200},
	}
	authOnly := []frontDoorReq{
		{name: "run/missing-key", method: post, path: "/v1/run", body: tinyRunBody(1), status: 401},
		{name: "run/malformed-key", method: post, path: "/v1/run", body: tinyRunBody(1), auth: "Bearer", status: 401},
		{name: "run/unknown-key", method: post, path: "/v1/run", body: tinyRunBody(1), auth: "Bearer nope", status: 401},
		{name: "experiment/missing-key", method: post, path: "/v1/experiment",
			body: `{"id":"e1","quick":true}`, status: 401},
	}
	for _, mode := range []struct {
		name    string
		tenants *service.TenantSet
	}{
		{"single-tenant", nil},
		{"multi-tenant", parseTenants(t, frontDoorTenants)},
	} {
		t.Run(mode.name, func(t *testing.T) {
			_, daemon := startWorker(t, service.Config{Workers: 1, Tenants: mode.tenants})
			_, coord := startCoordinator(t, Config{Tenants: mode.tenants})
			reqs := shared
			if mode.tenants != nil {
				reqs = nil
				for _, q := range shared {
					q.auth = "Bearer fd-key-alpha"
					reqs = append(reqs, q)
				}
				reqs = append(reqs, authOnly...)
			}
			for _, q := range reqs {
				dr, dbody := send(t, daemon.URL, q)
				cr, cbody := send(t, coord.URL, q)
				if dr.StatusCode != q.status || cr.StatusCode != q.status {
					t.Errorf("%s: status daemon %d, coordinator %d, want %d", q.name, dr.StatusCode, cr.StatusCode, q.status)
				}
				for _, h := range []string{"Content-Type", "WWW-Authenticate"} {
					if d, c := dr.Header.Get(h), cr.Header.Get(h); d != c {
						t.Errorf("%s: %s daemon %q, coordinator %q", q.name, h, d, c)
					}
				}
				if !bytes.Equal(dbody, cbody) {
					t.Errorf("%s: bodies differ:\ndaemon:      %s\ncoordinator: %s", q.name, dbody, cbody)
				}
			}
		})
	}
}

// TestFrontDoorDrain pins the drain answers, which differ by mode on purpose:
// a draining daemon still authenticates first and rejects at submission with
// its pool's Retry-After estimate; a draining coordinator rejects before
// authentication with Retry-After: 1.
func TestFrontDoorDrain(t *testing.T) {
	ts := parseTenants(t, frontDoorTenants)
	s, daemon := startWorker(t, service.Config{Workers: 1, Tenants: ts})
	c, coord := startCoordinator(t, Config{Tenants: ts})
	s.BeginDrain()
	c.BeginDrain()
	submissions := []frontDoorReq{
		{method: http.MethodPost, path: "/v1/run", body: tinyRunBody(5)},
		{method: http.MethodPost, path: "/v1/experiment", body: `{"id":"e1","quick":true}`},
	}

	for _, q := range submissions {
		if resp, body := send(t, daemon.URL, q); resp.StatusCode != http.StatusUnauthorized {
			t.Errorf("daemon %s without a key while draining: %d %s, want 401", q.path, resp.StatusCode, body)
		}
		q.auth = "Bearer fd-key-alpha"
		resp, body := send(t, daemon.URL, q)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("daemon %s while draining: %d %s, want 503", q.path, resp.StatusCode, body)
		}
		e := decodeErr(t, body)
		secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
		if err != nil || secs < 1 {
			t.Errorf("daemon %s: Retry-After %q", q.path, resp.Header.Get("Retry-After"))
		}
		if e.Error.Code != "draining" || e.Error.Message != "service: draining, not accepting new jobs" ||
			e.Error.RetryAfterSeconds != secs || !e.Error.Retryable {
			t.Errorf("daemon %s drain body: %s", q.path, body)
		}
	}

	const coordDrain = `{"error":{"code":"draining","message":"coordinator is draining","retry_after_seconds":1,"retryable":true}}` + "\n"
	for _, q := range submissions {
		for _, auth := range []string{"", "Bearer nope", "Bearer fd-key-alpha"} {
			q.auth = auth
			resp, body := send(t, coord.URL, q)
			if resp.StatusCode != http.StatusServiceUnavailable || string(body) != coordDrain ||
				resp.Header.Get("Retry-After") != "1" {
				t.Errorf("coordinator %s (auth %q) while draining: %d Retry-After %q %s",
					q.path, auth, resp.StatusCode, resp.Header.Get("Retry-After"), body)
			}
		}
	}

	for _, base := range []string{daemon.URL, coord.URL} {
		resp, body := send(t, base, frontDoorReq{method: http.MethodGet, path: "/healthz"})
		if resp.StatusCode != http.StatusServiceUnavailable || string(body) != "draining\n" {
			t.Errorf("%s/healthz while draining: %d %q", base, resp.StatusCode, body)
		}
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || secs < 1 {
			t.Errorf("%s/healthz Retry-After %q", base, resp.Header.Get("Retry-After"))
		}
	}
	if resp, _ := send(t, coord.URL, frontDoorReq{method: http.MethodGet, path: "/healthz"}); resp.Header.Get("Retry-After") != "1" {
		t.Errorf("coordinator /healthz Retry-After %q, want 1", resp.Header.Get("Retry-After"))
	}
}

// TestCoordinatorTenantsEndToEnd: a multi-tenant coordinator over a worker
// with a tenants file of its own authenticates its clients, counts their runs
// per tenant, and dispatches with its worker key. Without the key, the
// worker's 401 reaches the client as run_failed: the fleet is misconfigured,
// the client's config is not at fault.
func TestCoordinatorTenantsEndToEnd(t *testing.T) {
	_, w := startWorker(t, service.Config{Tenants: parseTenants(t, "fd-worker-key fleet 4\n")})
	_, coord := startCoordinator(t, Config{Peers: []string{w.URL},
		Tenants: parseTenants(t, frontDoorTenants), WorkerKey: "fd-worker-key"})
	run := frontDoorReq{method: http.MethodPost, path: "/v1/run", body: tinyRunBody(21), auth: "Bearer fd-key-alpha"}
	for _, want := range []string{"miss", "hit"} {
		resp, body := send(t, coord.URL, run)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run with key alpha: %s: %s", resp.Status, body)
		}
		if got := resp.Header.Get("X-Mdwd-Cache"); got != want {
			t.Errorf("X-Mdwd-Cache = %q, want %q", got, want)
		}
	}
	metrics := scrape(t, coord.URL)
	for _, line := range []string{
		`mdwd_tenant_runs_total{tenant="alpha"} 2`,
		`mdwd_tenant_cache_hits{tenant="alpha"} 1`,
		`mdwd_tenant_cache_misses{tenant="alpha"} 1`,
	} {
		if !strings.Contains(metrics, "\n"+line+"\n") {
			t.Errorf("coordinator /metrics lacks %q", line)
		}
	}
	if !strings.Contains(scrape(t, w.URL), "\n"+`mdwd_tenant_points_total{tenant="fleet"} 1`+"\n") {
		t.Errorf("worker /metrics does not attribute the shard to the coordinator's tenant")
	}

	_, keyless := startCoordinator(t, Config{Peers: []string{w.URL}, Tenants: parseTenants(t, frontDoorTenants)})
	run.body = tinyRunBody(22)
	resp, body := send(t, keyless.URL, run)
	if resp.StatusCode != http.StatusUnprocessableEntity || decodeErr(t, body).Error.Code != "run_failed" {
		t.Fatalf("run without a worker key: %d %s, want 422 run_failed", resp.StatusCode, body)
	}
}
