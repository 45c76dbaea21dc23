package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mdworm/internal/core"
	"mdworm/internal/experiments"
	"mdworm/internal/service"
)

// startWorker spins up one in-process worker daemon behind httptest.
func startWorker(t *testing.T, cfg service.Config) (*service.Server, *httptest.Server) {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	s, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Drain(10 * time.Second)
	})
	return s, ts
}

// startCoordinator spins up a coordinator over the given peer URLs.
func startCoordinator(t *testing.T, cfg Config) (*Coordinator, *httptest.Server) {
	t.Helper()
	if cfg.HeartbeatEvery == 0 {
		cfg.HeartbeatEvery = 100 * time.Millisecond
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		ts.Close()
		c.Close()
	})
	return c, ts
}

func tinyRunBody(seed uint64) string {
	return fmt.Sprintf(`{"config":{"stages":2,"degree":4,"warmup_cycles":200,"measure_cycles":800,"drain_cycles":50000,"op_rate":0.001,"seed":%d}}`, seed)
}

func postRun(t *testing.T, base, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestClusterRunByteIdentical: a /v1/run through the coordinator returns the
// byte-identical body a worker returns directly, and repeats hit the
// coordinator's cache.
func TestClusterRunByteIdentical(t *testing.T) {
	_, w1 := startWorker(t, service.Config{})
	_, coord := startCoordinator(t, Config{Peers: []string{w1.URL}})

	resp, direct := postRun(t, w1.URL, tinyRunBody(7))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("direct run: %s: %s", resp.Status, direct)
	}
	resp, merged := postRun(t, coord.URL, tinyRunBody(7))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("coordinated run: %s: %s", resp.Status, merged)
	}
	if !bytes.Equal(direct, merged) {
		t.Fatalf("coordinator body differs from worker body:\n%s\nvs\n%s", merged, direct)
	}
	resp, again := postRun(t, coord.URL, tinyRunBody(7))
	if resp.Header.Get("X-Mdwd-Cache") != "hit" {
		t.Errorf("second coordinated run: cache = %q, want hit", resp.Header.Get("X-Mdwd-Cache"))
	}
	if !bytes.Equal(direct, again) {
		t.Fatalf("cached coordinator body differs from worker body")
	}
}

// TestClusterRunLocalFallback: with no peers at all the coordinator runs the
// shard itself and still answers byte-identically.
func TestClusterRunLocalFallback(t *testing.T) {
	_, w1 := startWorker(t, service.Config{})
	_, coord := startCoordinator(t, Config{})

	resp, direct := postRun(t, w1.URL, tinyRunBody(9))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("direct run: %s: %s", resp.Status, direct)
	}
	resp, local := postRun(t, coord.URL, tinyRunBody(9))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fallback run: %s: %s", resp.Status, local)
	}
	if !bytes.Equal(direct, local) {
		t.Fatalf("local-fallback body differs from worker body")
	}
}

// streamExperiment posts one experiment and returns the ordered point tags,
// the concatenated table text, and the done event.
func streamExperiment(t *testing.T, base, id string) (tags []string, tableText string, done service.StreamEvent) {
	t.Helper()
	body := fmt.Sprintf(`{"id":%q,"quick":true}`, id)
	resp, err := http.Post(base+"/v1/experiment", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var tables strings.Builder
	for sc.Scan() {
		var ev service.StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		switch ev.Type {
		case "point":
			if ev.Err != "" {
				t.Fatalf("point %s failed: %s", ev.Tag, ev.Err)
			}
			tags = append(tags, ev.Tag)
		case "table":
			tables.WriteString(ev.Text)
		case "done":
			done = ev
		case "error":
			t.Fatalf("experiment failed: %s", ev.Err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return tags, tables.String(), done
}

// TestClusterExperimentByteIdentical: an experiment sharded across two
// workers renders the byte-identical tables a single daemon renders, and the
// merged point stream arrives in deterministic table order.
func TestClusterExperimentByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick sweep")
	}
	_, single := startWorker(t, service.Config{Workers: 4})
	_, w1 := startWorker(t, service.Config{Workers: 2})
	_, w2 := startWorker(t, service.Config{Workers: 2})
	c, coord := startCoordinator(t, Config{Peers: []string{w1.URL, w2.URL}})

	wantTags, wantTables, wantDone := streamExperiment(t, single.URL, "e1")
	gotTags, gotTables, gotDone := streamExperiment(t, coord.URL, "e1")
	if gotTables != wantTables {
		t.Fatalf("cluster tables differ from single-node tables:\n--- cluster ---\n%s\n--- single ---\n%s", gotTables, wantTables)
	}
	if gotDone.Points != wantDone.Points || gotDone.Cycles != wantDone.Cycles {
		t.Errorf("done event: cluster points=%d cycles=%d, single points=%d cycles=%d",
			gotDone.Points, gotDone.Cycles, wantDone.Points, wantDone.Cycles)
	}
	if len(gotTags) != len(wantTags) {
		t.Fatalf("cluster streamed %d point events, single node %d", len(gotTags), len(wantTags))
	}
	// Deterministic stream order: the merged point order must be exactly the
	// planned table order, independent of shard completion order.
	planned, err := experiments.Plan([]string{"e1"}, experiments.Options{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := experiments.PlannedTags(planned); !slicesEqual(gotTags, want) {
		t.Fatalf("cluster point order %v, planned order %v", gotTags, want)
	}
	// Both workers should have carried shards: consistent hashing spreads 9
	// distinct config hashes across 2 peers with overwhelming probability.
	views := c.peers.Views()
	for _, v := range views {
		if v.Dispatched == 0 {
			t.Errorf("peer %s never received a shard", v.URL)
		}
	}
}

func slicesEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// deadPeer is an endpoint that passes health probes but aborts every
// /v1/run connection — the shape of a worker that dies the moment work
// lands on it.
func deadPeer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			fmt.Fprintln(w, "ok")
			return
		}
		hj, ok := w.(http.Hijacker)
		if !ok {
			t.Fatal("no hijacker")
		}
		conn, _, err := hj.Hijack()
		if err != nil {
			t.Fatal(err)
		}
		conn.Close()
	}))
	t.Cleanup(ts.Close)
	return ts
}

// seedOwnedBy searches for a tiny-run seed whose config hash the given peer
// owns on a ring of the given members.
func seedOwnedBy(t *testing.T, owner string, members []string) (uint64, string) {
	t.Helper()
	ring := NewRing(0)
	for _, m := range members {
		ring.Add(m)
	}
	for seed := uint64(1); seed < 200; seed++ {
		var req service.RunRequest
		if err := json.Unmarshal([]byte(tinyRunBody(seed)), &req); err != nil {
			t.Fatal(err)
		}
		cfg, err := req.Config.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		hash, _, err := service.Hash(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ring.Owner(hash) == owner {
			return seed, hash
		}
	}
	t.Fatal("no seed found whose shard the peer owns")
	return 0, ""
}

// TestClusterMigration: a shard whose ring owner aborts the connection
// migrates to the surviving peer and still returns the byte-identical
// result.
func TestClusterMigration(t *testing.T) {
	dead := deadPeer(t)
	_, live := startWorker(t, service.Config{})
	c, coord := startCoordinator(t, Config{Peers: []string{dead.URL, live.URL}})

	seed, _ := seedOwnedBy(t, dead.URL, []string{dead.URL, live.URL})
	resp, direct := postRun(t, live.URL, tinyRunBody(seed))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("direct run: %s: %s", resp.Status, direct)
	}
	resp, merged := postRun(t, coord.URL, tinyRunBody(seed))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("coordinated run: %s: %s", resp.Status, merged)
	}
	if !bytes.Equal(direct, merged) {
		t.Fatalf("migrated shard result differs from direct result")
	}
	if c.migrations.Load() == 0 {
		t.Errorf("migration counter is 0 after a dead-owner dispatch")
	}
}

// TestClusterHedge: a shard stuck on a slow owner is hedged onto the next
// ring successor after HedgeAfter, and the hedge's result wins.
func TestClusterHedge(t *testing.T) {
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			fmt.Fprintln(w, "ok")
			return
		}
		time.Sleep(5 * time.Second)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	t.Cleanup(slow.Close)
	_, live := startWorker(t, service.Config{})
	c, coord := startCoordinator(t, Config{
		Peers:      []string{slow.URL, live.URL},
		HedgeAfter: 100 * time.Millisecond,
	})

	seed, _ := seedOwnedBy(t, slow.URL, []string{slow.URL, live.URL})
	resp, direct := postRun(t, live.URL, tinyRunBody(seed))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("direct run: %s: %s", resp.Status, direct)
	}
	start := time.Now()
	resp, merged := postRun(t, coord.URL, tinyRunBody(seed))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("coordinated run: %s: %s", resp.Status, merged)
	}
	if !bytes.Equal(direct, merged) {
		t.Fatalf("hedged shard result differs from direct result")
	}
	if elapsed := time.Since(start); elapsed > 4*time.Second {
		t.Errorf("hedge did not win: run took %s (slow peer holds for 5s)", elapsed)
	}
	if c.hedges.Load() != 1 {
		t.Errorf("hedge counter = %d, want 1", c.hedges.Load())
	}
}

// TestClusterResumeBlobOverWire: a worker accepts a checkpoint blob in the
// run request and the resumed result is byte-identical to a scratch run —
// the wire form of shard migration. A blob whose embedded config mismatches
// the request degrades to scratch, never a wrong answer.
func TestClusterResumeBlobOverWire(t *testing.T) {
	_, w1 := startWorker(t, service.Config{})

	var req service.RunRequest
	if err := json.Unmarshal([]byte(tinyRunBody(11)), &req); err != nil {
		t.Fatal(err)
	}
	cfg, err := req.Config.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	_, canon, err := service.Hash(cfg)
	if err != nil {
		t.Fatal(err)
	}
	crashed, err := core.New(canon)
	if err != nil {
		t.Fatal(err)
	}
	var blob []byte
	crashed.RunCheckpointed(500, func(data []byte, cycle int64) error {
		blob = data
		return fmt.Errorf("crash")
	})
	if blob == nil {
		t.Fatal("no checkpoint taken")
	}

	resp, scratch := postRun(t, w1.URL, tinyRunBody(11))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scratch run: %s: %s", resp.Status, scratch)
	}

	// A second worker (cold cache) resumes from the blob.
	_, w2 := startWorker(t, service.Config{})
	body, err := json.Marshal(service.RunRequest{RawConfig: &canon, Resume: blob})
	if err != nil {
		t.Fatal(err)
	}
	resp, resumed := postRun(t, w2.URL, string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resumed run: %s: %s", resp.Status, resumed)
	}
	if !bytes.Equal(scratch, resumed) {
		t.Fatalf("resumed result differs from scratch result")
	}

	// Mismatched blob: same blob, different config. Must degrade to scratch.
	var req2 service.RunRequest
	if err := json.Unmarshal([]byte(tinyRunBody(12)), &req2); err != nil {
		t.Fatal(err)
	}
	cfg2, err := req2.Config.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	_, canon2, err := service.Hash(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	resp, direct2 := postRun(t, w1.URL, tinyRunBody(12))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("direct run 2: %s", resp.Status)
	}
	body2, err := json.Marshal(service.RunRequest{RawConfig: &canon2, Resume: blob})
	if err != nil {
		t.Fatal(err)
	}
	_, w3 := startWorker(t, service.Config{})
	resp, mismatched := postRun(t, w3.URL, string(body2))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mismatched-resume run: %s: %s", resp.Status, mismatched)
	}
	if !bytes.Equal(direct2, mismatched) {
		t.Fatalf("mismatched-blob run differs from scratch run (blob was not rejected)")
	}
}

// TestClusterJoinAndStatus: a worker joining at runtime lands on the ring
// and in /v1/cluster/status; bad joins are rejected.
func TestClusterJoinAndStatus(t *testing.T) {
	_, w1 := startWorker(t, service.Config{})
	_, coord := startCoordinator(t, Config{})

	resp, err := http.Post(coord.URL+"/v1/cluster/join", "application/json",
		strings.NewReader(fmt.Sprintf(`{"peer":%q}`, w1.URL)))
	if err != nil {
		t.Fatal(err)
	}
	var jr JoinResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(jr.Peers) != 1 || jr.Peers[0] != w1.URL {
		t.Fatalf("join response peers = %v, want [%s]", jr.Peers, w1.URL)
	}

	resp, err = http.Get(coord.URL + "/v1/cluster/status")
	if err != nil {
		t.Fatal(err)
	}
	var st StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.HealthyPeers != 1 || len(st.Peers) != 1 || !st.Peers[0].Healthy {
		t.Fatalf("status after join: %+v", st)
	}

	resp, err = http.Post(coord.URL+"/v1/cluster/join", "application/json",
		strings.NewReader(`{"peer":"not-a-url"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad join: status %d, want 400", resp.StatusCode)
	}
}

// TestCoordinatorJournalExactlyOnce: every shard of a coordinated sweep gets
// exactly one terminal journal record, and the job-level records close out.
func TestCoordinatorJournalExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	_, w1 := startWorker(t, service.Config{})
	_, coord := startCoordinator(t, Config{Peers: []string{w1.URL}, CacheDir: dir})

	resp, body := postRun(t, coord.URL, tinyRunBody(21))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: %s: %s", resp.Status, body)
	}
	hash := resp.Header.Get("X-Mdwd-Hash")
	if hash == "" {
		t.Fatal("no X-Mdwd-Hash header")
	}

	recs := readJournal(t, dir)
	counts := map[string]int{}
	for _, r := range recs {
		counts[r.Kind+"/"+r.JobKind+"/"+r.Hash]++
	}
	if n := counts[recShardDone+"/shard/"+hash]; n != 1 {
		t.Errorf("shard done records for %s: %d, want 1\njournal: %+v", hash, n, recs)
	}
	if n := counts["done/run/"+hash]; n != 1 {
		t.Errorf("job done records for %s: %d, want 1", hash, n)
	}
}

// TestCoordinatorCacheEntries: the merged-result cache is bounded by
// CacheEntries; 1024 is only the default for a value below 1.
func TestCoordinatorCacheEntries(t *testing.T) {
	_, coord := startCoordinator(t, Config{CacheEntries: 2})
	for seed := uint64(51); seed <= 53; seed++ {
		if resp, body := postRun(t, coord.URL, tinyRunBody(seed)); resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d: %s: %s", seed, resp.Status, body)
		}
	}
	if m := scrape(t, coord.URL); !strings.Contains(m, "\nmdwd_cache_entries 2\n") {
		t.Errorf("three distinct runs through a 2-entry cache:\n%s", m)
	}
}

// TestCoordinatorRunDeadlockStructuredError: a worker's deadlock verdict on a
// config reaches the coordinator's client with the worker's code and message
// (no worker job id), while the journal keeps the dispatch error string.
func TestCoordinatorRunDeadlockStructuredError(t *testing.T) {
	dir := t.TempDir()
	_, w1 := startWorker(t, service.Config{Workers: 1})
	_, coord := startCoordinator(t, Config{Peers: []string{w1.URL}, CacheDir: dir})
	// Every up port of stage-0 switch sw0 freezes: the watchdog reports a
	// deadlock.
	wedge := `{"config":{"stages":2,"degree":4,"warmup_cycles":200,"measure_cycles":800,"drain_cycles":50000,"op_rate":0.01,"seed":3,"watchdog_limit":10000,"faults_spec":"port-stuck@300:sw0.p4;port-stuck@300:sw0.p5;port-stuck@300:sw0.p6;port-stuck@300:sw0.p7"}}`
	resp, body := postRun(t, w1.URL, wedge)
	direct := decodeErr(t, body)
	if resp.StatusCode != http.StatusUnprocessableEntity || direct.Error.Code != "deadlock" {
		t.Fatalf("worker: %d %s", resp.StatusCode, body)
	}
	resp, body = postRun(t, coord.URL, wedge)
	got := decodeErr(t, body)
	if resp.StatusCode != http.StatusUnprocessableEntity || got.Error.Code != "deadlock" ||
		got.Error.Message != direct.Error.Message || got.Error.Job != "" || got.Error.Retryable {
		t.Fatalf("coordinator: %d %s, want the worker's deadlock verdict without its job id", resp.StatusCode, body)
	}
	want := "peer " + w1.URL + ": 422 Unprocessable Entity: " + direct.Error.Message
	for _, r := range readJournal(t, dir) {
		if r.Kind == service.RecFailed && r.JobKind == "run" && r.Error != want {
			t.Errorf("journaled run failure %q, want %q", r.Error, want)
		}
	}
}

// TestCoordinatorRunCycleBudgetExceeded: a worker's cycle-budget verdict
// reaches the coordinator's client as cycle_budget_exceeded.
func TestCoordinatorRunCycleBudgetExceeded(t *testing.T) {
	_, w1 := startWorker(t, service.Config{MaxCycles: 10_000})
	_, coord := startCoordinator(t, Config{Peers: []string{w1.URL}})
	resp, body := postRun(t, coord.URL, tinyRunBody(61))
	e := decodeErr(t, body)
	if resp.StatusCode != http.StatusUnprocessableEntity || e.Error.Code != "cycle_budget_exceeded" ||
		e.Error.Message != "config needs up to 51000 simulated cycles, budget is 10000" {
		t.Fatalf("coordinator: %d %s, want 422 cycle_budget_exceeded", resp.StatusCode, body)
	}
}

func readJournal(t *testing.T, dir string) []service.JournalRec {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, "journal.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []service.JournalRec
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec service.JournalRec
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad journal line %q: %v", sc.Text(), err)
		}
		out = append(out, rec)
	}
	return out
}
