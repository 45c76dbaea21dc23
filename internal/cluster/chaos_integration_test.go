package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"mdworm/internal/chaos"
	"mdworm/internal/experiments"
	"mdworm/internal/service"
)

// chaosTransport builds an Injector-wrapped transport for a coordinator whose
// peers are labeled worker1..workerN in the given order — the same labeling
// mdwd -coordinator -chaos applies.
func chaosTransport(t *testing.T, spec string, seed int64, peerURLs []string) http.RoundTripper {
	t.Helper()
	inj, err := chaos.NewFromSpec(spec, seed, "coordinator")
	if err != nil {
		t.Fatal(err)
	}
	byHost := make(map[string]string, len(peerURLs))
	for i, u := range peerURLs {
		byHost[strings.TrimPrefix(u, "http://")] = fmt.Sprintf("worker%d", i+1)
	}
	return inj.Transport(nil, func(r *http.Request) string {
		return byHost[r.URL.Host]
	})
}

// TestClusterChaosRunByteIdentical: with drops, latency, and a partition
// injected between the coordinator and its workers, every /v1/run still
// returns the byte-identical body a clean worker returns directly — the
// headline guarantee: correct or retryable, never silently wrong.
func TestClusterChaosRunByteIdentical(t *testing.T) {
	_, w1 := startWorker(t, service.Config{})
	_, w2 := startWorker(t, service.Config{})
	peerURLs := []string{w1.URL, w2.URL}
	_, coord := startCoordinator(t, Config{
		Peers: peerURLs,
		Transport: chaosTransport(t,
			"drop@0s+1500ms:worker1; latency@0s+30s:worker2*20ms; partition@500ms+1s:coordinator-worker2",
			42, peerURLs),
		Seed:             42,
		BreakerBaseDelay: 100 * time.Millisecond,
		RetryDelay:       50 * time.Millisecond,
	})

	for seed := uint64(30); seed < 36; seed++ {
		resp, direct := postRun(t, w1.URL, tinyRunBody(seed))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: direct run: %s: %s", seed, resp.Status, direct)
		}
		resp, merged := postRun(t, coord.URL, tinyRunBody(seed))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: chaos run: %s: %s", seed, resp.Status, merged)
		}
		if !bytes.Equal(direct, merged) {
			t.Fatalf("seed %d: result under chaos differs from clean result", seed)
		}
	}
}

// TestClusterChaosCorruptDetected: a corrupt window on the only worker's
// responses is caught by the body digest, the poisoned attempt migrates, and
// the answer the client sees is still byte-identical — corruption that
// parses as valid JSON must never reach the cache.
func TestClusterChaosCorruptDetected(t *testing.T) {
	_, w1 := startWorker(t, service.Config{})
	peerURLs := []string{w1.URL}
	c, coord := startCoordinator(t, Config{
		Peers:            peerURLs,
		Transport:        chaosTransport(t, "corrupt@0s:worker1", 7, peerURLs),
		Seed:             7,
		BreakerBaseDelay: 100 * time.Millisecond,
		RetryDelay:       50 * time.Millisecond,
	})

	resp, direct := postRun(t, w1.URL, tinyRunBody(51))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("direct run: %s: %s", resp.Status, direct)
	}
	resp, merged := postRun(t, coord.URL, tinyRunBody(51))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run through corrupting link: %s: %s", resp.Status, merged)
	}
	if !bytes.Equal(direct, merged) {
		t.Fatalf("corrupted bytes reached the client:\n%s\nvs\n%s", merged, direct)
	}
	if c.migrations.Load() == 0 {
		t.Error("no migration recorded: the integrity check never fired")
	}
}

// streamExperimentFrom posts an experiment request with an explicit resume
// cursor and returns all decoded events.
func streamExperimentFrom(t *testing.T, base string, req service.ExperimentRequest) []service.StreamEvent {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/experiment", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("experiment: %s: %s", resp.Status, b)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var evs []service.StreamEvent
	for sc.Scan() {
		var ev service.StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		evs = append(evs, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return evs
}

// TestClusterExperimentStreamResume: a full sweep followed by a resume from
// a mid-stream cursor re-delivers exactly the points after the cursor — no
// duplicates, no gaps — and the resumed tail is byte-identical to the same
// tail of the original stream.
func TestClusterExperimentStreamResume(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick sweep")
	}
	_, w1 := startWorker(t, service.Config{Workers: 4})
	_, coord := startCoordinator(t, Config{Peers: []string{w1.URL}})

	first := streamExperimentFrom(t, coord.URL, service.ExperimentRequest{ID: "e1", Quick: true})
	if first[0].Type != "start" || !service.ValidStreamToken(first[0].Stream) {
		t.Fatalf("no stream token on the start event: %+v", first[0])
	}
	token := first[0].Stream
	var points []service.StreamEvent
	for _, ev := range first {
		if ev.Type == "point" {
			points = append(points, ev)
		}
	}
	if len(points) < 3 {
		t.Fatalf("sweep produced %d points, need >= 3 to cut meaningfully", len(points))
	}
	for i, ev := range points {
		if ev.Seq != int64(i+1) {
			t.Fatalf("point %d has seq %d, want contiguous 1-based seq", i, ev.Seq)
		}
	}

	// Simulate a client that durably consumed the first half and reconnects.
	cut := int64(len(points) / 2)
	resumed := streamExperimentFrom(t, coord.URL, service.ExperimentRequest{
		ID: "e1", Quick: true, Stream: token, AfterSeq: cut})
	var resumedPoints []service.StreamEvent
	sawDone := false
	for _, ev := range resumed {
		switch ev.Type {
		case "point":
			resumedPoints = append(resumedPoints, ev)
			if ev.Seq <= cut {
				t.Errorf("resume re-delivered seq %d <= cursor %d (tag %s)", ev.Seq, cut, ev.Tag)
			}
		case "done":
			sawDone = true
		case "error":
			t.Fatalf("resume failed: %s", ev.Err)
		}
	}
	if !sawDone {
		t.Fatal("resumed stream ended without a done event")
	}
	want := points[cut:]
	if len(resumedPoints) != len(want) {
		t.Fatalf("resume delivered %d points, want the %d after the cursor", len(resumedPoints), len(want))
	}
	for i := range want {
		a, _ := json.Marshal(want[i])
		b, _ := json.Marshal(resumedPoints[i])
		if !bytes.Equal(a, b) {
			t.Fatalf("resumed point %d differs:\n%s\nvs\n%s", i, b, a)
		}
	}

	// Garbage cursors are rejected up front, not half-streamed.
	for _, bad := range []service.ExperimentRequest{
		{ID: "e1", Quick: true, Stream: "nope"},
		{ID: "e1", Quick: true, Stream: token, AfterSeq: -1},
	} {
		body, _ := json.Marshal(bad)
		resp, err := http.Post(coord.URL+"/v1/experiment", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad cursor %+v: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestCoordinatorRestartResolvesExperiment: an experiment left pending in the
// journal is re-resolved headlessly after a restart when its accepted record
// carries the request, and failed (as before) when it does not.
func TestCoordinatorRestartResolvesExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick sweep")
	}
	dir := t.TempDir()
	_, w1 := startWorker(t, service.Config{Workers: 4})

	// A first coordinator journals one interrupted experiment with a
	// replayable request and one legacy record without.
	c1, err := New(Config{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	reqJSON, err := json.Marshal(service.ExperimentRequest{
		ID: "a8", Quick: true, Seed: 1, Stream: service.NewStreamToken()})
	if err != nil {
		t.Fatal(err)
	}
	c1.journal.Append(service.JournalRec{Kind: service.RecAccepted, Hash: "a8",
		JobKind: "experiment", Config: reqJSON})
	c1.journal.Append(service.JournalRec{Kind: service.RecAccepted, Hash: "e9",
		JobKind: "experiment"})
	c1.Close()

	c2, err := New(Config{CacheDir: dir, Peers: []string{w1.URL}, HeartbeatEvery: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	waited := make(chan struct{})
	go func() { c2.jobs.Wait(); close(waited) }()
	select {
	case <-waited:
	case <-time.After(120 * time.Second):
		t.Fatal("re-resolved experiment did not finish in time")
	}

	counts := map[string]int{}
	for _, r := range readJournal(t, dir) {
		counts[r.Kind+"/"+r.JobKind+"/"+r.Hash]++
		if r.Kind == service.RecFailed && r.Hash == "e9" &&
			!strings.Contains(r.Error, "interrupted by coordinator restart") {
			t.Errorf("legacy record failed with %q, want the restart message", r.Error)
		}
	}
	if counts["done/experiment/a8"] != 1 {
		t.Fatalf("re-resolved experiment done records = %d, want 1\ncounts: %v",
			counts["done/experiment/a8"], counts)
	}
	if counts["failed/experiment/e9"] != 1 {
		t.Fatalf("legacy experiment failed records = %d, want 1", counts["failed/experiment/e9"])
	}
}

// TestClusterChaosExperimentByteIdentical is the in-process twin of the CI
// chaos matrix: the same experiment, clean and under a seeded fault schedule,
// must stream byte-identical tables.
func TestClusterChaosExperimentByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("two full quick sweeps")
	}
	_, single := startWorker(t, service.Config{Workers: 4})
	_, w1 := startWorker(t, service.Config{Workers: 2})
	_, w2 := startWorker(t, service.Config{Workers: 2})
	peerURLs := []string{w1.URL, w2.URL}
	_, coord := startCoordinator(t, Config{
		Peers: peerURLs,
		Transport: chaosTransport(t,
			"latency@0s+60s:worker1*15ms; drop@1s+1s:worker2; slow-close@0s+60s:worker1*10ms",
			1234, peerURLs),
		Seed:             1234,
		BreakerBaseDelay: 100 * time.Millisecond,
		RetryDelay:       50 * time.Millisecond,
	})

	wantTags, wantTables, wantDone := streamExperiment(t, single.URL, "e1")
	gotTags, gotTables, gotDone := streamExperiment(t, coord.URL, "e1")
	if gotTables != wantTables {
		t.Fatalf("tables under chaos differ from clean tables:\n--- chaos ---\n%s\n--- clean ---\n%s",
			gotTables, wantTables)
	}
	if gotDone.Points != wantDone.Points {
		t.Errorf("points under chaos = %d, clean = %d", gotDone.Points, wantDone.Points)
	}
	planned, err := experiments.Plan([]string{"e1"}, experiments.Options{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := experiments.PlannedTags(planned); !slicesEqual(gotTags, want) {
		t.Fatalf("chaos point order %v, planned order %v", gotTags, want)
	}
	_ = wantTags
}
