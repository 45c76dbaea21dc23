package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mdworm/internal/core"
)

// tinyCanon resolves tinyRun's configuration to its canonical form and hash,
// the same pair the server would journal for that request.
func tinyCanon(t *testing.T, seed uint64) (string, core.Config, []byte) {
	t.Helper()
	var req RunRequest
	if err := json.Unmarshal([]byte(tinyRun(seed)), &req); err != nil {
		t.Fatal(err)
	}
	cfg, err := req.Config.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	hash, canon, err := Hash(cfg)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(canon)
	if err != nil {
		t.Fatal(err)
	}
	return hash, canon, raw
}

func writeJournalLines(t *testing.T, dir string, lines ...string) {
	t.Helper()
	// No trailing newline: the final line models the truncated tail a crash
	// can leave behind, which the replay must tolerate.
	data := strings.Join(lines, "\n")
	if err := os.WriteFile(filepath.Join(dir, journalName), []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestReplayJournalTolerance covers the crash-shaped journals: a truncated
// last record, garbled bytes, unknown kinds from a future daemon, and
// terminal records for hashes never accepted — none may be fatal, and only
// genuinely unfinished jobs may come back.
func TestReplayJournalTolerance(t *testing.T) {
	dir := t.TempDir()
	writeJournalLines(t, dir,
		`{"kind":"accepted","hash":"aaa","job_kind":"run","config":{"seed":1}}`,
		`{"kind":"running","hash":"aaa","job_kind":"run"}`,
		`{"kind":"checkpoint","hash":"aaa","job_kind":"run","file":"/x/aaa.ckpt","cycle":500}`,
		`{"kind":"accepted","hash":"bbb","job_kind":"run","config":{"seed":2}}`,
		`{"kind":"done","hash":"bbb","job_kind":"run"}`,
		`{"kind":"accepted","hash":"ccc","job_kind":"experiment"}`,
		`{"kind":"archived","hash":"ddd","job_kind":"run"}`, // unknown kind: skipped
		`{"kind":"done","hash":"never-accepted"}`,           // terminal for a stranger: ignored
		`this line is not json at all`,
		`{"kind":"accepted","hash":"eee","job_kind":"run","config":{"se`, // TRUNCated by the crash
	)

	pending, err := ReplayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 2 {
		t.Fatalf("pending = %+v, want exactly aaa and ccc", pending)
	}
	if pending[0].Hash != "aaa" || pending[0].Checkpoint != "/x/aaa.ckpt" || pending[0].Cycle != 500 {
		t.Errorf("aaa replayed as %+v", pending[0])
	}
	if pending[1].Hash != "ccc" || pending[1].JobKind != "experiment" {
		t.Errorf("ccc replayed as %+v", pending[1])
	}
}

func TestReplayJournalMissingFile(t *testing.T) {
	pending, err := ReplayJournal(t.TempDir())
	if err != nil || len(pending) != 0 {
		t.Fatalf("missing journal replayed as (%v, %v)", pending, err)
	}
}

// waitForCache polls until hash appears in the server's cache.
func waitForCache(t *testing.T, s *Server, hash string) []byte {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if body, ok := s.cache.Get(hash); ok {
			return body
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("result %s never reached the cache", hash)
	return nil
}

// readJournal returns the parsed records currently in a directory's journal.
func readJournal(t *testing.T, dir string) []JournalRec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	var recs []JournalRec
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var rec JournalRec
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		recs = append(recs, rec)
	}
	return recs
}

// TestRecoveryCompletesInterruptedRun is the crash-safety property end to
// end: a journal showing an accepted-but-unfinished run (with a checkpoint
// reference that no longer resolves — the worst case) makes a restarted
// daemon re-run the job to completion, and the recovered result is
// byte-identical to an uninterrupted daemon's.
func TestRecoveryCompletesInterruptedRun(t *testing.T) {
	hash, _, raw := tinyCanon(t, 42)

	// Reference: the same request served by an undisturbed daemon.
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, want := postRun(t, ts.URL, tinyRun(42))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reference run: %d %s", resp.StatusCode, want)
	}

	dir := t.TempDir()
	writeJournalLines(t, dir,
		`{"kind":"accepted","hash":"`+hash+`","job_kind":"run","config":`+string(raw)+`}`,
		`{"kind":"running","hash":"`+hash+`","job_kind":"run"}`,
		`{"kind":"checkpoint","hash":"`+hash+`","job_kind":"run","file":"`+
			filepath.Join(dir, "vanished.ckpt")+`","cycle":400}`,
	)

	s, err := New(Config{Workers: 1, CacheDir: dir, CheckpointEvery: 250})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(10 * time.Second)
	got := waitForCache(t, s, hash)
	if !bytes.Equal(want, got) {
		t.Fatalf("recovered result differs from uninterrupted run:\nwant %s\ngot  %s", want, got)
	}

	// The compacted journal must show the job re-accepted and finished once —
	// recovery neither loses nor double-reports it.
	if done := waitForDone(t, dir, hash); done != 1 {
		t.Fatalf("journal reports %d done records for the recovered job, want 1", done)
	}
}

// waitForDone waits up to ten seconds for the journal in dir to hold a done
// record for hash and returns how many it holds. The done record lands after
// the result is cached and the job's checkpoint is removed, so a test that
// saw the result in the cache waits here before it checks either.
func waitForDone(t *testing.T, dir, hash string) int {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		done := 0
		for _, rec := range readJournal(t, dir) {
			if rec.Hash == hash && rec.Kind == recDone {
				done++
			}
		}
		if done > 0 || time.Now().After(deadline) {
			return done
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRecoveryResumesFromCheckpoint plants a real checkpoint blob and checks
// the restarted daemon resumes from it (fewer simulated cycles than scratch)
// while producing the byte-identical result.
func TestRecoveryResumesFromCheckpoint(t *testing.T) {
	hash, canon, raw := tinyCanon(t, 43)

	// Reference result and a mid-run checkpoint from a scratch simulator.
	ref, err := core.New(canon)
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}
	wantBody, err := json.Marshal(RunResponse{Hash: hash, Config: canon, Results: refRes, SimulatedCycles: ref.Now()})
	if err != nil {
		t.Fatal(err)
	}

	crashed, err := core.New(canon)
	if err != nil {
		t.Fatal(err)
	}
	var blob []byte
	var snapCycle int64
	_, err = crashed.RunCheckpointed(500, func(data []byte, cycle int64) error {
		blob, snapCycle = data, cycle
		return fmt.Errorf("crash")
	})
	if blob == nil {
		t.Fatalf("run finished before any checkpoint (err=%v)", err)
	}

	dir := t.TempDir()
	ckptFile := filepath.Join(dir, hash+".ckpt")
	if err := os.WriteFile(ckptFile, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	writeJournalLines(t, dir,
		`{"kind":"accepted","hash":"`+hash+`","job_kind":"run","config":`+string(raw)+`}`,
		fmt.Sprintf(`{"kind":"checkpoint","hash":"%s","job_kind":"run","file":"%s","cycle":%d}`,
			hash, ckptFile, snapCycle),
	)

	s, err := New(Config{Workers: 1, CacheDir: dir, CheckpointEvery: 500})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(10 * time.Second)
	got := waitForCache(t, s, hash)
	if !bytes.Equal(wantBody, got) {
		t.Fatalf("resumed result differs from scratch run:\nwant %s\ngot  %s", wantBody, got)
	}
	if waitForDone(t, dir, hash) == 0 {
		t.Fatal("journal never recorded the resumed job done")
	}
	if _, err := os.Stat(ckptFile); !os.IsNotExist(err) {
		t.Errorf("checkpoint blob survived the finished job (stat err: %v)", err)
	}
}

// TestRecoveryFailsInterruptedExperiment: an experiment cut down by a crash
// has no client left to stream to; the restarted daemon must close it out as
// failed rather than silently forget it or re-run it for nobody.
func TestRecoveryFailsInterruptedExperiment(t *testing.T) {
	dir := t.TempDir()
	writeJournalLines(t, dir,
		`{"kind":"accepted","hash":"e1","job_kind":"experiment"}`,
		`{"kind":"running","hash":"e1","job_kind":"experiment"}`,
	)
	s, err := New(Config{Workers: 1, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(10 * time.Second)

	recs := readJournal(t, dir)
	if len(recs) != 1 || recs[0].Kind != recFailed || recs[0].Hash != "e1" ||
		!strings.Contains(recs[0].Error, "restart") {
		t.Fatalf("compacted journal = %+v, want one failed record for e1", recs)
	}
}

// TestRecoveryServesFinishedRunFromCache: when the result reached the cache
// but the crash beat the journal's done record, recovery must mark the job
// done from the cache instead of re-running it.
func TestRecoveryServesFinishedRunFromCache(t *testing.T) {
	hash, _, raw := tinyCanon(t, 44)
	dir := t.TempDir()
	cached := []byte(`{"hash":"` + hash + `","results":{}}`)
	if err := os.WriteFile(filepath.Join(dir, hash+".json"), cached, 0o644); err != nil {
		t.Fatal(err)
	}
	writeJournalLines(t, dir,
		`{"kind":"accepted","hash":"`+hash+`","job_kind":"run","config":`+string(raw)+`}`,
	)
	s, err := New(Config{Workers: 1, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(10 * time.Second)

	recs := readJournal(t, dir)
	if len(recs) != 1 || recs[0].Kind != recDone || recs[0].Hash != hash {
		t.Fatalf("compacted journal = %+v, want one done record", recs)
	}
	if views := s.pool.List(); len(views) != 0 {
		t.Fatalf("cache-satisfied job was scheduled anyway: %+v", views)
	}
}

// TestRejectionResponses drives the pool into its two rejection states and
// checks both the status mapping and the Retry-After plumbing (header and
// structured body agreeing).
func TestRejectionResponses(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Backlog: 1})

	// Fill the worker and the one backlog slot with jobs that block until
	// released, so the next submission sees a full pool.
	release := make(chan struct{})
	var once sync.Once
	t.Cleanup(func() { once.Do(func() { close(release) }) })
	started := make(chan struct{})
	running, err := s.pool.Submit("run", "blocker-running", func() (JobStats, error) {
		close(started)
		<-release
		return JobStats{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started // the worker holds this job; the backlog slot is free again
	queued, err := s.pool.Submit("run", "blocker-queued", func() (JobStats, error) {
		<-release
		return JobStats{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	checkRejection := func(wantStatus int, wantCode string) {
		t.Helper()
		resp, body := postRun(t, ts.URL, tinyRun(77))
		if resp.StatusCode != wantStatus {
			t.Fatalf("status = %d (%s), want %d", resp.StatusCode, body, wantStatus)
		}
		ra := resp.Header.Get("Retry-After")
		secs, err := time.ParseDuration(ra + "s")
		if err != nil || secs < time.Second {
			t.Fatalf("Retry-After = %q, want >= 1 second", ra)
		}
		var e struct {
			Error APIError `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil {
			t.Fatalf("body %s: %v", body, err)
		}
		if e.Error.Code != wantCode {
			t.Fatalf("code = %q (%s), want %q", e.Error.Code, body, wantCode)
		}
		if fmt.Sprint(e.Error.RetryAfterSeconds) != ra {
			t.Fatalf("body retry_after_seconds %d disagrees with header %q", e.Error.RetryAfterSeconds, ra)
		}
	}

	checkRejection(http.StatusTooManyRequests, "busy")

	s.BeginDrain()
	checkRejection(http.StatusServiceUnavailable, "draining")

	// The health probe carries the same hint while draining.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("draining healthz: status %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	once.Do(func() { close(release) })
	<-running.Done()
	<-queued.Done()
}

// TestSubmitDrainRace hammers Submit from many goroutines while Drain closes
// the task channel: under -race (and plain) no send may hit the closed
// channel, and every accepted job must still reach a terminal state.
func TestSubmitDrainRace(t *testing.T) {
	for round := 0; round < 20; round++ {
		p := NewPool(2, 4)
		var wg sync.WaitGroup
		var mu sync.Mutex
		var accepted []*Job
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					j, err := p.Submit("run", "r", func() (JobStats, error) { return JobStats{}, nil })
					if err != nil {
						continue
					}
					mu.Lock()
					accepted = append(accepted, j)
					mu.Unlock()
				}
			}()
		}
		go p.Drain(10 * time.Second)
		wg.Wait()
		if !p.Drain(10 * time.Second) {
			t.Fatal("pool failed to drain")
		}
		for _, j := range accepted {
			select {
			case <-j.Done():
			default:
				t.Fatal("accepted job never reached a terminal state")
			}
		}
	}
}

// TestJobDeadline checks a job that out-waited the pool's queue deadline is
// failed with ErrJobDeadline instead of run.
func TestJobDeadline(t *testing.T) {
	p := NewPool(1, 4)
	p.SetDeadline(20 * time.Millisecond)
	defer p.Drain(10 * time.Second)

	gate := make(chan struct{})
	blocker, err := p.Submit("run", "blocker", func() (JobStats, error) {
		<-gate
		return JobStats{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ran := false
	stale, err := p.Submit("run", "stale", func() (JobStats, error) {
		ran = true
		return JobStats{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the queued job out-age its deadline
	close(gate)
	<-blocker.Done()
	<-stale.Done()
	if ran {
		t.Fatal("stale job ran despite its deadline")
	}
	if err := p.Err(stale.ID); err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("stale job error = %v, want a deadline failure", err)
	}
}

// TestRecoveryPreservesTenantQueues: jobs journaled across three tenants
// before a crash are each re-enqueued into their original tenant's queue
// exactly once on restart — including a "ghost" tenant that was since
// removed from the tenants file, which gets a synthesized weight-1 queue
// rather than being silently folded into someone else's share.
func TestRecoveryPreservesTenantQueues(t *testing.T) {
	dir := t.TempDir()
	hashA, _, rawA := tinyCanon(t, 71)
	hashB, _, rawB := tinyCanon(t, 72)
	hashC, _, rawC := tinyCanon(t, 73)
	writeJournalLines(t, dir,
		`{"kind":"accepted","hash":"`+hashA+`","job_kind":"run","tenant":"alpha","config":`+string(rawA)+`}`,
		`{"kind":"running","hash":"`+hashA+`","job_kind":"run","tenant":"alpha"}`,
		`{"kind":"accepted","hash":"`+hashB+`","job_kind":"run","tenant":"beta","config":`+string(rawB)+`}`,
		`{"kind":"accepted","hash":"`+hashC+`","job_kind":"run","tenant":"ghost","config":`+string(rawC)+`}`,
	)

	tenants, err := ParseTenants([]byte("ka alpha 1\nkb beta 2\n")) // ghost deliberately absent
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Workers: 1, CacheDir: dir, Tenants: tenants})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(10 * time.Second)

	hashes := map[string]string{"alpha": hashA, "beta": hashB, "ghost": hashC}
	for _, hash := range hashes {
		waitForCache(t, s, hash)
		// The pool marks a job done after its result reaches the cache;
		// the done record follows.
		waitForDone(t, dir, hash)
	}

	// Each recovered job landed in (and only in) its original tenant's queue.
	for tenant, hash := range hashes {
		views := s.pool.ListTenant(tenant)
		if len(views) != 1 {
			t.Fatalf("tenant %s has %d recovered jobs, want exactly 1: %+v", tenant, len(views), views)
		}
		if v := views[0]; v.Detail != hash || v.Tenant != tenant || v.State != JobDone {
			t.Fatalf("tenant %s recovered job = %+v, want done run of %s", tenant, v, hash)
		}
	}

	// Exactly once: one accepted and one done record per hash, each carrying
	// the tenant it was journaled under.
	accepted, done := map[string]int{}, map[string]int{}
	tenantOf := map[string]string{}
	for _, rec := range readJournal(t, dir) {
		switch rec.Kind {
		case RecAccepted:
			accepted[rec.Hash]++
			tenantOf[rec.Hash] = rec.Tenant
		case RecDone:
			done[rec.Hash]++
		}
	}
	for tenant, hash := range hashes {
		if accepted[hash] != 1 || done[hash] != 1 {
			t.Errorf("hash %s: %d accepted / %d done records, want 1/1", hash, accepted[hash], done[hash])
		}
		if tenantOf[hash] != tenant {
			t.Errorf("hash %s re-journaled under tenant %q, want %q", hash, tenantOf[hash], tenant)
		}
	}

	// The per-tenant accounting survived the restart too.
	for _, st := range s.pool.TenantStats() {
		if _, ours := hashes[st.Name]; ours && st.Completed != 1 {
			t.Errorf("tenant %s completed=%d after recovery, want 1", st.Name, st.Completed)
		}
	}
}
