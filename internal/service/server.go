package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"mdworm/internal/core"
	"mdworm/internal/experiments"
	"mdworm/internal/obs"
	"mdworm/internal/stats"
)

// Config parameterizes the daemon.
type Config struct {
	// Workers bounds concurrent simulation jobs (0 = 1 per default; cmd/mdwd
	// defaults it to GOMAXPROCS).
	Workers int
	// Backlog bounds queued-but-unstarted jobs (0 = 4*Workers).
	Backlog int
	// CacheEntries bounds the in-memory result cache (0 = 1024).
	CacheEntries int
	// CacheDir, when non-empty, persists results on disk (write-through;
	// survives restarts).
	CacheDir string
	// MaxCycles caps the simulated cycles (warmup+measure+drain ceiling) a
	// single run request may ask for; 0 means no server-wide cap. Requests
	// may lower it per call with cycle_budget, never raise it.
	MaxCycles int64
	// RunTimeout bounds how long a /v1/run handler waits for its job; the
	// job keeps running (and populates the cache) after the handler gives
	// up with 504. 0 = 2 minutes.
	RunTimeout time.Duration
	// CheckpointEvery, when > 0 and CacheDir is set, checkpoints every run
	// job's simulator state every that many simulated cycles and journals
	// the blob reference, so a killed daemon resumes interrupted runs from
	// the last checkpoint on restart instead of starting over. 0 disables
	// mid-run checkpointing (interrupted runs then re-run from scratch).
	CheckpointEvery int64
	// JobDeadline, when > 0, fails a job that waited in the queue longer
	// than this instead of running it (its client has long given up; the
	// cache would still have been populated had it run, but the queue slot
	// is better spent on live requests). 0 = no deadline.
	JobDeadline time.Duration
	// JournalMaxBytes bounds the job journal's file size: past it, the
	// journal is compacted in place down to its pending-job records, so
	// long runs (a cluster coordinator's shard records especially) cannot
	// grow it unboundedly. 0 = 8 MiB; negative disables size-triggered
	// compaction (restart compaction still applies).
	JournalMaxBytes int64
	// Tenants, when non-nil, turns on multi-tenant mode: every /v1 request
	// must authenticate with "Authorization: Bearer <key>" against this set,
	// jobs are scheduled on per-tenant weighted queues, and /metrics gains
	// mdwd_tenant_* families. Nil preserves the single-tenant daemon exactly:
	// no auth, one anonymous queue, unchanged responses.
	Tenants *TenantSet
	// DeadlineCyclesPerSec, when > 0, converts a request's deadline_ms
	// into a deterministic cycle budget (deadline seconds × this rate,
	// the daemon's calibrated simulation speed): a run that cannot fit
	// its client's deadline is rejected up front with the structured
	// cycle_budget_exceeded error instead of burning workers on a result
	// nobody will wait for. 0 leaves deadlines as wall-clock wait bounds
	// only.
	DeadlineCyclesPerSec float64
}

// DefaultJournalMaxBytes is the journal size threshold when
// Config.JournalMaxBytes is 0.
const DefaultJournalMaxBytes = 8 << 20

// Server is the mdwd HTTP daemon: request resolution, the content-addressed
// cache, the job pool, and the metrics counters behind one http.Handler.
type Server struct {
	cfg     Config
	pool    *Pool
	cache   *Cache
	journal *Journal // nil without a cache directory
	mux     *http.ServeMux
	start   time.Time

	// tcMu guards tcache, the per-tenant result-cache accounting (only
	// populated in multi-tenant mode; the Cache itself stays tenant-blind —
	// results are content-addressed and shared).
	tcMu   sync.Mutex
	tcache map[string]*tenantCacheStats

	// tenMu guards ten, the live tenant table. It starts as cfg.Tenants and
	// is swapped whole by ReloadTenants (SIGHUP); requests resolve keys
	// against whichever table was live when they arrived.
	tenMu sync.RWMutex
	ten   *TenantSet
}

// tenants returns the live tenant table (nil in single-tenant mode).
func (s *Server) tenants() *TenantSet {
	s.tenMu.RLock()
	defer s.tenMu.RUnlock()
	return s.ten
}

// ReloadTenants atomically replaces the tenant table with a reloaded one:
// new keys authenticate immediately, removed keys stop authenticating,
// and existing queues take their new weights, priorities, and quotas in
// place without dropping a single queued job. Multi-tenant mode itself is
// fixed at startup — a daemon started without tenants cannot gain them (nor
// vice versa), because flipping auth on or off under live clients is never
// what a reload means.
func (s *Server) ReloadTenants(ts *TenantSet) error {
	if ts == nil || len(ts.Tenants()) == 0 {
		return fmt.Errorf("service: refusing to reload an empty tenant table")
	}
	s.tenMu.Lock()
	defer s.tenMu.Unlock()
	if s.ten == nil {
		return fmt.Errorf("service: daemon started single-tenant; cannot enable tenants at runtime")
	}
	s.ten = ts
	s.pool.UpdateTenants(ts)
	return nil
}

// tenantCacheStats counts one tenant's result-cache outcomes.
type tenantCacheStats struct{ hits, misses int64 }

// New builds a server and starts its worker pool.
func New(cfg Config) (*Server, error) {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.RunTimeout <= 0 {
		cfg.RunTimeout = 2 * time.Minute
	}
	cache, err := NewCache(cfg.CacheEntries, cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:    cfg,
		pool:   NewPool(cfg.Workers, cfg.Backlog),
		cache:  cache,
		mux:    http.NewServeMux(),
		start:  time.Now(),
		tcache: make(map[string]*tenantCacheStats),
		ten:    cfg.Tenants,
	}
	s.pool.SetDeadline(cfg.JobDeadline)
	s.pool.SetTenants(cfg.Tenants)
	if cfg.CacheDir != "" {
		if err := s.recover(); err != nil {
			return nil, err
		}
	}
	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	s.mux.HandleFunc("POST /v1/experiment", s.handleExperiment)
	s.mux.HandleFunc("GET /v1/experiments", ListExperiments)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/cluster/checkpoint/{hash}", s.handleCheckpoint)
	return s, nil
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// BeginDrain flips the server into shutdown mode: new job-creating requests
// are rejected with 503 while queued and running jobs continue.
func (s *Server) BeginDrain() { s.pool.BeginDrain() }

// Drain stops intake and waits up to timeout for in-flight jobs to finish.
func (s *Server) Drain(timeout time.Duration) bool { return s.pool.Drain(timeout) }

// writeRejected maps a Submit failure to its backpressure response: 429
// "quota" past the tenant's own queue cap, 429 "busy" for a full global
// backlog, 503 "draining" during shutdown (distinct codes, so clients know
// whether to retry soon or find another daemon), all with a Retry-After
// estimate in header and body. The estimate is computed from the rejected
// tenant's queue, not the global one: a quota-limited tenant is never told
// to wait out other tenants' backlogs (with no tenants configured, the one
// anonymous queue makes this the historical global estimate).
func (s *Server) writeRejected(w http.ResponseWriter, err error, t *Tenant) {
	secs := retrySeconds(s.pool.RetryAfterTenant(t))
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	e := APIError{Code: "unavailable", Message: err.Error(), RetryAfterSeconds: secs, Retryable: true}
	status := http.StatusServiceUnavailable
	switch {
	case errors.Is(err, ErrTenantQueueFull):
		e.Code, status = "quota", http.StatusTooManyRequests
	case errors.Is(err, ErrPoolFull):
		e.Code, status = "busy", http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		e.Code = "draining"
	}
	WriteError(w, status, e)
}

// retrySeconds rounds a Retry-After estimate to whole seconds, at least 1.
func retrySeconds(d time.Duration) int {
	return max(int(d.Round(time.Second).Seconds()), 1)
}

// tenantCacheHit records one tenant's result-cache outcome (multi-tenant
// mode only; the cache itself is shared and content-addressed).
func (s *Server) tenantCacheHit(t *Tenant, hit bool) {
	if s.tenants() == nil {
		return
	}
	s.tcMu.Lock()
	defer s.tcMu.Unlock()
	st := s.tcache[t.Name]
	if st == nil {
		st = &tenantCacheStats{}
		s.tcache[t.Name] = st
	}
	if hit {
		st.hits++
	} else {
		st.misses++
	}
}

// RunRequest is the body of POST /v1/run.
type RunRequest struct {
	Config ConfigRequest `json:"config"`
	// RawConfig, when present, is a fully resolved core.Config and takes
	// precedence over Config. It is the daemon-to-daemon dispatch form: a
	// cluster coordinator forwards the exact canonical config it hashed, so
	// worker-side resolution cannot drift from the coordinator's shard key.
	RawConfig *core.Config `json:"raw_config,omitempty"`
	// CycleBudget caps this run's simulated cycles
	// (warmup+measure+drain); it may tighten the server's MaxCycles,
	// never exceed it.
	CycleBudget int64 `json:"cycle_budget,omitempty"`
	// Resume, when non-empty, is a checkpoint blob (core.Snapshot bytes) to
	// resume the run from instead of starting at cycle zero — the shard
	// migration path: a coordinator re-dispatching a dead worker's shard
	// attaches the last mirrored checkpoint. The blob's embedded config must
	// hash to this request's config hash, or it is ignored and the run
	// starts from scratch (determinism makes the result identical).
	Resume []byte `json:"resume,omitempty"`
	// DeadlineMillis, when > 0, is how long the client is willing to wait
	// for this response, propagated from the front door (a coordinator
	// forwards its client's remaining budget on every dispatch). It
	// tightens the handler's wait below RunTimeout, and — when the server
	// configures DeadlineCyclesPerSec — converts into a deterministic
	// cycle-budget cap checked up front.
	DeadlineMillis int64 `json:"deadline_ms,omitempty"`
}

// RunResponse is the body of a successful POST /v1/run. Cache hits return
// the original miss's bytes verbatim, so the body never encodes hit/miss
// state — that travels in the X-Mdwd-Cache header.
type RunResponse struct {
	Hash    string        `json:"hash"`
	Config  core.Config   `json:"config"`
	Results stats.Results `json:"results"`
	// SimulatedCycles is sim.Now() at the end of the run, so remote
	// resolvers can report the same per-point cycle counts local runs do.
	SimulatedCycles int64 `json:"simulated_cycles"`
}

// totalCycles is the simulated-cycle ceiling of a resolved config: warmup
// and measurement run exactly, the drain at most DrainCycles.
func totalCycles(cfg core.Config) int64 {
	return cfg.WarmupCycles + cfg.MeasureCycles + cfg.DrainCycles
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	tn, ok := Authenticate(w, r, s.tenants())
	if !ok {
		return
	}
	req, hash, canon, ok := DecodeRun(w, r)
	if !ok {
		return
	}
	budget := s.cfg.MaxCycles
	if req.CycleBudget > 0 && (budget == 0 || req.CycleBudget < budget) {
		budget = req.CycleBudget
	}
	if req.DeadlineMillis > 0 && s.cfg.DeadlineCyclesPerSec > 0 {
		// The client's wall-clock deadline becomes a deterministic cycle
		// cap: same config, same deadline, same verdict, on any replica.
		derived := int64(s.cfg.DeadlineCyclesPerSec * float64(req.DeadlineMillis) / 1000)
		if derived < 1 {
			derived = 1
		}
		if budget == 0 || derived < budget {
			budget = derived
		}
	}
	if budget > 0 && totalCycles(canon) > budget {
		WriteError(w, http.StatusUnprocessableEntity, APIError{
			Code: "cycle_budget_exceeded",
			Message: fmt.Sprintf("config needs up to %d simulated cycles, budget is %d",
				totalCycles(canon), budget),
		})
		return
	}

	if body, ok := s.cache.Get(hash); ok {
		s.tenantCacheHit(tn, true)
		WriteResult(w, "hit", hash, body)
		return
	}
	s.tenantCacheHit(tn, false)

	// Write-ahead: the job is journaled accepted (with its canonical config)
	// before it is queued, so a crash at any later point can rebuild it.
	canonJSON, err := json.Marshal(canon)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, APIError{Code: "internal", Message: err.Error()})
		return
	}
	s.journal.Append(JournalRec{Kind: recAccepted, Hash: hash, JobKind: "run", Tenant: tn.Name, Config: canonJSON})

	var body []byte
	resume := req.Resume
	job, err := s.pool.SubmitTenant("run", hash, tn, func() (JobStats, error) {
		b, st, err := s.executeRun(hash, canon, resume)
		body = b
		return st, err
	})
	if err != nil {
		// The WAL entry must not outlive the rejection, or a restart would
		// resurrect a job whose client was told to retry.
		s.journal.Append(JournalRec{Kind: recFailed, Hash: hash, JobKind: "run", Tenant: tn.Name, Error: err.Error()})
		s.writeRejected(w, err, tn)
		return
	}

	wait := s.cfg.RunTimeout
	if d := time.Duration(req.DeadlineMillis) * time.Millisecond; req.DeadlineMillis > 0 && d < wait {
		wait = d
	}
	timeout := time.NewTimer(wait)
	defer timeout.Stop()
	select {
	case <-job.Done():
	case <-r.Context().Done():
		// Client gone; the job still finishes and populates the cache.
		return
	case <-timeout.C:
		WriteError(w, http.StatusGatewayTimeout, APIError{
			Code: "timeout", Job: job.ID, Retryable: true,
			Message: fmt.Sprintf("run exceeded the %s wait deadline; it continues in the background (poll /v1/jobs/%s, then repeat the request for a cache hit)",
				wait, job.ID),
		})
		return
	}
	if v, _ := s.pool.Get(job.ID); v.State == JobFailed {
		status, e := RunError(job.ID, s.pool.Err(job.ID))
		WriteError(w, status, e)
		return
	}
	w.Header().Set("X-Mdwd-Job", job.ID)
	WriteResult(w, "miss", hash, body)
}

// checkpointPath returns where a run job's checkpoint blob lives; the hash
// key is already restricted to hex (validKey), so it cannot escape the
// cache directory.
func (s *Server) checkpointPath(hash string) string {
	return filepath.Join(s.cfg.CacheDir, hash+".ckpt")
}

// checkpointing reports whether run jobs snapshot their simulator mid-run.
func (s *Server) checkpointing() bool {
	return s.cfg.CheckpointEvery > 0 && s.journal != nil
}

// executeRun performs one run job: build a simulator (restoring from a
// checkpoint blob when resume is non-empty), run it — checkpointed when
// configured — and publish the response bytes to the cache. A corrupt,
// missing, or mismatched checkpoint degrades to a scratch re-run: recovery
// is never worse than not having checkpointed, and determinism makes the
// result identical either way. The blob's embedded config must hash back to
// this job's hash — a cluster coordinator attaches blobs across the network,
// and a stale or misrouted blob must not silently compute a different
// config's result under this hash.
func (s *Server) executeRun(hash string, canon core.Config, resume []byte) ([]byte, JobStats, error) {
	var sim *core.Simulator
	if len(resume) > 0 {
		if restored, err := core.Restore(resume); err == nil {
			if h, _, err := Hash(restored.Config()); err == nil && h == hash {
				sim = restored
			} else {
				core.Release(restored)
			}
		}
	}
	if sim == nil {
		fresh, err := core.New(canon)
		if err != nil {
			return nil, JobStats{}, err
		}
		sim = fresh
	}

	var res stats.Results
	var err error
	occupancy := 0
	if s.checkpointing() {
		// A snapshotting run carries no occupancy capture (Snapshot refuses
		// attachments that live outside the checkpoint); durability wins
		// over one /metrics histogram.
		ckptFile := s.checkpointPath(hash)
		res, err = sim.RunCheckpointed(s.cfg.CheckpointEvery, func(data []byte, cycle int64) error {
			if werr := WriteFileAtomic(ckptFile, data); werr != nil {
				return nil // best-effort durability; the run itself continues
			}
			s.journal.Append(JournalRec{Kind: recCheckpoint, Hash: hash, JobKind: "run", File: ckptFile, Cycle: cycle})
			return nil
		})
	} else {
		// A coarse samples-only capture (no tracer) feeds the occupancy
		// histogram of /metrics without perturbing the run.
		occ := &obs.Capture{SampleEvery: 256}
		sim.Observe(occ)
		res, err = sim.Run()
		occupancy = occ.Summary().PeakOccupancy()
	}
	st := JobStats{Points: 1, Cycles: sim.Now(), Violations: sim.Invariants().Total(), Occupancy: occupancy}
	core.Release(sim)
	if err != nil {
		return nil, st, err
	}
	b, err := json.Marshal(RunResponse{Hash: hash, Config: canon, Results: res, SimulatedCycles: st.Cycles})
	if err != nil {
		return nil, st, err
	}
	s.cache.Put(hash, b)
	os.Remove(s.checkpointPath(hash)) // the published result supersedes any checkpoint
	return b, st, nil
}

// WriteFileAtomic replaces the file at path with data by writing a temp file
// in the same directory, fsyncing it and renaming it over path. A reader, or
// a process restarted after a crash or a power loss, finds either the old
// file or all of data, never a torn or empty one. On failure the temp file
// is removed.
func WriteFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(name, path)
	}
	if err != nil {
		os.Remove(name)
	}
	return err
}

// recover replays the cache directory's journal, compacts it, and closes
// out every job the previous process left behind: finished-but-unjournaled
// runs are marked done (their result is in the cache), unfinished runs are
// re-enqueued — from their last checkpoint when one survives, from scratch
// otherwise — and unfinished experiments are failed, since their streaming
// clients are gone and their points land in no cache. An accepted job is
// therefore never silently lost, and a finished one never re-runs.
func (s *Server) recover() error {
	j, pending, err := RecoverJournal(s.cfg.CacheDir, s.cfg.JournalMaxBytes)
	if err != nil {
		return err
	}
	s.journal = j
	s.pool.onStart = func(job *Job) {
		s.journal.Append(JournalRec{Kind: recRunning, Hash: job.Detail, JobKind: job.Kind, Tenant: job.Tenant})
	}
	s.pool.onFinish = func(job *Job, jerr error) {
		rec := JournalRec{Kind: recDone, Hash: job.Detail, JobKind: job.Kind, Tenant: job.Tenant}
		if jerr != nil {
			rec.Kind = recFailed
			rec.Error = jerr.Error()
		}
		s.journal.Append(rec)
	}

	for _, p := range pending {
		switch {
		case p.JobKind == "experiment":
			s.journal.Append(JournalRec{Kind: recFailed, Hash: p.Hash, JobKind: p.JobKind,
				Error: "interrupted by daemon restart"})
		case len(p.Config) == 0:
			s.journal.Append(JournalRec{Kind: recFailed, Hash: p.Hash, JobKind: p.JobKind,
				Error: "journal carries no configuration for this job"})
		default:
			if _, ok := s.cache.Get(p.Hash); ok {
				// The run finished and published its result, but the crash
				// beat the journal's done record; close it out.
				s.journal.Append(JournalRec{Kind: recDone, Hash: p.Hash, JobKind: "run"})
				continue
			}
			var canon core.Config
			if err := json.Unmarshal(p.Config, &canon); err != nil {
				s.journal.Append(JournalRec{Kind: recFailed, Hash: p.Hash, JobKind: "run",
					Error: fmt.Sprintf("journaled config does not parse: %v", err)})
				continue
			}
			s.journal.Append(JournalRec{Kind: recAccepted, Hash: p.Hash, JobKind: "run", Tenant: p.Tenant, Config: p.Config})
			hash, ckptFile := p.Hash, p.Checkpoint
			s.pool.enqueueRecovered("run", hash, p.Tenant, func() (JobStats, error) {
				var resume []byte
				if ckptFile != "" {
					resume, _ = os.ReadFile(ckptFile) // absent blob → scratch re-run
				}
				_, st, err := s.executeRun(hash, canon, resume)
				return st, err
			})
		}
	}
	return nil
}

// ExperimentRequest is the body of POST /v1/experiment.
type ExperimentRequest struct {
	// ID is a registered experiment id (see GET /v1/experiments).
	ID string `json:"id"`
	// Quick shrinks windows and point counts.
	Quick bool `json:"quick,omitempty"`
	// Seed drives all runs (0 = 1).
	Seed uint64 `json:"seed,omitempty"`
	// Workers bounds the sweep's internal parallelism; it is capped at
	// the server's worker budget. 0 = that budget.
	Workers int `json:"workers,omitempty"`
	// Stream resumes an interrupted stream: the token the start event of
	// the earlier attempt carried. The rest of the request must repeat
	// the original parameters (the sweep is deterministic, so the server
	// re-resolves and re-streams the identical event sequence).
	Stream string `json:"stream,omitempty"`
	// AfterSeq is the resume cursor: the highest seq the client has
	// already durably consumed. Points with seq <= AfterSeq are not
	// re-delivered. Only meaningful with Stream.
	AfterSeq int64 `json:"after_seq,omitempty"`
	// DeadlineMillis, when > 0, bounds the whole sweep: past it the
	// stream ends with a structured, retryable error event instead of
	// hanging.
	DeadlineMillis int64 `json:"deadline_ms,omitempty"`
}

// StreamEvent is one chunked JSON line of a POST /v1/experiment response:
// "start", then one "point" per planned measurement (in planned table
// order, each carrying its seq cursor), one "table" per rendered table,
// and finally "done" — or "error".
type StreamEvent struct {
	Type string `json:"type"`

	// start / error
	ID  string `json:"id,omitempty"`
	Job string `json:"job,omitempty"`
	Err string `json:"error,omitempty"`
	// Stream (start only) is the resume token for this logical stream.
	Stream string `json:"stream,omitempty"`
	// Retryable (error only) tells the client whether reconnecting with
	// the same request (plus the stream cursor) can succeed.
	Retryable bool `json:"retryable,omitempty"`

	// Seq (point only) is the 1-based planned-order position — the resume
	// cursor a reconnecting client passes back as after_seq.
	Seq int64 `json:"seq,omitempty"`

	// point
	Tag        string  `json:"tag,omitempty"`
	X          float64 `json:"x,omitempty"`
	McastLat   float64 `json:"mcast_lat,omitempty"`
	UniLat     float64 `json:"uni_lat,omitempty"`
	Throughput float64 `json:"throughput,omitempty"`
	Saturated  bool    `json:"saturated,omitempty"`
	Dropped    int64   `json:"dropped,omitempty"`
	Violations int64   `json:"violations,omitempty"`

	// table
	Text string `json:"text,omitempty"`

	// done (and point: Cycles)
	Points      int     `json:"points,omitempty"`
	Cycles      int64   `json:"simulated_cycles,omitempty"`
	WallSeconds float64 `json:"wall_seconds,omitempty"`
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	tn, ok := Authenticate(w, r, s.tenants())
	if !ok {
		return
	}
	req, ok := DecodeExperiment(w, r)
	if !ok {
		return
	}
	if req.Workers <= 0 || req.Workers > s.cfg.Workers {
		req.Workers = s.cfg.Workers
	}

	// The worker goroutine runs the sweep and feeds events through a
	// channel; this handler goroutine alone touches the ResponseWriter.
	// The request context doubles as the sweep's context, so a client
	// disconnect cancels pending points instead of simulating for nobody;
	// a client deadline additionally bounds the sweep, and its expiry must
	// still reach a connected client as an error event — hence the two
	// contexts (emit escapes on client death only, never on deadline).
	clientCtx := r.Context()
	sweepCtx := clientCtx
	if req.DeadlineMillis > 0 {
		var cancel context.CancelFunc
		sweepCtx, cancel = context.WithTimeout(clientCtx, time.Duration(req.DeadlineMillis)*time.Millisecond)
		defer cancel()
	}
	events := make(chan StreamEvent, 64)
	emit := func(ev StreamEvent) {
		select {
		case events <- ev:
		case <-clientCtx.Done():
		}
	}
	// Experiments are journaled too — not to re-run them (their stream dies
	// with the client), but so a restart can report them failed instead of
	// losing an accepted job without a trace.
	s.journal.Append(JournalRec{Kind: recAccepted, Hash: req.ID, JobKind: "experiment", Tenant: tn.Name})
	job, err := s.pool.SubmitTenant("experiment", req.ID, tn, func() (JobStats, error) {
		defer close(events)
		tables, st, err := Sweep(req, experiments.Options{Workers: req.Workers, Context: sweepCtx,
			Observer: &obs.SweepObserver{SampleEvery: 256}}, emit)
		jst := JobStats{Points: st.Points, Cycles: st.Cycles, Violations: st.Violations,
			Occupancy: st.Occupancy.PeakOccupancy()}
		if err != nil {
			retryable := errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
			emit(StreamEvent{Type: "error", ID: req.ID, Err: err.Error(), Retryable: retryable})
			return jst, err
		}
		EmitResults(emit, req.ID, tables, st)
		return jst, nil
	})
	if err != nil {
		s.journal.Append(JournalRec{Kind: recFailed, Hash: req.ID, JobKind: "experiment", Tenant: tn.Name, Error: err.Error()})
		s.writeRejected(w, err, tn)
		return
	}

	w.Header().Set("X-Mdwd-Job", job.ID)
	send := StreamWriter(w)
	send(StreamEvent{Type: "start", ID: req.ID, Job: job.ID, Stream: req.Stream})
	for ev := range events {
		send(ev)
	}
	<-job.Done()
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	tn, ok := Authenticate(w, r, s.tenants())
	if !ok {
		return
	}
	views := s.pool.List()
	if s.tenants() != nil {
		// Multi-tenant mode scopes the listing: a tenant sees its own jobs
		// only.
		views = s.pool.ListTenant(tn.Name)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string][]JobView{"jobs": views})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	tn, ok := Authenticate(w, r, s.tenants())
	if !ok {
		return
	}
	v, found := s.pool.Get(r.PathValue("id"))
	if !found || (s.tenants() != nil && v.Tenant != tn.Name) {
		// Another tenant's job is indistinguishable from a nonexistent one:
		// job ids are sequential, and existence alone leaks traffic shape.
		WriteError(w, http.StatusNotFound, APIError{Code: "unknown_job",
			Message: fmt.Sprintf("no job %q", r.PathValue("id"))})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// handleCheckpoint serves the current checkpoint blob of a run job, keyed by
// config hash. A cluster coordinator mirrors these while a shard is in
// flight, so that when the worker later dies without warning (kill -9) the
// coordinator still holds a blob to migrate the shard with. 404 simply means
// "no checkpoint right now" — not yet written, already superseded by a
// published result, or checkpointing disabled — and the mirroring client
// treats it as a no-op.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	// In multi-tenant mode the mirror endpoint requires a valid key like the
	// rest of /v1 (a cluster coordinator authenticates with its worker key);
	// blobs are not tenant-scoped — they are keyed by content hash.
	if _, ok := Authenticate(w, r, s.tenants()); !ok {
		return
	}
	hash := r.PathValue("hash")
	if !validKey(hash) {
		WriteError(w, http.StatusBadRequest, APIError{Code: "bad_hash",
			Message: fmt.Sprintf("%q is not a config hash", hash)})
		return
	}
	if s.cfg.CacheDir == "" {
		WriteError(w, http.StatusNotFound, APIError{Code: "no_checkpoint",
			Message: "daemon runs without a cache directory"})
		return
	}
	blob, err := os.ReadFile(s.checkpointPath(hash))
	if err != nil {
		WriteError(w, http.StatusNotFound, APIError{Code: "no_checkpoint",
			Message: fmt.Sprintf("no checkpoint for %s", hash)})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(blob)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	draining, secs := s.pool.Draining(), 0
	if draining {
		secs = retrySeconds(s.pool.RetryAfter()) // walks the job table: only when asked
	}
	WriteHealthz(w, draining, secs)
}

// handleMetrics reports the daemon's counters in the Prometheus text
// exposition format (version 0.0.4): the historical metric names (same
// currency as BENCH_sweep.json — points and simulated cycles, with rates
// over in-job busy time) plus job-latency and run-occupancy histograms. See
// README.md for the field reference.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	counts := s.pool.Counts()
	points, cycles, busy := s.pool.Totals()
	violations, deadlocks := s.pool.FaultTotals()
	jobSeconds, runOccupancy := s.pool.Histograms()
	hits, misses, entries := s.cache.Stats()

	var pps, cps float64
	if sec := busy.Seconds(); sec > 0 {
		pps = float64(points) / sec
		cps = float64(cycles) / sec
	}

	w.Header().Set("Content-Type", obs.PromContentType)
	p := &obs.PromWriter{W: w}
	p.Gauge("mdwd_up_seconds", "Seconds since the daemon started.", time.Since(s.start).Seconds())
	p.Gauge("mdwd_workers", "Size of the simulation worker pool.", float64(s.cfg.Workers))
	states := make([]string, 0, len(counts))
	for st := range counts {
		states = append(states, string(st))
	}
	sort.Strings(states)
	for _, st := range states {
		p.Gauge("mdwd_jobs_"+st, "Jobs currently in the "+st+" state.", float64(counts[JobState(st)]))
	}
	p.Counter("mdwd_cache_hits", "Result-cache hits.", float64(hits))
	p.Counter("mdwd_cache_misses", "Result-cache misses.", float64(misses))
	p.Gauge("mdwd_cache_entries", "Result-cache entries resident in memory.", float64(entries))
	p.Counter("mdwd_points_total", "Independent simulator runs resolved.", float64(points))
	p.Counter("mdwd_simulated_cycles_total", "Simulated cycles across all runs.", float64(cycles))
	p.Counter("mdwd_invariant_violations_total", "Model-invariant checker hits across all runs.", float64(violations))
	p.Counter("mdwd_deadlocks_total", "Watchdog-reported deadlocks across all jobs.", float64(deadlocks))
	p.Counter("mdwd_busy_seconds", "In-job wall time across all workers.", busy.Seconds())
	p.Gauge("mdwd_points_per_sec", "Points resolved per busy second.", pps)
	p.Gauge("mdwd_cycles_per_sec", "Simulated cycles per busy second.", cps)
	p.Histogram("mdwd_job_seconds", "Job wall time in seconds.", jobSeconds)
	p.Histogram("mdwd_run_occupancy", "Peak sampled buffer occupancy per job (CB chunks or IB flits).", runOccupancy)

	// The mdwd_tenant_* families exist only in multi-tenant mode, keeping
	// the single-tenant exposition byte-compatible with older daemons.
	if s.tenants() != nil {
		s.writeTenantMetrics(p)
	}
}

// writeTenantMetrics renders the per-tenant families: one sample per
// configured tenant (zeros before its first request), labelled by tenant
// name.
func (s *Server) writeTenantMetrics(p *obs.PromWriter) {
	byName := make(map[string]TenantStat)
	for _, st := range s.pool.TenantStats() {
		byName[st.Name] = st
	}
	tenants := s.tenants().Tenants()
	sample := func(get func(t *Tenant, st TenantStat) float64) []obs.LabeledSample {
		out := make([]obs.LabeledSample, 0, len(tenants))
		for _, t := range tenants {
			out = append(out, obs.LabeledSample{
				Labels: [][2]string{{"tenant", t.Name}},
				Value:  get(t, byName[t.Name]),
			})
		}
		return out
	}
	s.tcMu.Lock()
	cache := make(map[string]tenantCacheStats, len(s.tcache))
	for name, st := range s.tcache {
		cache[name] = *st
	}
	s.tcMu.Unlock()

	p.LabeledGauge("mdwd_tenant_weight", "Configured fair-share weight per tenant.",
		sample(func(t *Tenant, _ TenantStat) float64 { return float64(t.Weight) }))
	p.LabeledGauge("mdwd_tenant_priority", "Configured priority class per tenant.",
		sample(func(t *Tenant, _ TenantStat) float64 { return float64(t.Priority) }))
	p.LabeledGauge("mdwd_tenant_jobs_queued", "Jobs waiting in each tenant's queue.",
		sample(func(_ *Tenant, st TenantStat) float64 { return float64(st.Queued) }))
	p.LabeledGauge("mdwd_tenant_jobs_running", "Jobs of each tenant running now.",
		sample(func(_ *Tenant, st TenantStat) float64 { return float64(st.Running) }))
	p.LabeledGauge("mdwd_tenant_jobs_completed", "Terminal jobs (done + failed) per tenant.",
		sample(func(_ *Tenant, st TenantStat) float64 { return float64(st.Completed) }))
	p.LabeledGauge("mdwd_tenant_jobs_failed", "Failed jobs per tenant.",
		sample(func(_ *Tenant, st TenantStat) float64 { return float64(st.Failed) }))
	p.LabeledGauge("mdwd_tenant_points_total", "Simulator runs resolved per tenant.",
		sample(func(_ *Tenant, st TenantStat) float64 { return float64(st.Points) }))
	p.LabeledGauge("mdwd_tenant_simulated_cycles_total", "Simulated cycles per tenant.",
		sample(func(_ *Tenant, st TenantStat) float64 { return float64(st.Cycles) }))
	p.LabeledGauge("mdwd_tenant_busy_seconds", "In-job wall time per tenant.",
		sample(func(_ *Tenant, st TenantStat) float64 { return st.Busy.Seconds() }))
	p.LabeledGauge("mdwd_tenant_cache_hits", "Result-cache hits per tenant.",
		sample(func(t *Tenant, _ TenantStat) float64 { return float64(cache[t.Name].hits) }))
	p.LabeledGauge("mdwd_tenant_cache_misses", "Result-cache misses per tenant.",
		sample(func(t *Tenant, _ TenantStat) float64 { return float64(cache[t.Name].misses) }))
}
