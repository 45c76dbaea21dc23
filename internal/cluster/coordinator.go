package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mdworm/internal/core"
	"mdworm/internal/experiments"
	"mdworm/internal/service"
	"mdworm/internal/stats"
)

// Journal record kinds private to the coordinator. All three are unknown to
// ReplayJournal and deliberately skipped on replay: shard records are the
// fleet's dispatch audit trail ("which peer ran which point, how often"),
// while recoverability rides on the job-level accepted/done records. The
// terminal shard kinds are distinct from "done"/"failed" so a /v1/run job —
// whose job hash equals its single shard's hash — cannot have its pending
// state closed out by its shard's completion record alone.
const (
	recShardDispatch = service.RecShard
	recShardDone     = "shard_done"
	recShardFailed   = "shard_failed"
)

// Config parameterizes a coordinator.
type Config struct {
	// Peers are the initial worker base URLs (e.g. "http://10.0.0.2:7077");
	// more may join at runtime through POST /v1/cluster/join.
	Peers []string
	// CacheDir, when non-empty, persists the coordinator's job journal
	// there, giving the fleet "never lost, never double-run" across
	// coordinator restarts.
	CacheDir string
	// CacheEntries bounds the in-memory merged-result cache (0 = 1024).
	CacheEntries int
	// SweepWorkers bounds how many shards one experiment keeps in flight
	// (0 = 4 per peer + 4, refreshed per sweep).
	SweepWorkers int
	// HedgeAfter, when > 0, races one extra attempt on the next ring
	// successor for a shard that has produced no result after this long —
	// bounded straggler insurance, at most one hedge per shard. 0 disables.
	HedgeAfter time.Duration
	// HeartbeatEvery is the peer health-probe period (0 = 1s).
	HeartbeatEvery time.Duration
	// MirrorEvery is the checkpoint-mirror poll period for in-flight shards
	// (0 = 250ms).
	MirrorEvery time.Duration
	// DispatchTimeout bounds one shard attempt's /v1/run round trip
	// (0 = 5m).
	DispatchTimeout time.Duration
	// RetryDelay is the pause before re-asking a busy peer (0 = 250ms).
	RetryDelay time.Duration
	// JournalMaxBytes mirrors service.Config.JournalMaxBytes for the
	// coordinator's journal (0 = service.DefaultJournalMaxBytes; negative
	// disables size-triggered compaction).
	JournalMaxBytes int64
	// Tenants, when non-nil, requires every job-creating request to
	// authenticate with "Authorization: Bearer <key>" against this set,
	// attributes journal records to tenants, and breaks request counters out
	// per tenant on /metrics. Nil = open front door, exactly as before.
	// Worker-side fair-share scheduling is the workers' own -tenants
	// configuration; the coordinator only authenticates and attributes.
	Tenants *service.TenantSet
	// WorkerKey, when non-empty, is presented as "Authorization: Bearer
	// <key>" on every shard dispatch and checkpoint-mirror request, so the
	// workers themselves may run with -tenants (the coordinator then occupies
	// one configured tenant slot there, typically high-weight).
	WorkerKey string
	// Transport, when non-nil, underlies every outbound request — dispatch,
	// checkpoint mirror, health probe. It is the chaos-injection seam: wrap
	// it with internal/chaos to subject the coordinator's view of the fleet
	// to seeded faults. Nil = http.DefaultTransport.
	Transport http.RoundTripper
	// Seed feeds the per-peer breaker jitter PRNGs (each peer's stream is
	// Seed xor a hash of its URL), making backoff schedules reproducible.
	Seed int64
	// BreakerThreshold is the consecutive dispatch failures that open a
	// peer's circuit breaker (0 = 3); BreakerBaseDelay is the first open
	// window (0 = 500ms), doubling per failed half-open trial up to
	// BreakerMaxDelay (0 = 30s).
	BreakerThreshold int
	BreakerBaseDelay time.Duration
	BreakerMaxDelay  time.Duration
	// ProbeTimeout bounds one peer health probe (0 = 2s).
	ProbeTimeout time.Duration
}

// Coordinator is the cluster front end: the same /v1 API surface as a
// single mdwd daemon, backed by a fleet of them.
type Coordinator struct {
	cfg     Config
	peers   *PeerSet
	cache   *service.Cache
	journal *service.Journal // nil without a cache directory
	client  *http.Client
	mux     *http.ServeMux
	start   time.Time

	baseCtx context.Context
	stop    context.CancelFunc

	mu       sync.Mutex
	inflight map[string]*call

	// tmu guards tenantsSeen, the per-tenant request counters (multi-tenant
	// mode only).
	tmu         sync.Mutex
	tenantsSeen map[string]*tenantCounters

	shardsInflight atomic.Int64
	hedges         atomic.Int64
	migrations     atomic.Int64
	jobSeq         atomic.Int64

	draining atomic.Bool
	jobs     sync.WaitGroup
}

// New builds a coordinator, recovers its journal, and starts the peer
// health-probe loop.
func New(cfg Config) (*Coordinator, error) {
	cache, err := service.NewCache(cfg.CacheEntries, "")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	peers := NewPeerSet(nil)
	peers.ConfigureBreakers(breakerConfig{Threshold: cfg.BreakerThreshold,
		BaseDelay: cfg.BreakerBaseDelay, MaxDelay: cfg.BreakerMaxDelay}, cfg.Seed)
	peers.SetProbeTimeout(cfg.ProbeTimeout)
	for _, u := range cfg.Peers {
		peers.Join(u)
	}
	c := &Coordinator{
		cfg:      cfg,
		peers:    peers,
		cache:    cache,
		client:   &http.Client{Transport: cfg.Transport},
		mux:      http.NewServeMux(),
		start:    time.Now(),
		baseCtx:  ctx,
		stop:     cancel,
		inflight: make(map[string]*call),

		tenantsSeen: make(map[string]*tenantCounters),
	}
	if cfg.CacheDir != "" {
		if err := c.recover(); err != nil {
			cancel()
			return nil, err
		}
	}
	c.mux.HandleFunc("POST /v1/run", c.handleRun)
	c.mux.HandleFunc("POST /v1/experiment", c.handleExperiment)
	c.mux.HandleFunc("GET /v1/experiments", service.ListExperiments)
	c.mux.HandleFunc("POST /v1/cluster/join", c.handleJoin)
	c.mux.HandleFunc("GET /v1/cluster/status", c.handleStatus)
	c.mux.HandleFunc("GET /healthz", c.handleHealthz)
	c.mux.HandleFunc("GET /metrics", c.handleMetrics)
	go c.probeLoop()
	return c, nil
}

// Handler returns the coordinator's HTTP handler.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// Close stops the probe loop and background machinery. In-flight shard
// attempts are cut off at their next context check.
func (c *Coordinator) Close() { c.stop() }

// BeginDrain rejects new job-creating requests with 503 while letting
// in-flight work finish.
func (c *Coordinator) BeginDrain() { c.draining.Store(true) }

// Drain stops intake and waits up to timeout for in-flight requests.
func (c *Coordinator) Drain(timeout time.Duration) bool {
	c.BeginDrain()
	done := make(chan struct{})
	go func() { c.jobs.Wait(); close(done) }()
	select {
	case <-done:
		return true
	case <-time.After(timeout):
		return false
	}
}

// probeLoop keeps peer health marks fresh.
func (c *Coordinator) probeLoop() {
	every := c.cfg.HeartbeatEvery
	if every <= 0 {
		every = time.Second
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-c.baseCtx.Done():
			return
		case <-t.C:
			c.peers.ProbeAll(c.baseCtx, c.client)
		}
	}
}

// recover replays the coordinator's journal and closes out what the previous
// process left behind: pending run jobs are re-dispatched in the background
// (worker caches make a re-dispatch of finished-but-unjournaled work a cheap
// cache hit), and pending experiments whose accepted record carries the full
// request are re-resolved headlessly — the sweep re-runs against warm worker
// caches and its completion is journaled, so a client that reconnects with
// the stream token resumes against finished work instead of a failed job.
// Only legacy records with no replayable request are failed outright.
func (c *Coordinator) recover() error {
	j, pending, err := service.RecoverJournal(c.cfg.CacheDir, c.cfg.JournalMaxBytes)
	if err != nil {
		return err
	}
	c.journal = j

	for _, p := range pending {
		switch {
		case p.JobKind == "experiment":
			var req service.ExperimentRequest
			if len(p.Config) == 0 || json.Unmarshal(p.Config, &req) != nil || req.ID == "" {
				c.journal.Append(service.JournalRec{Kind: service.RecFailed, Hash: p.Hash,
					JobKind: p.JobKind, Error: "interrupted by coordinator restart"})
				continue
			}
			c.journal.Append(service.JournalRec{Kind: service.RecAccepted, Hash: p.Hash,
				JobKind: "experiment", Config: p.Config})
			c.jobs.Add(1)
			go func() {
				defer c.jobs.Done()
				_, _, err := c.runSweep(c.baseCtx, req, func(service.StreamEvent) {})
				c.finishJob(req.ID, "experiment", err)
			}()
		case len(p.Config) == 0:
			c.journal.Append(service.JournalRec{Kind: service.RecFailed, Hash: p.Hash,
				JobKind: p.JobKind, Error: "journal carries no configuration for this job"})
		default:
			var canon core.Config
			if err := json.Unmarshal(p.Config, &canon); err != nil {
				c.journal.Append(service.JournalRec{Kind: service.RecFailed, Hash: p.Hash,
					JobKind: "run", Error: fmt.Sprintf("journaled config does not parse: %v", err)})
				continue
			}
			c.journal.Append(service.JournalRec{Kind: service.RecAccepted, Hash: p.Hash,
				JobKind: "run", Config: p.Config})
			hash := p.Hash
			c.jobs.Add(1)
			go func() {
				defer c.jobs.Done()
				_, err := c.resolveShard(c.baseCtx, hash, canon, 0)
				c.finishJob(hash, "run", err)
			}()
		}
	}
	return nil
}

// finishJob writes a job-level terminal record.
func (c *Coordinator) finishJob(hash, jobKind string, err error) {
	rec := service.JournalRec{Kind: service.RecDone, Hash: hash, JobKind: jobKind}
	if err != nil {
		rec.Kind = service.RecFailed
		rec.Error = err.Error()
	}
	c.journal.Append(rec)
}

// rejectDraining answers a job-creating request during shutdown.
func rejectDraining(w http.ResponseWriter) {
	w.Header().Set("Retry-After", "1")
	service.WriteError(w, http.StatusServiceUnavailable, service.APIError{
		Code: "draining", Message: "coordinator is draining", RetryAfterSeconds: 1,
		Retryable: true})
}

// tenantCounters is one tenant's request accounting at the coordinator
// front door.
type tenantCounters struct{ runs, experiments, hits, misses int64 }

// countTenant applies one accounting update for a tenant (multi-tenant mode
// only).
func (c *Coordinator) countTenant(t *service.Tenant, f func(*tenantCounters)) {
	if c.cfg.Tenants == nil {
		return
	}
	c.tmu.Lock()
	defer c.tmu.Unlock()
	tc := c.tenantsSeen[t.Name]
	if tc == nil {
		tc = &tenantCounters{}
		c.tenantsSeen[t.Name] = tc
	}
	f(tc)
}

func (c *Coordinator) handleRun(w http.ResponseWriter, r *http.Request) {
	if c.draining.Load() {
		rejectDraining(w)
		return
	}
	tn, ok := service.Authenticate(w, r, c.cfg.Tenants)
	if !ok {
		return
	}
	req, hash, canon, ok := service.DecodeRun(w, r)
	if !ok {
		return
	}

	if body, ok := c.cache.Get(hash); ok {
		c.countTenant(tn, func(tc *tenantCounters) { tc.runs++; tc.hits++ })
		service.WriteResult(w, "hit", hash, body)
		return
	}
	c.countTenant(tn, func(tc *tenantCounters) { tc.runs++; tc.misses++ })

	canonJSON, err := json.Marshal(canon)
	if err != nil {
		service.WriteError(w, http.StatusInternalServerError, service.APIError{Code: "internal", Message: err.Error()})
		return
	}
	c.jobs.Add(1)
	defer c.jobs.Done()
	c.journal.Append(service.JournalRec{Kind: service.RecAccepted, Hash: hash,
		JobKind: "run", Tenant: tn.Name, Config: canonJSON})
	// The client's deadline bounds how long this handler waits; the original
	// (not remaining) budget is forwarded to workers, where it can become a
	// deterministic cycle budget.
	waitCtx := r.Context()
	if req.DeadlineMillis > 0 {
		var cancel context.CancelFunc
		waitCtx, cancel = context.WithTimeout(waitCtx, time.Duration(req.DeadlineMillis)*time.Millisecond)
		defer cancel()
	}
	res, err := c.resolveShard(waitCtx, hash, canon, req.DeadlineMillis)
	if err != nil {
		if r.Context().Err() != nil {
			// Client gone; the shard continues and its completion will be
			// journaled by whoever owns the singleflight call. The job-level
			// record is closed out by a later identical request or restart
			// re-dispatch — both cache hits.
			return
		}
		if waitCtx.Err() != nil {
			// The client's deadline expired but the shard continues
			// server-side; re-asking eventually lands a cache hit.
			service.WriteError(w, http.StatusGatewayTimeout, service.APIError{Code: "timeout",
				Message:   fmt.Sprintf("deadline of %dms elapsed; job continues, retry for the cached result", req.DeadlineMillis),
				Retryable: true})
			return
		}
		c.finishJob(hash, "run", err)
		// A worker's 422 verdict on the config is answered as the worker gave
		// it; any other failure, a local run's included, as a daemon answers
		// its own.
		var v *verdictError
		if errors.As(err, &v) {
			service.WriteError(w, http.StatusUnprocessableEntity, v.api)
			return
		}
		status, e := service.RunError("", err)
		e.Retryable = IsRetryable(err)
		service.WriteError(w, status, e)
		return
	}
	c.finishJob(hash, "run", nil)
	service.WriteResult(w, "miss", hash, res.body)
}

// sweepWorkers returns the shard fan-out bound for one experiment.
func (c *Coordinator) sweepWorkers() int {
	if c.cfg.SweepWorkers > 0 {
		return c.cfg.SweepWorkers
	}
	return 4*max(c.peers.HealthyCount(), 1) + 4
}

func (c *Coordinator) handleExperiment(w http.ResponseWriter, r *http.Request) {
	if c.draining.Load() {
		rejectDraining(w)
		return
	}
	tn, ok := service.Authenticate(w, r, c.cfg.Tenants)
	if !ok {
		return
	}
	req, ok := service.DecodeExperiment(w, r)
	if !ok {
		return
	}

	c.countTenant(tn, func(tc *tenantCounters) { tc.experiments++ })
	c.jobs.Add(1)
	defer c.jobs.Done()
	reqJSON, _ := json.Marshal(req)
	c.journal.Append(service.JournalRec{Kind: service.RecAccepted, Hash: req.ID,
		JobKind: "experiment", Tenant: tn.Name, Config: reqJSON})

	// The sweep runs on this handler goroutine's pool. Events flow: shard
	// completion (any order) → reorder buffer (table order, 1-based seq) →
	// ndjson stream, with seq <= after_seq filtered out on a resume. The sweep
	// itself runs on the coordinator's context, not the client's: a dropped
	// connection stops the stream but the shards keep resolving into caches
	// and the job is still journaled done, so the client's reconnect (same
	// stream token, its last seq as after_seq) replays only what it missed —
	// from cache, cheaply.
	clientCtx := r.Context()
	sweepCtx := c.baseCtx
	if req.DeadlineMillis > 0 {
		var cancel context.CancelFunc
		sweepCtx, cancel = context.WithTimeout(sweepCtx, time.Duration(req.DeadlineMillis)*time.Millisecond)
		defer cancel()
	}
	send := service.StreamWriter(w)
	emit := func(ev service.StreamEvent) {
		if clientCtx.Err() == nil { // a gone client ends the stream, not the sweep
			send(ev)
		}
	}
	emit(service.StreamEvent{Type: "start", ID: req.ID, Stream: req.Stream,
		Job: fmt.Sprintf("c%d", c.jobSeq.Add(1))})

	tables, st, err := c.runSweep(sweepCtx, req, emit)
	c.finishJob(req.ID, "experiment", err)
	if err != nil {
		emit(service.StreamEvent{Type: "error", ID: req.ID, Err: err.Error(), Retryable: IsRetryable(err)})
		return
	}
	service.EmitResults(emit, req.ID, tables, st)
}

// runSweep resolves one experiment through the cluster: its points are
// shards (see experiments.Options.Resolver), streamed through service.Sweep
// exactly as a single daemon streams them.
func (c *Coordinator) runSweep(ctx context.Context, req service.ExperimentRequest,
	emit func(service.StreamEvent)) ([]*experiments.Table, experiments.SweepStats, error) {
	return service.Sweep(req, experiments.Options{
		Workers: c.sweepWorkers(),
		Context: ctx,
		Resolver: func(cfg core.Config, tag string) (stats.Results, int64, error) {
			hash, canon, err := service.Hash(cfg)
			if err != nil {
				return stats.Results{}, 0, err
			}
			res, err := c.resolveShard(ctx, hash, canon, req.DeadlineMillis)
			if err != nil {
				return stats.Results{}, 0, err
			}
			return res.res, res.cycles, nil
		},
	}, emit)
}

// JoinRequest is the body of POST /v1/cluster/join.
type JoinRequest struct {
	// Peer is the joining worker's base URL as the coordinator should dial
	// it.
	Peer string `json:"peer"`
}

// JoinResponse acknowledges a join with the current membership.
type JoinResponse struct {
	Peers []string `json:"peers"`
}

func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req JoinRequest
	if !service.DecodeJSON(w, r, &req) {
		return
	}
	if !strings.HasPrefix(req.Peer, "http://") && !strings.HasPrefix(req.Peer, "https://") {
		service.WriteError(w, http.StatusBadRequest, service.APIError{Code: "bad_peer",
			Message: fmt.Sprintf("peer %q is not an http(s) base URL", req.Peer)})
		return
	}
	c.peers.Join(strings.TrimRight(req.Peer, "/"))
	views := c.peers.Views()
	urls := make([]string, len(views))
	for i, v := range views {
		urls[i] = v.URL
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(JoinResponse{Peers: urls})
}

// StatusResponse is the body of GET /v1/cluster/status.
type StatusResponse struct {
	Peers           []PeerView `json:"peers"`
	HealthyPeers    int        `json:"healthy_peers"`
	ShardsInflight  int64      `json:"shards_inflight"`
	HedgesTotal     int64      `json:"hedges_total"`
	MigrationsTotal int64      `json:"migrations_total"`
	JournalBytes    int64      `json:"journal_bytes,omitempty"`
	Draining        bool       `json:"draining"`
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	st := StatusResponse{
		Peers:           c.peers.Views(),
		HealthyPeers:    c.peers.HealthyCount(),
		ShardsInflight:  c.shardsInflight.Load(),
		HedgesTotal:     c.hedges.Load(),
		MigrationsTotal: c.migrations.Load(),
		Draining:        c.draining.Load(),
	}
	if c.journal != nil {
		st.JournalBytes = c.journal.Size()
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	service.WriteHealthz(w, c.draining.Load(), 1)
}
