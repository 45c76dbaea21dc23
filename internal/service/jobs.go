package service

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"mdworm/internal/engine"
	"mdworm/internal/obs"
)

// ErrJobPanic wraps a panic escaping a job function. The worker recovers it,
// so one crashing simulation cannot poison its pool slot; the caller maps it
// to a 500.
var ErrJobPanic = errors.New("service: job panicked")

// ErrDraining rejects submissions to a pool that has begun shutdown; the
// handler maps it to 503 with a Retry-After hint.
var ErrDraining = errors.New("service: draining, not accepting new jobs")

// ErrPoolFull rejects submissions beyond the backlog bound; the handler maps
// it to 429 with a Retry-After hint.
var ErrPoolFull = errors.New("service: job backlog full")

// ErrTenantQueueFull rejects a submission beyond the tenant's own queue
// quota; the handler maps it to 429 with a Retry-After computed from that
// tenant's queue alone — a quota-limited tenant is never told to wait for
// other tenants' backlogs.
var ErrTenantQueueFull = errors.New("service: tenant queue quota exceeded")

// ErrJobDeadline fails a job that waited in the queue past the pool's
// per-job deadline instead of running it against a client that gave up long
// ago.
var ErrJobDeadline = errors.New("service: job exceeded its deadline while queued")

// JobState is the lifecycle of a scheduled request.
type JobState string

// Job lifecycle states.
const (
	JobQueued  JobState = "queued"
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
)

// JobStats is what a job reports about the simulation work it performed,
// aggregated into the daemon's /metrics counters.
type JobStats struct {
	// Points is the number of independent simulator runs.
	Points int
	// Cycles is the total simulated cycles across those runs.
	Cycles int64
	// Violations counts model-invariant checker hits across those runs.
	Violations int64
	// Occupancy is the peak sampled buffer occupancy across the job's runs
	// (central-buffer chunks or input-buffer flits; 0 when not sampled).
	Occupancy int
}

// Job is one scheduled unit of work: a single run or an experiment sweep.
// The zero of every field is meaningful to JobView; mutations go through the
// pool's lock.
type Job struct {
	ID     string
	Kind   string // "run" or "experiment"
	Detail string // content hash or experiment id
	Tenant string // owning tenant's name ("" = anonymous)

	state    JobState
	created  time.Time
	started  time.Time
	finished time.Time
	err      error
	stats    JobStats

	fn   func() (JobStats, error)
	done chan struct{}
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// JobView is the JSON projection of a job for /v1/jobs.
type JobView struct {
	ID       string   `json:"id"`
	Kind     string   `json:"kind"`
	Detail   string   `json:"detail"`
	Tenant   string   `json:"tenant,omitempty"`
	State    JobState `json:"state"`
	Created  string   `json:"created"`
	Started  string   `json:"started,omitempty"`
	Finished string   `json:"finished,omitempty"`
	Error    string   `json:"error,omitempty"`
	Points   int      `json:"points,omitempty"`
	Cycles   int64    `json:"simulated_cycles,omitempty"`
	Seconds  float64  `json:"seconds,omitempty"`
}

// tenantQueue is one tenant's slice of the pool: its FIFO backlog, live
// occupancy, scheduling state, and cumulative accounting. Guarded by the
// pool's lock.
type tenantQueue struct {
	name       string
	weight     int
	priority   int
	maxQueued  int
	maxRunning int

	jobs    []*Job
	running int

	// credit is the smooth-weighted-round-robin state: every dispatch round
	// each eligible queue gains its weight, the richest queue wins, and the
	// winner pays the round's total weight — dispatch shares converge to
	// weights with bounded (one-round) unfairness and no starvation.
	credit float64

	// Cumulative accounting for /metrics and per-tenant Retry-After.
	completed int64 // terminal jobs (done + failed)
	failed    int64
	points    int64
	cycles    int64
	busy      time.Duration
}

// eligibleLocked reports whether this queue can supply the next dispatch:
// work queued and in-flight cap not yet reached. Caller holds the pool lock.
func (q *tenantQueue) eligibleLocked() bool {
	return len(q.jobs) > 0 && (q.maxRunning <= 0 || q.running < q.maxRunning)
}

// Pool schedules jobs on a bounded set of workers and keeps their records
// for /v1/jobs. Each tenant owns a FIFO queue; workers dispatch across
// queues by priority class first (strict, but running jobs are never
// preempted) and smooth weighted round-robin within the winning class.
// Submission is rejected once draining begins.
type Pool struct {
	mu       sync.Mutex
	cond     *sync.Cond // job dispatchable, job finished, or drain began
	jobs     map[string]*Job
	order    []string
	seq      int
	draining bool
	workers  int
	backlog  int

	tenants *TenantSet // resolves journal-replayed tenant names; may be nil

	queues      map[string]*tenantQueue
	queueList   []*tenantQueue // creation order: deterministic scheduling
	queuedTotal int

	// deadline, when > 0, bounds how long a job may sit queued: a worker
	// dequeuing a job older than this fails it with ErrJobDeadline instead
	// of running it.
	deadline time.Duration

	// onStart and onFinish observe job state transitions (the journal hooks
	// into them). Set them before the first Submit; they are called outside
	// the pool lock, on the worker goroutine, reading only a job's immutable
	// identity fields.
	onStart  func(j *Job)
	onFinish func(j *Job, err error)

	wg sync.WaitGroup

	// Cumulative accounting for /metrics.
	points     int64
	cycles     int64
	violations int64
	deadlocks  int64
	completed  int64
	busy       time.Duration

	// Distributions for /metrics; guarded by mu, cloned for rendering.
	jobSeconds   *obs.Histogram
	runOccupancy *obs.Histogram
}

// NewPool starts workers goroutines servicing a backlog of pending jobs
// (backlog < 1 gets a small default).
func NewPool(workers, backlog int) *Pool {
	if workers < 1 {
		workers = 1
	}
	if backlog < 1 {
		backlog = 4 * workers
	}
	p := &Pool{
		jobs:    make(map[string]*Job),
		workers: workers,
		backlog: backlog,
		queues:  make(map[string]*tenantQueue),
		// Job latency from 1ms to ~17min; occupancy from one chunk/flit to
		// well past any configured buffer size.
		jobSeconds:   obs.NewHistogram(obs.ExpBuckets(0.001, 4, 10)...),
		runOccupancy: obs.NewHistogram(obs.ExpBuckets(1, 4, 8)...),
	}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// SetTenants installs the tenant table journal replay resolves names
// against. Call before the first Submit.
func (p *Pool) SetTenants(ts *TenantSet) {
	p.mu.Lock()
	p.tenants = ts
	p.mu.Unlock()
}

// UpdateTenants re-points the pool at a reloaded tenant table. Existing
// queues take their tenant's new scheduling parameters in place — queued jobs
// are never dropped or reordered. Queues of removed tenants keep draining
// under their old parameters until idle, at which point they are deleted
// (along with their cumulative accounting); queues of added tenants appear
// lazily on their first submission, as always.
func (p *Pool) UpdateTenants(ts *TenantSet) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.tenants = ts
	for _, t := range ts.Tenants() {
		if q, ok := p.queues[t.Name]; ok {
			q.weight = max(t.Weight, 1)
			q.priority = t.Priority
			q.maxQueued = t.MaxQueued
			q.maxRunning = t.MaxRunning
		}
	}
	keep := p.queueList[:0]
	for _, q := range p.queueList {
		// The anonymous queue is structural, not configured; it stays.
		if q.name != "" && ts.ByName(q.name) == nil && len(q.jobs) == 0 && q.running == 0 {
			delete(p.queues, q.name)
			continue
		}
		keep = append(keep, q)
	}
	p.queueList = keep
	// A raised max-running cap or priority change can make a queue
	// dispatchable right now.
	p.cond.Broadcast()
}

// queueFor returns (creating if needed) the tenant's queue. Caller holds the
// lock.
func (p *Pool) queueFor(t *Tenant) *tenantQueue {
	if t == nil {
		t = anonymous
	}
	q, ok := p.queues[t.Name]
	if !ok {
		q = &tenantQueue{
			name:       t.Name,
			weight:     max(t.Weight, 1),
			priority:   t.Priority,
			maxQueued:  t.MaxQueued,
			maxRunning: t.MaxRunning,
		}
		p.queues[t.Name] = q
		p.queueList = append(p.queueList, q)
	}
	return q
}

// nextLocked picks and dequeues the next job to dispatch, or nil when no
// queue is eligible. The highest priority class with an eligible queue wins
// outright; within the class, smooth weighted round-robin. Caller holds the
// lock.
func (p *Pool) nextLocked() (*Job, *tenantQueue) {
	top := -1
	for _, q := range p.queueList {
		if q.eligibleLocked() && q.priority > top {
			top = q.priority
		}
	}
	if top < 0 {
		return nil, nil
	}
	total := 0
	var pick *tenantQueue
	for _, q := range p.queueList {
		if !q.eligibleLocked() || q.priority != top {
			continue
		}
		total += q.weight
		q.credit += float64(q.weight)
		if pick == nil || q.credit > pick.credit {
			pick = q
		}
	}
	pick.credit -= float64(total)
	j := pick.jobs[0]
	pick.jobs[0] = nil // release the reference for the collector
	pick.jobs = pick.jobs[1:]
	if len(pick.jobs) == 0 {
		pick.jobs = nil // reset the backing array so an idle queue holds nothing
	}
	p.queuedTotal--
	return j, pick
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		var j *Job
		var q *tenantQueue
		for {
			j, q = p.nextLocked()
			if j != nil {
				break
			}
			if p.draining && p.queuedTotal == 0 {
				p.mu.Unlock()
				return
			}
			p.cond.Wait()
		}
		deadline := p.deadline
		waited := time.Since(j.created)
		if deadline > 0 && waited > deadline {
			// The client that queued this gave up long ago; fail it
			// without burning a worker on the simulation.
			j.state = JobFailed
			j.err = fmt.Errorf("%w: waited %s, deadline %s", ErrJobDeadline, waited.Round(time.Millisecond), deadline)
			j.finished = time.Now()
			p.completed++
			q.completed++
			q.failed++
			err := j.err
			p.cond.Broadcast() // queue shrank: drain-waiters must re-check
			p.mu.Unlock()
			if p.onFinish != nil {
				p.onFinish(j, err)
			}
			close(j.done)
			continue
		}
		j.state = JobRunning
		j.started = time.Now()
		q.running++
		p.mu.Unlock()
		if p.onStart != nil {
			p.onStart(j)
		}

		stats, err := runJob(j.fn)

		p.mu.Lock()
		q.running--
		j.finished = time.Now()
		j.stats = stats
		if err != nil {
			j.state = JobFailed
			j.err = err
			q.failed++
		} else {
			j.state = JobDone
		}
		p.points += int64(stats.Points)
		p.cycles += stats.Cycles
		p.violations += stats.Violations
		var de *engine.DeadlockError
		if errors.As(err, &de) {
			p.deadlocks++
		}
		p.completed++
		p.busy += j.finished.Sub(j.started)
		q.completed++
		q.points += int64(stats.Points)
		q.cycles += stats.Cycles
		q.busy += j.finished.Sub(j.started)
		p.jobSeconds.Observe(j.finished.Sub(j.started).Seconds())
		if stats.Occupancy > 0 {
			p.runOccupancy.Observe(float64(stats.Occupancy))
		}
		// A finished job may free an in-flight cap slot or complete a drain.
		p.cond.Broadcast()
		p.mu.Unlock()
		if p.onFinish != nil {
			p.onFinish(j, err)
		}
		close(j.done)
	}
}

// runJob invokes a job function with panic containment: a panic becomes an
// ErrJobPanic-wrapped failure of this job alone.
func runJob(fn func() (JobStats, error)) (st JobStats, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%w: %v", ErrJobPanic, p)
		}
	}()
	return fn()
}

// Submit schedules fn as an anonymous-tenant job — the whole API when no
// tenants are configured, and byte-identical to the pre-tenant pool.
func (p *Pool) Submit(kind, detail string, fn func() (JobStats, error)) (*Job, error) {
	return p.SubmitTenant(kind, detail, nil, fn)
}

// SubmitTenant schedules fn as a new job on t's queue (nil = anonymous) and
// returns its record immediately. It fails with ErrDraining once shutdown
// began, ErrTenantQueueFull past the tenant's queue quota, and ErrPoolFull
// past the global backlog bound (the caller maps those to 503 and 429 with
// Retry-After).
func (p *Pool) SubmitTenant(kind, detail string, t *Tenant, fn func() (JobStats, error)) (*Job, error) {
	if t == nil {
		t = anonymous
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.draining {
		return nil, ErrDraining
	}
	q := p.queueFor(t)
	if q.maxQueued > 0 && len(q.jobs) >= q.maxQueued {
		return nil, fmt.Errorf("%w: tenant %q has %d jobs queued (cap %d)",
			ErrTenantQueueFull, q.name, len(q.jobs), q.maxQueued)
	}
	if p.queuedTotal >= p.backlog {
		return nil, ErrPoolFull
	}
	j := p.enqueueLocked(kind, detail, q, fn)
	p.cond.Signal()
	return j, nil
}

// enqueueLocked creates a job record on q's backlog. Caller holds the lock.
func (p *Pool) enqueueLocked(kind, detail string, q *tenantQueue, fn func() (JobStats, error)) *Job {
	p.seq++
	j := &Job{
		ID:      fmt.Sprintf("j%d", p.seq),
		Kind:    kind,
		Detail:  detail,
		Tenant:  q.name,
		state:   JobQueued,
		created: time.Now(),
		fn:      fn,
		done:    make(chan struct{}),
	}
	q.jobs = append(q.jobs, j)
	p.queuedTotal++
	p.jobs[j.ID] = j
	p.order = append(p.order, j.ID)
	return j
}

// enqueueRecovered schedules a journal-replayed job onto its original
// tenant's queue, bypassing the backlog and quota bounds: recovery runs
// during New, before the HTTP listener exists, and an already-accepted job
// must never be dropped for capacity. A tenant since removed from the
// configuration still gets its own weight-1 queue under the journaled name,
// preserving isolation.
func (p *Pool) enqueueRecovered(kind, detail, tenant string, fn func() (JobStats, error)) *Job {
	p.mu.Lock()
	defer p.mu.Unlock()
	t := p.tenants.ByName(tenant)
	if t == nil {
		t = &Tenant{Name: tenant, Weight: 1}
	}
	j := p.enqueueLocked(kind, detail, p.queueFor(t), fn)
	p.cond.Signal()
	return j
}

// Get returns the job record for id.
func (p *Pool) Get(id string) (JobView, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	j, ok := p.jobs[id]
	if !ok {
		return JobView{}, false
	}
	return p.view(j), true
}

// List returns every job record in submission order.
func (p *Pool) List() []JobView {
	return p.ListTenant("*")
}

// ListTenant returns the job records of one tenant in submission order
// ("*" = every tenant).
func (p *Pool) ListTenant(tenant string) []JobView {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]JobView, 0, len(p.order))
	for _, id := range p.order {
		j := p.jobs[id]
		if tenant != "*" && j.Tenant != tenant {
			continue
		}
		out = append(out, p.view(j))
	}
	return out
}

// view projects a job; caller holds the lock.
func (p *Pool) view(j *Job) JobView {
	v := JobView{
		ID:      j.ID,
		Kind:    j.Kind,
		Detail:  j.Detail,
		Tenant:  j.Tenant,
		State:   j.state,
		Created: j.created.UTC().Format(time.RFC3339Nano),
		Points:  j.stats.Points,
		Cycles:  j.stats.Cycles,
	}
	if !j.started.IsZero() {
		v.Started = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		v.Finished = j.finished.UTC().Format(time.RFC3339Nano)
		if !j.started.IsZero() {
			v.Seconds = j.finished.Sub(j.started).Seconds()
		}
	}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	return v
}

// Counts returns the number of jobs per state.
func (p *Pool) Counts() map[JobState]int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := map[JobState]int{JobQueued: 0, JobRunning: 0, JobDone: 0, JobFailed: 0}
	for _, j := range p.jobs {
		out[j.state]++
	}
	return out
}

// Totals returns the cumulative work accounting: points resolved, simulated
// cycles, and busy (in-job) wall time.
func (p *Pool) Totals() (points, cycles int64, busy time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.points, p.cycles, p.busy
}

// FaultTotals returns the cumulative verification counters: invariant
// checker hits and watchdog-reported deadlocks across all jobs.
func (p *Pool) FaultTotals() (violations, deadlocks int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.violations, p.deadlocks
}

// Histograms returns independent copies of the pool's latency and occupancy
// distributions for rendering.
func (p *Pool) Histograms() (jobSeconds, runOccupancy *obs.Histogram) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.jobSeconds.Clone(), p.runOccupancy.Clone()
}

// TenantStat is one tenant's live and cumulative pool accounting, for the
// mdwd_tenant_* metric families.
type TenantStat struct {
	Name      string
	Weight    int
	Priority  int
	Queued    int
	Running   int
	Completed int64
	Failed    int64
	Points    int64
	Cycles    int64
	Busy      time.Duration
}

// TenantStats returns per-tenant accounting in queue-creation order.
func (p *Pool) TenantStats() []TenantStat {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]TenantStat, 0, len(p.queueList))
	for _, q := range p.queueList {
		out = append(out, TenantStat{
			Name:      q.name,
			Weight:    q.weight,
			Priority:  q.priority,
			Queued:    len(q.jobs),
			Running:   q.running,
			Completed: q.completed,
			Failed:    q.failed,
			Points:    q.points,
			Cycles:    q.cycles,
			Busy:      q.busy,
		})
	}
	return out
}

// Err returns the failure error of a terminal job (nil otherwise); the
// handler inspects it with errors.As to map structured failure codes.
func (p *Pool) Err(id string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if j, ok := p.jobs[id]; ok {
		return j.err
	}
	return nil
}

// BeginDrain stops accepting new jobs; queued and running jobs continue.
func (p *Pool) BeginDrain() {
	p.mu.Lock()
	p.draining = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

// Draining reports whether BeginDrain was called.
func (p *Pool) Draining() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.draining
}

// SetDeadline installs the queued-job deadline (0 disables). Call before
// the first Submit.
func (p *Pool) SetDeadline(d time.Duration) {
	p.mu.Lock()
	p.deadline = d
	p.mu.Unlock()
}

// RetryAfter estimates when a rejected client should try again: the current
// queue depth times the observed mean job cost, divided across the workers,
// clamped to [1s, 5min]. Before any job has finished a conservative default
// cost stands in.
func (p *Pool) RetryAfter() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	depth := 0
	for _, j := range p.jobs {
		if j.state == JobQueued || j.state == JobRunning {
			depth++
		}
	}
	avg := 2 * time.Second
	if p.completed > 0 {
		avg = p.busy / time.Duration(p.completed)
	}
	return clampRetry(time.Duration(float64(depth+1) * float64(avg) / float64(p.workers)))
}

// RetryAfterTenant estimates when a rejected tenant should try again, from
// that tenant's own backlog: its queued+running depth, its own observed mean
// job cost (the pool-wide mean before it has completions), and its
// weight-proportional share of the workers among the currently active
// tenants. Two tenants under asymmetric load therefore receive different
// hints — a quota-limited tenant is never told to wait out other tenants'
// backlogs.
func (p *Pool) RetryAfterTenant(t *Tenant) time.Duration {
	if t == nil {
		t = anonymous
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	depth := 0
	weight := max(t.Weight, 1)
	avg := 2 * time.Second
	if p.completed > 0 {
		avg = p.busy / time.Duration(p.completed)
	}
	q := p.queues[t.Name]
	if q != nil {
		depth = len(q.jobs) + q.running
		weight = q.weight
		if q.completed > 0 {
			avg = q.busy / time.Duration(q.completed)
		}
	}
	// The total weight competing for workers: every active tenant, plus this
	// one whether or not it is active yet (its next request activates it).
	totalW := weight
	for _, other := range p.queueList {
		if other != q && len(other.jobs)+other.running > 0 {
			totalW += other.weight
		}
	}
	effWorkers := float64(p.workers) * float64(weight) / float64(totalW)
	return clampRetry(time.Duration(float64(depth+1) * float64(avg) / effWorkers))
}

// clampRetry bounds a Retry-After estimate to [1s, 5min].
func clampRetry(est time.Duration) time.Duration {
	if est < time.Second {
		return time.Second
	}
	if est > 5*time.Minute {
		return 5 * time.Minute
	}
	return est
}

// Drain stops intake, lets queued and running jobs finish, and waits up to
// timeout for the workers to exit. It reports whether the pool drained fully
// within the deadline (workers still running a job keep running either way;
// the process exiting is the final backstop). Safe to call repeatedly.
func (p *Pool) Drain(timeout time.Duration) bool {
	p.BeginDrain()
	done := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(timeout):
		return false
	}
}
