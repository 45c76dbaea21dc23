package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"mdworm/internal/cluster"
	"mdworm/internal/core"
	"mdworm/internal/experiments"
	"mdworm/internal/service"
	"mdworm/internal/stats"
)

// The cluster_sweep workload: quick-mode experiments streamed one id at a
// time through POST /v1/experiment of an in-process cluster.Coordinator over
// two worker service.Servers with one pool worker each.
var clusterIDs = []string{"e1", "e3", "c1", "c2", "c3", "c4", "c5", "c6"}

const (
	clusterPeers = 2
	// clusterBacklog lets each worker queue the coordinator's whole default
	// shard fan-out (4 per peer + 4), so the workload measures dispatch
	// rather than whole-second busy back-offs.
	clusterBacklog = 4*clusterPeers + 4
)

// clusterSys is one freshly built cluster.
type clusterSys struct {
	workers   []*served
	coord     *cluster.Coordinator
	front     *served
	transport *http.Transport // the benchmark's client
	outbound  *http.Transport // the coordinator's, to the workers
	client    *http.Client
}

// startCluster builds the workers, the coordinator and their listeners, and
// probes each once. rt, when non-nil, wraps the coordinator's outbound
// transport; wrap wraps each worker's handler.
func startCluster(seed uint64, rt func(http.RoundTripper) http.RoundTripper, wrap func(http.Handler) http.Handler) (*clusterSys, error) {
	cs := &clusterSys{transport: &http.Transport{}, outbound: &http.Transport{}}
	cs.client = &http.Client{Transport: cs.transport, Timeout: 5 * time.Minute}
	var urls []string
	for i := 0; i < clusterPeers; i++ {
		srv, err := service.New(service.Config{Workers: 1, Backlog: clusterBacklog})
		if err != nil {
			cs.close()
			return nil, err
		}
		s, err := serve(wrap(srv.Handler()))
		if err != nil {
			cs.close()
			return nil, err
		}
		cs.workers = append(cs.workers, s)
		urls = append(urls, s.url)
	}
	var out http.RoundTripper = cs.outbound
	if rt != nil {
		out = rt(out)
	}
	coord, err := cluster.New(cluster.Config{Peers: urls, Transport: out, Seed: int64(seed)})
	if err != nil {
		cs.close()
		return nil, err
	}
	cs.coord = coord
	if cs.front, err = serve(coord.Handler()); err != nil {
		cs.close()
		return nil, err
	}
	for _, u := range append(urls, cs.front.url) {
		if err := probe(cs.client, u); err != nil {
			cs.close()
			return nil, err
		}
	}
	return cs, nil
}

func (cs *clusterSys) close() {
	if cs.front != nil {
		cs.front.close()
	}
	if cs.coord != nil {
		cs.coord.Close()
	}
	for _, w := range cs.workers {
		w.close()
	}
	cs.transport.CloseIdleConnections()
	cs.outbound.CloseIdleConnections()
}

// status reads the coordinator's hedge and migration totals.
func (cs *clusterSys) status() (cluster.StatusResponse, error) {
	var st cluster.StatusResponse
	resp, err := cs.client.Get(cs.front.url + "/v1/cluster/status")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("GET /v1/cluster/status: %w", err)
	}
	return st, nil
}

// expResult is one streamed experiment.
type expResult struct {
	tables     string
	points     int
	cycles     int64
	start, end time.Time
	latency    time.Duration
}

// streamExperiment runs one experiment through the front door and reads
// its event stream to the end.
func streamExperiment(client *http.Client, url, id string, seed uint64) (*expResult, error) {
	body, _ := json.Marshal(service.ExperimentRequest{ID: id, Quick: true, Seed: seed})
	start := time.Now()
	resp, err := client.Post(url+"/v1/experiment", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("experiment %s: %s: %s", id, resp.Status, bytes.TrimSpace(msg))
	}
	r := &expResult{}
	var tables strings.Builder
	done := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		var ev service.StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("experiment %s: %w", id, err)
		}
		switch ev.Type {
		case "point":
			if ev.Err != "" || ev.Dropped != 0 || ev.Violations != 0 {
				return nil, fmt.Errorf("experiment %s point %s: error %q, %d dropped, %d violations",
					id, ev.Tag, ev.Err, ev.Dropped, ev.Violations)
			}
			r.points++
		case "table":
			tables.WriteString(ev.Text)
		case "done":
			r.cycles, done = ev.Cycles, true
		case "error":
			return nil, fmt.Errorf("experiment %s: %s", id, ev.Err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("experiment %s: %w", id, err)
	}
	if !done {
		return nil, fmt.Errorf("experiment %s: stream ended without a done event", id)
	}
	r.start, r.end = start, time.Now()
	r.latency = r.end.Sub(start)
	r.tables = tables.String()
	return r, nil
}

// clusterPass is one fresh cluster streaming every id once.
type clusterPass struct {
	setup  time.Duration
	wall   time.Duration // sum of the experiments' latencies
	alloc  uint64        // heap bytes the process allocated while streaming
	exps   []*expResult
	cycles int64
	status cluster.StatusResponse // traced passes only
}

func (p *clusterPass) tables() string {
	var b strings.Builder
	for _, x := range p.exps {
		b.WriteString(x.tables)
	}
	return b.String()
}

// dispatch is one coordinator-to-worker POST /v1/run seen by the traced
// transport.
type dispatch struct {
	pass        int
	peer, hash  string
	status      int
	cache       string // the worker's X-Mdwd-Cache answer
	start, end  time.Time
	digestOK    bool
	body, reply []byte // request and answer, kept for 200s
}

// handled is one worker /v1/run handler call.
type handled struct {
	pass        int
	hash, cache string
	dur         time.Duration
}

// dispatchLog collects what the traced seams of a cluster see: the
// coordinator's shard dispatches, the workers' run handlers, and the
// workers' job records.
type dispatchLog struct {
	mu       sync.Mutex
	calls    []dispatch
	handlers []handled
	jobs     []service.JobView
}

// loggedTransport is the traced coordinator transport: it times every shard
// dispatch, reads the answer whole, and checks its body digest.
type loggedTransport struct {
	next http.RoundTripper
	log  *dispatchLog
	pass int
}

func (t loggedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method != http.MethodPost || req.URL.Path != "/v1/run" || req.GetBody == nil {
		return t.next.RoundTrip(req)
	}
	c := dispatch{pass: t.pass, peer: req.URL.Host, start: time.Now()}
	resp, err := t.next.RoundTrip(req)
	if err == nil {
		var body []byte
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(body))
		c.status = resp.StatusCode
		c.hash = resp.Header.Get("X-Mdwd-Hash")
		c.cache = resp.Header.Get("X-Mdwd-Cache")
		sha := resp.Header.Get("X-Mdwd-Body-SHA256")
		c.digestOK = c.status != http.StatusOK || (sha != "" && sha == service.BodySHA(body))
		if c.status == http.StatusOK {
			c.reply = body
			if rc, gerr := req.GetBody(); gerr == nil {
				c.body, _ = io.ReadAll(rc)
				rc.Close()
			}
		}
	}
	c.end = time.Now()
	t.log.mu.Lock()
	t.log.calls = append(t.log.calls, c)
	t.log.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return resp, nil
}

func (d *dispatchLog) workerHandler(pass int) func(http.Handler) http.Handler {
	return func(h http.Handler) http.Handler {
		return timed(h, func(r *http.Request, hdr http.Header, start, end time.Time) {
			if r.URL.Path == "/v1/run" {
				d.mu.Lock()
				d.handlers = append(d.handlers, handled{pass, hdr.Get("X-Mdwd-Hash"), hdr.Get("X-Mdwd-Cache"), end.Sub(start)})
				d.mu.Unlock()
			}
		})
	}
}

// probeWorkers runs after a traced pass's streaming. It reads every
// worker's job records, then sends each answered shard request of the pass
// straight back to its worker. The worker must answer from its cache with a
// valid digest and the bytes it answered first: the service's hit path, on
// the workload's own requests.
func (d *dispatchLog) probeWorkers(cs *clusterSys, pass int) error {
	for _, w := range cs.workers {
		jobs, err := listJobs(cs.client, w.url)
		if err != nil {
			return err
		}
		d.mu.Lock()
		d.jobs = append(d.jobs, jobs...)
		d.mu.Unlock()
	}
	d.mu.Lock()
	var calls []dispatch
	for _, c := range d.calls {
		if c.pass == pass && c.status == http.StatusOK && c.body != nil {
			calls = append(calls, c)
		}
	}
	d.mu.Unlock()
	for _, c := range calls {
		resp, err := cs.client.Post("http://"+c.peer+"/v1/run", "application/json", bytes.NewReader(c.body))
		if err != nil {
			return err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Mdwd-Cache") != "hit" ||
			resp.Header.Get("X-Mdwd-Body-SHA256") != service.BodySHA(body) || !bytes.Equal(body, c.reply) {
			return fmt.Errorf("repeated shard %s on %s: %s, cache %q, digest or body differs from the first answer",
				c.hash, c.peer, resp.Status, resp.Header.Get("X-Mdwd-Cache"))
		}
	}
	return nil
}

// runClusterPass builds a cluster and streams every id through it. With a
// log, the coordinator's dispatches and the workers' handlers are timed and
// each experiment becomes a span.
func runClusterPass(e *env, log *dispatchLog, pass int) (*clusterPass, error) {
	var rt func(http.RoundTripper) http.RoundTripper
	wrap := func(h http.Handler) http.Handler { return h }
	if log != nil {
		rt = func(next http.RoundTripper) http.RoundTripper { return loggedTransport{next, log, pass} }
		wrap = log.workerHandler(pass)
	}
	t0 := time.Now()
	cs, err := startCluster(e.seed, rt, wrap)
	if err != nil {
		return nil, fmt.Errorf("start cluster: %w", err)
	}
	defer cs.close()
	p := &clusterPass{setup: time.Since(t0)}
	alloc := heapAllocated()
	for _, id := range clusterIDs {
		x, err := streamExperiment(cs.client, cs.front.url, id, e.seed)
		if err != nil {
			return nil, err
		}
		if log != nil {
			e.tr.add(0, "cluster.experiment", id, x.start, x.end)
		}
		p.exps = append(p.exps, x)
		p.wall += x.latency
		p.cycles += x.cycles
	}
	p.alloc = heapAllocated() - alloc
	if log != nil {
		if p.status, err = cs.status(); err != nil {
			return nil, err
		}
		if err := log.probeWorkers(cs, pass); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// clusterPasses repeats fresh-cluster passes until e.seconds have been
// measured; every pass must stream the same tables.
func clusterPasses(e *env, log *dispatchLog) ([]*clusterPass, time.Duration, error) {
	var passes []*clusterPass
	var measured time.Duration
	for len(passes) == 0 || measured < e.seconds {
		p, err := runClusterPass(e, log, len(passes))
		if err != nil {
			return nil, 0, err
		}
		if len(passes) > 0 && (p.tables() != passes[0].tables() || p.cycles != passes[0].cycles) {
			return nil, 0, fmt.Errorf("cluster pass %d differs from pass 1 at the same seed", len(passes)+1)
		}
		passes = append(passes, p)
		measured += p.wall
	}
	return passes, measured, nil
}

// clusterReference resolves the ids in process, one sweep worker, and
// returns the rendered tables and the content hashes of the standard points.
func clusterReference(seed uint64) (string, map[string]bool, error) {
	hashes := map[string]bool{}
	opts := experiments.Options{Quick: true, Seed: seed, Workers: 1,
		Resolver: func(cfg core.Config, tag string) (stats.Results, int64, error) {
			hash, canon, err := service.Hash(cfg)
			if err != nil {
				return stats.Results{}, 0, err
			}
			hashes[hash] = true
			sim, err := core.New(canon)
			if err != nil {
				return stats.Results{}, 0, err
			}
			res, err := sim.Run()
			return res, sim.Now(), err
		}}
	tables, _, err := experiments.RunIDs(clusterIDs, opts)
	if err != nil {
		return "", nil, fmt.Errorf("in-process reference: %w", err)
	}
	var b strings.Builder
	for _, t := range tables {
		t.Format(&b)
	}
	return b.String(), hashes, nil
}

func clusterWorkload(e *env) (*outcome, error) {
	passes, measured, err := clusterPasses(e, nil)
	if err != nil {
		return nil, err
	}
	ref, hashes, err := clusterReference(e.seed)
	if err != nil {
		return nil, err
	}
	if passes[0].tables() != ref {
		return nil, fmt.Errorf("cluster tables differ from the same ids resolved in process")
	}
	var setup, lat, alloc sample
	for _, p := range passes {
		setup.addDur(p.setup, time.Second)
		lat.addDur(p.wall, time.Millisecond)
		alloc.add(float64(p.alloc) / 1024 / float64(len(clusterIDs)))
	}
	o := &outcome{attempted: len(passes) * len(clusterIDs), counts: map[string]int64{"engine.sim_cycles": passes[0].cycles}}
	if e.tr == nil {
		// Rates come from the median pass, as for the sweeps.
		tail, pct := lat.tail()
		pass := lat.median() / 1000
		o.metrics = map[string]float64{
			"sim_cycles_per_s": float64(passes[0].cycles) / pass,
			"ok_per_s":         float64(len(clusterIDs)) / pass,
			"latency_p50_ms":   lat.median(),
			"latency_tail_ms":  tail,
			"setup_s":          setup.median(),
			"alloc_kb_per_op":  alloc.median(),
		}
		o.note("%d passes of %s, %d points and %d simulated cycles per pass, %.3f s measured",
			len(passes), strings.Join(clusterIDs, ","), passes[0].points(), passes[0].cycles, measured.Seconds())
		o.note("latency: host time to stream the whole set, n=%d passes, tail = p%g", len(lat), pct)
		o.note("setup: %d workers, coordinator, listeners and first healthy probes; median of %d", clusterPeers, len(setup))
		return o, nil
	}
	return tracedCluster(e, passes, measured, hashes, o)
}

func (p *clusterPass) points() int {
	n := 0
	for _, x := range p.exps {
		n += x.points
	}
	return n
}

// tracedCluster repeats the passes with the dispatch log installed.
func tracedCluster(e *env, base []*clusterPass, baseMeasured time.Duration, hashes map[string]bool, o *outcome) (*outcome, error) {
	log := &dispatchLog{}
	passes, measured, err := clusterPasses(e, log)
	if err != nil {
		return nil, err
	}
	if passes[0].tables() != base[0].tables() || passes[0].cycles != base[0].cycles {
		return nil, fmt.Errorf("traced cluster tables differ from the untraced ones")
	}
	log.mu.Lock()
	defer log.mu.Unlock()
	var disp, handler sample
	answered := map[string]bool{}
	type passPeer struct {
		pass int
		peer string
	}
	perPeer := map[passPeer]int{} // answers per pass and peer
	busy, oks, badDigest := 0, 0, 0
	for _, c := range log.calls {
		e.tr.add(0, "cluster.dispatch", c.peer+"/"+c.hash, c.start, c.end)
		disp.addDur(c.end.Sub(c.start), time.Millisecond)
		switch {
		case !c.digestOK:
			badDigest++
		case c.status == http.StatusTooManyRequests || c.status == http.StatusGatewayTimeout:
			busy++
		case c.status == http.StatusOK:
			oks++
			perPeer[passPeer{c.pass, c.peer}]++
			answered[c.hash] = true
		}
	}
	if badDigest > 0 {
		return nil, fmt.Errorf("%d worker answers carried a missing or wrong body digest", badDigest)
	}
	// Worker handler times by class. Shard dispatches are the misses; the
	// repeated requests of probeWorkers are the hits.
	type passHash struct {
		pass int
		hash string
	}
	missHandler := map[passHash]time.Duration{}
	var hitHandler sample
	for _, h := range log.handlers {
		switch h.cache {
		case "miss":
			handler.addDur(h.dur, time.Millisecond)
			missHandler[passHash{h.pass, h.hash}] = h.dur
		case "hit":
			hitHandler.addDur(h.dur, time.Millisecond)
		}
	}
	var overhead sample
	var bodies, answers [][]byte
	for _, c := range log.calls {
		if c.status != http.StatusOK {
			continue
		}
		bodies, answers = append(bodies, c.body), append(answers, c.reply)
		if h, ok := missHandler[passHash{c.pass, c.hash}]; ok && c.cache == "miss" {
			overhead.addDur(c.end.Sub(c.start)-h, time.Millisecond)
		}
	}
	var queue, runMs sample
	for _, j := range log.jobs {
		if j.Kind != "run" || j.State != service.JobDone {
			continue
		}
		created, started, finished, err := jobTimes(j)
		if err != nil {
			return nil, err
		}
		queue.addDur(started.Sub(created), time.Millisecond)
		runMs.addDur(finished.Sub(started), time.Millisecond)
	}
	rp := replay(bodies, answers)
	// The busiest peer's share of each pass's answers, over all passes.
	busiest := make([]int, len(passes))
	for k, n := range perPeer {
		busiest[k.pass] = max(busiest[k.pass], n)
	}
	top := 0
	for _, n := range busiest {
		top += n
	}
	local := 0
	for h := range hashes {
		if !answered[h] {
			local++
		}
	}
	var hedges, migrations int64
	for _, p := range passes {
		hedges += p.status.HedgesTotal
		migrations += p.status.MigrationsTotal
	}
	dispTail, dispPct := disp.tail()
	handlerTail, _ := handler.tail()
	queueTail, _ := queue.tail()
	baseMean := baseMeasured.Seconds() / float64(len(base))
	mean := measured.Seconds() / float64(len(passes))
	o.attempted += len(passes) * len(clusterIDs)
	o.metrics = map[string]float64{
		"bench.trace_overhead_pct":      100 * (mean - baseMean) / baseMean,
		"engine.sim_cycles":             float64(passes[0].cycles),
		"cluster.dispatch_ms_p50":       disp.median(),
		"cluster.dispatch_ms_tail":      dispTail,
		"cluster.worker_handler_ms_p50": handler.median(),
		"cluster.attempts_per_shard":    float64(len(log.calls)) / float64(max(oks, 1)),
		"cluster.busy_retries":          float64(busy),
		"cluster.peer_share_max":        float64(top) / float64(max(oks, 1)),
		"cluster.hedges":                float64(hedges),
		"cluster.migrations":            float64(migrations),
		"cluster.local_points":          float64(local),

		"service.queue_wait_ms_p50":    queue.median(),
		"service.queue_wait_ms_tail":   queueTail,
		"service.job_run_ms_p50":       runMs.median(),
		"service.miss_handler_ms_p50":  handler.median(),
		"service.miss_handler_ms_tail": handlerTail,
		"service.hit_handler_ms_p50":   hitHandler.median(),
		"http.client_overhead_ms_p50":  overhead.median(),
		"service.hash_us_p50":          rp.hash.median(),
		"service.body_sha_us_p50":      rp.sha.median(),
		"service.cache_get_us_p50":     rp.get.median(),
	}
	o.note("traced: %d passes, %d dispatches (%d answered 200, %d busy), dispatch tail = p%g; %d standard-point configs, %d never dispatched",
		len(passes), len(log.calls), oks, busy, dispPct, len(hashes), local)
	o.note("workers: %d miss handlers, %d hit handlers (each answered shard repeated to its worker), %d job records; %d dispatches matched to their handler; %d bodies replayed through Hash, BodySHA and Cache.Get",
		len(handler), len(hitHandler), len(queue), len(overhead), len(rp.hash))
	return o, nil
}
