// Command mdwd is the simulation-as-a-service daemon: a long-running HTTP
// server over the mdworm simulator and experiment suite, with a bounded
// worker pool and a content-addressed result cache (deterministic runs make
// results perfectly cacheable — an identical config is served from cache,
// byte-identical to the original computation).
//
// Start it, then drive it with curl or mdwbench -daemon:
//
//	mdwd -addr :8080 -cache-dir /var/cache/mdwd &
//	curl -s localhost:8080/v1/run -d '{"config":{"arch":"cb","load":0.2}}'
//	mdwbench -daemon http://localhost:8080 -exp e1 -quick
//
// Endpoints: POST /v1/run, POST /v1/experiment (streamed JSON lines),
// GET /v1/experiments, GET /v1/jobs, GET /v1/jobs/{id}, GET /healthz,
// GET /metrics. See the README "Run as a service" section for the full
// reference.
//
// Cluster mode scales the same API across machines: `mdwd -coordinator
// -peers=http://w1:8080,http://w2:8080` serves /v1/run and /v1/experiment by
// sharding work over the peer worker daemons (consistent hashing on the
// config hash keeps each worker's cache hot on a disjoint key range), while
// plain worker daemons may also announce themselves to a coordinator with
// `-join http://coord:8080`. mdwbench -daemon works unchanged against either
// mode. See the README "Cluster mode" section.
//
// SIGINT/SIGTERM drain gracefully: new jobs are rejected, running jobs
// finish (up to -drain-timeout), and the process exits 0. SIGHUP re-reads
// the -tenants file in place: keys, weights, and quotas change without
// dropping queued jobs, and an invalid file is rejected with a logged error
// while the previous table stays live.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"mdworm/internal/chaos"
	"mdworm/internal/cluster"
	"mdworm/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// daemon is the mode-independent surface run needs: both service.Server
// (single node) and cluster.Coordinator satisfy it.
type daemon interface {
	Handler() http.Handler
	BeginDrain()
	Drain(time.Duration) bool
}

// run is main with its environment made explicit; ready (when non-nil)
// receives the listen address once the server is up (tests use it).
func run(args []string, stdout, stderr io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("mdwd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", ":8080", "listen address")
		workers      = fs.Int("workers", runtime.GOMAXPROCS(0), "concurrent simulation jobs")
		backlog      = fs.Int("backlog", 0, "queued-job bound (0 = 4*workers)")
		cacheEntries = fs.Int("cache-entries", 1024, "in-memory result cache entries")
		cacheDir     = fs.String("cache-dir", "", "persist results in this directory (survives restarts)")
		maxCycles    = fs.Int64("max-cycles", 5_000_000, "per-request simulated-cycle ceiling (0 = unlimited)")
		runTimeout   = fs.Duration("run-timeout", 2*time.Minute, "how long /v1/run waits before handing the job to the background")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "grace period for in-flight jobs on shutdown")
		ckptEvery    = fs.Int64("checkpoint-every", 0, "checkpoint running jobs every N simulated cycles so a restart resumes them (needs -cache-dir; 0 = off)")
		jobDeadline  = fs.Duration("job-deadline", 0, "fail jobs that waited queued longer than this instead of running them (0 = no deadline)")
		journalMax   = fs.Int64("journal-max-bytes", 0, "compact the job journal once it exceeds this size (0 = 8MiB, negative = only at restart)")
		tenantsFile  = fs.String("tenants", "", "multi-tenant mode: tenants file (\"<key> <name> <weight> [priority=N] [max-queued=N] [max-running=N]\" per line); requests must then send \"Authorization: Bearer <key>\"")
		workerKey    = fs.String("worker-key", "", "coordinator: API key presented to workers on shard dispatch (needed when the workers run with -tenants)")

		coordinator = fs.Bool("coordinator", false, "serve as a cluster coordinator sharding work across -peers instead of simulating locally")
		peers       = fs.String("peers", "", "comma-separated worker base URLs for -coordinator (more may join via /v1/cluster/join)")
		join        = fs.String("join", "", "coordinator base URL this worker announces itself to (repeating every -heartbeat)")
		advertise   = fs.String("advertise", "", "base URL the coordinator should dial this worker at (default http://127.0.0.1:<port>)")
		heartbeat   = fs.Duration("heartbeat", time.Second, "peer health-probe and join-announce period")
		hedgeAfter  = fs.Duration("hedge-after", 0, "coordinator: race one extra attempt for a shard still unresolved after this long (0 = off)")

		chaosSpec   = fs.String("chaos", "", `inject seeded network faults: semicolon-separated "kind@at[+dur]:target[*param]" events (kinds: latency, partition, drop, slow-close, corrupt; target: label, "a-b" pair, or "*")`)
		chaosSeed   = fs.Int64("chaos-seed", 1, "seed for chaos fault decisions and breaker jitter (same seed = same schedule)")
		chaosLabel  = fs.String("chaos-label", "", `this node's label in -chaos targets (default "coordinator" or "worker"; a coordinator labels its -peers "worker1".."workerN" in order)`)
		deadlineCPS = fs.Float64("deadline-cycles-per-sec", 0, "convert a client deadline_ms into a deterministic simulated-cycle budget at this rate (0 = deadlines only bound the wall-clock wait)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// Flags only one mode reads, each mapped to whether that mode is
	// -coordinator: set in the other mode they would be silently ignored.
	modeOnly := map[string]bool{"peers": true, "hedge-after": true, "worker-key": true,
		"workers": false, "backlog": false, "max-cycles": false, "run-timeout": false,
		"checkpoint-every": false, "job-deadline": false, "deadline-cycles-per-sec": false}
	misplaced := ""
	fs.Visit(func(f *flag.Flag) {
		if coord, ok := modeOnly[f.Name]; ok && coord != *coordinator && misplaced == "" {
			misplaced = f.Name
		}
	})
	if misplaced != "" {
		fmt.Fprintf(stderr, "mdwd: -%s has no effect with -coordinator=%v\n", misplaced, *coordinator)
		return 2
	}
	if *ckptEvery > 0 && *cacheDir == "" {
		fmt.Fprintln(stderr, "mdwd: -checkpoint-every needs -cache-dir (checkpoints and the job journal live there)")
		return 2
	}
	if *coordinator && *join != "" {
		fmt.Fprintln(stderr, "mdwd: -coordinator and -join are mutually exclusive (a daemon is either the coordinator or a worker)")
		return 2
	}

	var inj *chaos.Injector
	if *chaosSpec != "" {
		label := *chaosLabel
		if label == "" {
			if *coordinator {
				label = "coordinator"
			} else {
				label = "worker"
			}
		}
		in, err := chaos.NewFromSpec(*chaosSpec, *chaosSeed, label)
		if err != nil {
			fmt.Fprintln(stderr, "mdwd:", err)
			return 2
		}
		inj = in
	}

	var tenants *service.TenantSet
	if *tenantsFile != "" {
		ts, err := service.LoadTenants(*tenantsFile)
		if err != nil {
			fmt.Fprintln(stderr, "mdwd:", err)
			return 2
		}
		tenants = ts
	}

	var (
		srv  daemon
		mode string
	)
	if *coordinator {
		var peerList []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimRight(strings.TrimSpace(p), "/"); p != "" {
				peerList = append(peerList, p)
			}
		}
		// Under -chaos, the coordinator's outbound transport is the fault
		// surface: its -peers are labeled worker1..workerN in flag order, so
		// specs like "partition@1s+3s:coordinator-worker1" name real links.
		var transport http.RoundTripper
		if inj != nil {
			byHost := make(map[string]string, len(peerList))
			for i, p := range peerList {
				if u := strings.TrimPrefix(strings.TrimPrefix(p, "http://"), "https://"); u != "" {
					byHost[u] = fmt.Sprintf("worker%d", i+1)
				}
			}
			transport = inj.Transport(nil, func(r *http.Request) string {
				return byHost[r.URL.Host]
			})
		}
		coord, err := cluster.New(cluster.Config{
			Peers:           peerList,
			CacheDir:        *cacheDir,
			CacheEntries:    *cacheEntries,
			HedgeAfter:      *hedgeAfter,
			HeartbeatEvery:  *heartbeat,
			JournalMaxBytes: *journalMax,
			Tenants:         tenants,
			WorkerKey:       *workerKey,
			Transport:       transport,
			Seed:            *chaosSeed,
		})
		if err != nil {
			fmt.Fprintln(stderr, "mdwd:", err)
			return 1
		}
		defer coord.Close()
		srv = coord
		mode = fmt.Sprintf("coordinator, peers=%d", len(peerList))
	} else {
		s, err := service.New(service.Config{
			Workers:              *workers,
			Backlog:              *backlog,
			CacheEntries:         *cacheEntries,
			CacheDir:             *cacheDir,
			MaxCycles:            *maxCycles,
			RunTimeout:           *runTimeout,
			CheckpointEvery:      *ckptEvery,
			JobDeadline:          *jobDeadline,
			JournalMaxBytes:      *journalMax,
			Tenants:              tenants,
			DeadlineCyclesPerSec: *deadlineCPS,
		})
		if err != nil {
			fmt.Fprintln(stderr, "mdwd:", err)
			return 1
		}
		srv = s
		mode = fmt.Sprintf("workers=%d", *workers)
	}
	if tenants != nil {
		mode += fmt.Sprintf(", tenants=%d", len(tenants.Tenants()))
	}

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	ln, err := newListener(hs)
	if err != nil {
		fmt.Fprintln(stderr, "mdwd:", err)
		return 1
	}
	if inj != nil {
		if !*coordinator {
			// Workers take chaos at the accept side: every inbound conn is
			// subject to events targeting this node's label.
			ln = inj.Listener(ln)
		}
		fmt.Fprintf(stdout, "mdwd: chaos enabled (label=%s, seed=%d): %s\n",
			inj.Label(), *chaosSeed, *chaosSpec)
	}
	fmt.Fprintf(stdout, "mdwd: listening on %s (%s, cache=%d entries, dir=%q)\n",
		ln.Addr(), mode, *cacheEntries, *cacheDir)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *tenantsFile != "" {
		if rl, ok := srv.(tenantReloader); ok {
			hup := make(chan os.Signal, 1)
			signal.Notify(hup, syscall.SIGHUP)
			defer signal.Stop(hup)
			go hupLoop(ctx, hup, rl, *tenantsFile, stdout, stderr)
		} else {
			fmt.Fprintln(stderr, "mdwd: note: coordinator mode does not hot-reload -tenants on SIGHUP")
		}
	}

	if *join != "" {
		self := *advertise
		if self == "" {
			self = advertiseURL(ln.Addr())
		}
		go joinLoop(ctx, strings.TrimRight(*join, "/"), self, *heartbeat, stderr)
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintln(stderr, "mdwd:", err)
		return 1
	case <-ctx.Done():
	}

	// Graceful shutdown: refuse new jobs immediately, then let in-flight
	// requests (and the jobs they wait on) finish within the grace period.
	fmt.Fprintln(stdout, "mdwd: draining (new jobs rejected)")
	srv.BeginDrain()
	shCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(shCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(stderr, "mdwd: shutdown:", err)
	}
	if srv.Drain(*drainTimeout) {
		fmt.Fprintln(stdout, "mdwd: drained cleanly")
	} else {
		fmt.Fprintln(stderr, "mdwd: drain deadline exceeded, abandoning remaining jobs")
	}
	return 0
}

// tenantReloader is the daemon capability behind SIGHUP: service.Server
// implements it; the cluster coordinator (whose tenants gate dispatch, not
// queues) does not yet.
type tenantReloader interface {
	ReloadTenants(*service.TenantSet) error
}

// hupLoop re-reads the tenants file on every SIGHUP. A file that fails to
// parse (or validate) is rejected with a logged error and the previous table
// stays live — a bad edit must never lock every client out.
func hupLoop(ctx context.Context, hup <-chan os.Signal, rl tenantReloader, path string, stdout, stderr io.Writer) {
	for {
		select {
		case <-ctx.Done():
			return
		case <-hup:
			ts, err := service.LoadTenants(path)
			if err != nil {
				fmt.Fprintf(stderr, "mdwd: tenants reload rejected, keeping previous table: %v\n", err)
				continue
			}
			if err := rl.ReloadTenants(ts); err != nil {
				fmt.Fprintf(stderr, "mdwd: tenants reload rejected: %v\n", err)
				continue
			}
			fmt.Fprintf(stdout, "mdwd: tenants reloaded from %s (%d tenants)\n", path, len(ts.Tenants()))
		}
	}
}

// advertiseURL derives a dialable base URL from the bound listen address: a
// wildcard host becomes the loopback (right for single-machine clusters and
// CI; multi-machine deployments pass -advertise explicitly).
func advertiseURL(a net.Addr) string {
	host, port, err := net.SplitHostPort(a.String())
	if err != nil {
		return "http://" + a.String()
	}
	ip := net.ParseIP(host)
	if host == "" || host == "::" || (ip != nil && ip.IsUnspecified()) {
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port)
}

// joinLoop announces this worker to the coordinator immediately and then on
// every heartbeat — the join doubles as a liveness signal, and a restarted
// coordinator relearns its fleet within one period without configuration.
func joinLoop(ctx context.Context, coord, self string, every time.Duration, stderr io.Writer) {
	if every <= 0 {
		every = time.Second
	}
	client := &http.Client{Timeout: 5 * time.Second}
	body := fmt.Sprintf(`{"peer":%q}`, self)
	announced := false
	post := func() {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			coord+"/v1/cluster/join", bytes.NewReader([]byte(body)))
		if err != nil {
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			return
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK && !announced {
			announced = true
			fmt.Fprintf(stderr, "mdwd: joined cluster at %s as %s\n", coord, self)
		}
	}
	post()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			post()
		}
	}
}
