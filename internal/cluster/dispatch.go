package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"mdworm/internal/core"
	"mdworm/internal/service"
	"mdworm/internal/stats"
)

// The shard dispatcher.
//
// One shard = one canonical configuration = one /v1/run on some worker. The
// consistent-hash ring names the shard's owner; the dispatcher walks the
// owner's ring-successor sequence when the owner is down or dies mid-run
// (migration), optionally races one bounded hedge attempt against a straggler,
// and deduplicates concurrent requests for the same hash through a
// singleflight table. While a shard is in flight its worker's checkpoint blob
// is mirrored into coordinator memory, so a worker killed without warning
// (kill -9 — its disk unreachable) still leaves the coordinator a blob to
// resume the migrated shard from. Determinism makes every path — scratch
// re-run, checkpoint resume, hedge winner — produce byte-identical results.

// shardResult is one resolved shard: the worker's raw response body (for
// forwarding through /v1/run verbatim) plus its decoded measurement.
type shardResult struct {
	body   []byte
	res    stats.Results
	cycles int64
}

// call is one in-flight singleflight entry.
type call struct {
	done chan struct{}
	res  shardResult
	err  error
}

// mirror holds the latest checkpoint blob pulled from a shard's worker.
type mirror struct {
	mu   sync.Mutex
	blob []byte
}

func (m *mirror) set(b []byte) {
	if len(b) == 0 {
		return
	}
	m.mu.Lock()
	m.blob = b
	m.mu.Unlock()
}

func (m *mirror) get() []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.blob
}

// retryableError marks a shard failure as infrastructure-transient:
// repeating the identical request (after peers heal or breakers close) can
// succeed. Config-level failures (deadlock, invariant violation, budget)
// are never wrapped in it.
type retryableError struct{ err error }

func (e *retryableError) Error() string { return e.err.Error() }
func (e *retryableError) Unwrap() error { return e.err }

// verdictError is a worker's 422 verdict on a config (deadlock, invariant
// violation, exceeded budget): the client gets the worker's structured
// error, as from a single daemon, while the journal and stream events carry
// the dispatch error string.
type verdictError struct {
	msg string
	api service.APIError
}

func (e *verdictError) Error() string { return e.msg }

// IsRetryable reports whether err represents a transient cluster condition
// (dead peers, exhausted attempt budgets, timeouts) rather than a property
// of the request itself.
func IsRetryable(err error) bool {
	var re *retryableError
	return errors.As(err, &re) ||
		errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// resolveShard resolves one canonical config through the cluster: cache,
// then singleflight, then dispatch. ctx is the requesting client's context —
// it bounds this caller's wait, never the shard itself, which (like a
// single-node job whose client hung up) runs to completion and populates the
// cache and journal for whoever asks next. deadlineMillis, when > 0, is the
// originating client's total budget, forwarded verbatim to workers (where
// it can become a deterministic cycle budget); under singleflight the first
// caller's value rides the shard.
func (c *Coordinator) resolveShard(ctx context.Context, hash string, canon core.Config, deadlineMillis int64) (shardResult, error) {
	if body, ok := c.cache.Get(hash); ok {
		return decodeShard(body)
	}
	c.mu.Lock()
	if cl, ok := c.inflight[hash]; ok {
		c.mu.Unlock()
		select {
		case <-cl.done:
			return cl.res, cl.err
		case <-ctx.Done():
			return shardResult{}, ctx.Err()
		}
	}
	cl := &call{done: make(chan struct{})}
	c.inflight[hash] = cl
	c.mu.Unlock()

	go func() {
		cl.res, cl.err = c.runShard(hash, canon, deadlineMillis)
		c.mu.Lock()
		delete(c.inflight, hash)
		c.mu.Unlock()
		close(cl.done)
	}()
	select {
	case <-cl.done:
		return cl.res, cl.err
	case <-ctx.Done():
		return shardResult{}, ctx.Err()
	}
}

// runShard executes one shard to completion: primary attempt sequence on the
// ring owner, at most one hedge sequence on the next ring successor after
// HedgeAfter without a result, first success wins. Exactly one done (or
// failed) journal record is written per shard, here and only here — attempt
// sequences write only RecShard dispatch-audit records.
func (c *Coordinator) runShard(hash string, canon core.Config, deadlineMillis int64) (shardResult, error) {
	c.shardsInflight.Add(1)
	defer c.shardsInflight.Add(-1)

	m := &mirror{}
	type outcome struct {
		res shardResult
		err error
	}
	results := make(chan outcome, 2)
	launch := func(start int) {
		go func() {
			res, err := c.attemptFrom(hash, canon, start, m, deadlineMillis)
			results <- outcome{res, err}
		}()
	}
	launch(0)
	outstanding := 1
	var hedge <-chan time.Time
	if c.cfg.HedgeAfter > 0 {
		t := time.NewTimer(c.cfg.HedgeAfter)
		defer t.Stop()
		hedge = t.C
	}
	var lastErr error
	for outstanding > 0 {
		select {
		case out := <-results:
			outstanding--
			if out.err == nil {
				c.finishShard(hash, nil)
				c.cache.Put(hash, out.res.body)
				return out.res, nil
			}
			lastErr = out.err
		case <-hedge:
			hedge = nil
			c.hedges.Add(1)
			c.journal.Append(service.JournalRec{Kind: recShardDispatch, Hash: hash,
				JobKind: "shard", Error: "hedge"})
			launch(1)
			outstanding++
		}
	}
	c.finishShard(hash, lastErr)
	return shardResult{}, lastErr
}

// finishShard writes the shard's single terminal journal record (a
// coordinator-private kind, skipped on replay — see coordinator.go).
func (c *Coordinator) finishShard(hash string, err error) {
	rec := service.JournalRec{Kind: recShardDone, Hash: hash, JobKind: "shard"}
	if err != nil {
		rec.Kind = recShardFailed
		rec.Error = err.Error()
	}
	c.journal.Append(rec)
}

// Attempt verdicts.
type verdict int

const (
	vOK      verdict = iota
	vRetry           // transient on this peer (busy, run still in flight): retry same peer
	vMigrate         // peer dead or rejecting: mark down, move to next ring successor
	vFatal           // the config itself fails (deadlock, invariant): stop
)

// attemptFrom walks the shard's candidate sequence starting at the given
// ring-successor offset, retrying transient rejections on the same peer and
// migrating past dead peers with the latest mirrored checkpoint attached.
// Every candidate passes two gates: the health mark (probe liveness) and
// the circuit breaker (dispatch outcomes). A healthy peer behind an open
// breaker is waited out, not routed around permanently — its window will
// admit a half-open trial. With no healthy peer left the shard degrades to
// running locally on the coordinator — never a wrong answer, only a colder
// cache.
func (c *Coordinator) attemptFrom(hash string, canon core.Config, start int, m *mirror, deadlineMillis int64) (shardResult, error) {
	cands := c.peers.Candidates(hash)
	idx := start
	budget := 2*len(cands) + 6 // attempts, not peers: bounded even with retries
	var lastErr error
	breakerBlocked := false // last loop pass found only breaker-open peers
	for attempt := 0; attempt < budget; attempt++ {
		peer := ""
		healthyButOpen := false
		for k := 0; k < len(cands); k++ {
			p := cands[(idx+k)%max(len(cands), 1)]
			if !c.peers.Healthy(p) {
				continue
			}
			if !c.peers.AllowDispatch(p) {
				healthyButOpen = true
				continue
			}
			peer = p
			idx = idx + k
			break
		}
		if peer == "" {
			if !healthyButOpen {
				return c.runLocal(hash, canon)
			}
			// Every healthy candidate is breaker-blocked: the peers are
			// alive, so wait until the earliest window elapses (plus a tick,
			// so the next pass is admitted a half-open trial) rather than
			// burning the budget on blind fixed-delay retries. No running
			// window means a trial is in flight elsewhere — poll for its
			// verdict at the ordinary retry cadence.
			lastErr = fmt.Errorf("all healthy peers breaker-open")
			breakerBlocked = true
			wait := c.peers.BreakerWait(cands)
			if wait <= 0 {
				wait = c.retryDelay()
			}
			select {
			case <-time.After(wait + time.Millisecond):
			case <-c.baseCtx.Done():
				return shardResult{}, &retryableError{err: c.baseCtx.Err()}
			}
			continue
		}
		breakerBlocked = false
		// attempt() reports the dispatch outcome to the peer's breaker on
		// every verdict; only health marks are maintained here.
		res, v, err := c.attempt(peer, hash, canon, m, deadlineMillis)
		switch v {
		case vOK:
			c.peers.markHealth(peer, true)
			return res, nil
		case vRetry:
			// Busy is not an infrastructure failure; the breaker stays closed.
			lastErr = err
			time.Sleep(c.retryDelay())
		case vMigrate:
			lastErr = err
			c.peers.markHealth(peer, false)
			c.migrations.Add(1)
			c.journal.Append(service.JournalRec{Kind: recShardDispatch, Hash: hash,
				JobKind: "shard", Peer: peer, Error: "migrate: " + err.Error()})
			idx++
		case vFatal:
			return shardResult{}, err
		}
	}
	if breakerBlocked {
		// The budget ran out with live peers still behind open breakers.
		// Degrade to a local run — never a wrong answer, only a colder
		// cache — instead of failing a shard mid-sweep over backoff timing.
		return c.runLocal(hash, canon)
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("attempt budget exhausted")
	}
	return shardResult{}, &retryableError{err: fmt.Errorf("cluster: shard %s: %w", hash, lastErr)}
}

// retryDelay is the pause before re-asking a busy peer.
func (c *Coordinator) retryDelay() time.Duration {
	if c.cfg.RetryDelay > 0 {
		return c.cfg.RetryDelay
	}
	return 250 * time.Millisecond
}

// attempt dispatches the shard to one peer and classifies the outcome. While
// the request is in flight, the peer's checkpoint blob for this hash is
// polled into the mirror so a later migration can resume mid-run.
//
// Every AllowDispatch admission is answered here, exactly once, before
// attempt returns — otherwise a consumed half-open trial would pin the
// breaker half-open and wedge the peer out of dispatch forever. The mapping:
// an answered request — vOK, vRetry (429/504: busy is healthy), or vFatal
// (an authoritative 4xx) — is breaker Success; vMigrate is Failure; a local
// error before the wire releases the admission without a verdict.
func (c *Coordinator) attempt(peer, hash string, canon core.Config, m *mirror, deadlineMillis int64) (res shardResult, v verdict, err error) {
	answered := false // the peer produced an HTTP response
	defer func() {
		switch {
		case v == vMigrate:
			c.peers.ReportDispatch(peer, false)
		case answered:
			c.peers.ReportDispatch(peer, true)
		default:
			c.peers.ReleaseDispatch(peer)
		}
	}()
	c.journal.Append(service.JournalRec{Kind: recShardDispatch, Hash: hash, JobKind: "shard", Peer: peer})
	release := c.peers.beginShard(peer)
	defer release()

	// Checkpoint mirroring runs for the attempt's lifetime.
	mirrorDone := make(chan struct{})
	defer close(mirrorDone)
	go c.mirrorLoop(peer, hash, m, mirrorDone)

	reqBody, err := json.Marshal(service.RunRequest{RawConfig: &canon, Resume: m.get(),
		DeadlineMillis: deadlineMillis})
	if err != nil {
		return shardResult{}, vFatal, err
	}
	ctx, cancel := context.WithTimeout(c.baseCtx, c.dispatchTimeout())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, peer+"/v1/run", bytes.NewReader(reqBody))
	if err != nil {
		return shardResult{}, vFatal, err
	}
	req.Header.Set("Content-Type", "application/json")
	if c.cfg.WorkerKey != "" {
		req.Header.Set("Authorization", "Bearer "+c.cfg.WorkerKey)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return shardResult{}, vMigrate, fmt.Errorf("peer %s: %w", peer, err)
	}
	answered = true
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return shardResult{}, vMigrate, fmt.Errorf("peer %s: %w", peer, err)
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		// End-to-end integrity: the worker stamps a body digest; a mismatch
		// means the path corrupted bytes in flight (or an imposter answered),
		// and the same request is retried elsewhere. The header is mandatory
		// on a 200: in-flight corruption can mangle the header name itself,
		// and a missing digest must read as "unverifiable", never "verified" —
		// corruption that still parses as valid JSON must not poison the cache.
		want := resp.Header.Get("X-Mdwd-Body-SHA256")
		if want == "" {
			return shardResult{}, vMigrate, fmt.Errorf("peer %s: missing body digest header", peer)
		}
		if want != service.BodySHA(body) {
			return shardResult{}, vMigrate, fmt.Errorf("peer %s: body integrity mismatch", peer)
		}
		res, err := decodeShard(body)
		if err != nil {
			return shardResult{}, vMigrate, fmt.Errorf("peer %s: %w", peer, err)
		}
		return res, vOK, nil
	case resp.StatusCode == http.StatusTooManyRequests:
		time.Sleep(retryAfter(resp, c.retryDelay()))
		return shardResult{}, vRetry, fmt.Errorf("peer %s busy", peer)
	case resp.StatusCode == http.StatusGatewayTimeout:
		// The worker's run outlived its wait deadline but continues server-side;
		// re-asking eventually returns its cache hit.
		return shardResult{}, vRetry, fmt.Errorf("peer %s still running %s", peer, hash)
	}
	e, msg := apiErr(body)
	err = fmt.Errorf("peer %s: %s: %s", peer, resp.Status, msg)
	switch {
	case resp.StatusCode >= 500:
		return shardResult{}, vMigrate, err
	case resp.StatusCode == http.StatusUnprocessableEntity && e.Code != "":
		// The configuration itself is rejected (deadlock, invariant
		// violation, budget) — no other peer will disagree. The client gets
		// the verdict less the worker's job id, which it cannot poll.
		e.Job = ""
		return shardResult{}, vFatal, &verdictError{msg: err.Error(), api: e}
	default:
		// Any other 4xx — a worker refusing the worker key, say — would be
		// the same answer from every peer.
		return shardResult{}, vFatal, err
	}
}

// mirrorLoop polls the peer's checkpoint blob for the shard until done.
func (c *Coordinator) mirrorLoop(peer, hash string, m *mirror, done <-chan struct{}) {
	every := c.cfg.MirrorEvery
	if every <= 0 {
		every = 250 * time.Millisecond
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-done:
			return
		case <-c.baseCtx.Done():
			return
		case <-t.C:
			if c.peers.BreakerOpen(peer) {
				// The peer's dispatch path is failing; skip the poll rather
				// than consume its half-open trial on a checkpoint fetch.
				continue
			}
			ctx, cancel := context.WithTimeout(c.baseCtx, every)
			req, err := http.NewRequestWithContext(ctx, http.MethodGet,
				peer+"/v1/cluster/checkpoint/"+hash, nil)
			if err != nil {
				cancel()
				return
			}
			if c.cfg.WorkerKey != "" {
				req.Header.Set("Authorization", "Bearer "+c.cfg.WorkerKey)
			}
			resp, err := c.client.Do(req)
			if err != nil {
				cancel()
				continue
			}
			if resp.StatusCode == http.StatusOK {
				if blob, err := io.ReadAll(io.LimitReader(resp.Body, 256<<20)); err == nil {
					m.set(blob)
				}
			}
			resp.Body.Close()
			cancel()
		}
	}
}

// runLocal is the no-healthy-peers fallback: the coordinator runs the shard
// itself, producing the identical response body a worker would have.
func (c *Coordinator) runLocal(hash string, canon core.Config) (shardResult, error) {
	c.journal.Append(service.JournalRec{Kind: recShardDispatch, Hash: hash,
		JobKind: "shard", Peer: "local"})
	sim, err := core.New(canon)
	if err != nil {
		return shardResult{}, err
	}
	res, err := sim.Run()
	cycles := sim.Now()
	core.Release(sim)
	if err != nil {
		return shardResult{}, err
	}
	body, err := json.Marshal(service.RunResponse{Hash: hash, Config: canon,
		Results: res, SimulatedCycles: cycles})
	if err != nil {
		return shardResult{}, err
	}
	return shardResult{body: body, res: res, cycles: cycles}, nil
}

// dispatchTimeout bounds one attempt's POST /v1/run round trip.
func (c *Coordinator) dispatchTimeout() time.Duration {
	if c.cfg.DispatchTimeout > 0 {
		return c.cfg.DispatchTimeout
	}
	return 5 * time.Minute
}

// decodeShard parses a worker's RunResponse body.
func decodeShard(body []byte) (shardResult, error) {
	var rr service.RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		return shardResult{}, fmt.Errorf("cluster: bad run response: %w", err)
	}
	return shardResult{body: body, res: rr.Results, cycles: rr.SimulatedCycles}, nil
}

// retryAfter extracts a bounded Retry-After hint.
func retryAfter(resp *http.Response, fallback time.Duration) time.Duration {
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
			d := time.Duration(secs) * time.Second
			if d > 5*time.Second {
				d = 5 * time.Second
			}
			return d
		}
	}
	return fallback
}

// apiErr decodes a structured error body; msg is its message, or the raw
// body truncated when it carries none.
func apiErr(body []byte) (e service.APIError, msg string) {
	var env struct {
		Error service.APIError `json:"error"`
	}
	if json.Unmarshal(body, &env) == nil && env.Error.Message != "" {
		return env.Error, env.Error.Message
	}
	if len(body) > 200 {
		body = body[:200]
	}
	return service.APIError{}, string(bytes.TrimSpace(body))
}
