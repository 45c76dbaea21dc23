package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"

	"mdworm/internal/core"
	"mdworm/internal/experiments"
)

// The front door: every request step that the single daemon (Server) and the
// cluster coordinator (internal/cluster) perform identically, so a client
// cannot tell the two apart. What stays per mode is execution (the local pool
// or shard dispatch), drain, the sweep's context, and /metrics.

// APIError is the structured error body of every non-2xx JSON response.
type APIError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Job     string `json:"job,omitempty"`
	// RetryAfterSeconds mirrors the Retry-After header on 429/503 rejections
	// so structured clients need not parse headers.
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
	// Retryable tells clients whether repeating the identical request can
	// succeed: true for transient conditions (busy, quota, draining,
	// timeout, dead peers), false for properties of the request itself (bad
	// config, deadlock, exceeded cycle budget).
	Retryable bool `json:"retryable,omitempty"`
}

// WriteError answers status with the body {"error": e}.
func WriteError(w http.ResponseWriter, status int, e APIError) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]APIError{"error": e})
}

// Authenticate resolves a request's tenant against ts. With no tenants (ts
// nil) every request belongs to the anonymous tenant; otherwise it must
// present "Authorization: Bearer <key>" for a configured key, or it is
// answered with a structured 401 and ok is false.
func Authenticate(w http.ResponseWriter, r *http.Request, ts *TenantSet) (t *Tenant, ok bool) {
	if ts == nil {
		return anonymous, true
	}
	h := r.Header.Get("Authorization")
	scheme, key, found := strings.Cut(h, " ")
	key = strings.TrimSpace(key)
	msg := "unknown API key"
	switch {
	case h == "":
		msg = `missing Authorization header (want "Bearer <key>")`
	case !found || !strings.EqualFold(scheme, "Bearer") || key == "":
		msg = `malformed Authorization header (want "Bearer <key>")`
	default:
		if t = ts.LookupKey(key); t != nil {
			return t, true
		}
	}
	w.Header().Set("WWW-Authenticate", `Bearer realm="mdwd"`)
	WriteError(w, http.StatusUnauthorized, APIError{Code: "unauthorized", Message: msg})
	return nil, false
}

// DecodeJSON decodes a request body into v, rejecting unknown fields; a body
// that does not decode is answered 400 bad_request and ok is false.
func DecodeJSON(w http.ResponseWriter, r *http.Request, v any) (ok bool) {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		WriteError(w, http.StatusBadRequest, APIError{Code: "bad_request", Message: err.Error()})
		return false
	}
	return true
}

// DecodeRun reads a POST /v1/run body and keys it: the raw config when
// present, else the request config resolved over the defaults, then its
// canonical form and hash. A config that does not resolve is answered 400
// bad_config, one that Hash rejects 422 invalid_config; ok is then false.
func DecodeRun(w http.ResponseWriter, r *http.Request) (req RunRequest, hash string, canon core.Config, ok bool) {
	if !DecodeJSON(w, r, &req) {
		return req, "", canon, false
	}
	var cfg core.Config
	var err error
	if req.RawConfig != nil {
		cfg = *req.RawConfig
	} else if cfg, err = req.Config.Resolve(); err != nil {
		WriteError(w, http.StatusBadRequest, APIError{Code: "bad_config", Message: err.Error()})
		return req, "", canon, false
	}
	if hash, canon, err = Hash(cfg); err != nil {
		WriteError(w, http.StatusUnprocessableEntity, APIError{Code: "invalid_config", Message: err.Error()})
		return req, "", canon, false
	}
	return req, hash, canon, true
}

// BodySHA is the end-to-end integrity digest travelling in the
// X-Mdwd-Body-SHA256 header of /v1/run responses. The coordinator verifies
// the bytes it read against it, so response corruption anywhere on the
// path (proxies, chaos injection, flaky NICs) is detected and retried
// instead of silently merged into a sweep.
func BodySHA(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

// WriteResult answers a /v1/run with its result bytes, marked a cache "hit"
// or "miss" and stamped with the config hash and the body digest.
func WriteResult(w http.ResponseWriter, cache, hash string, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("X-Mdwd-Cache", cache)
	h.Set("X-Mdwd-Hash", hash)
	h.Set("X-Mdwd-Body-SHA256", BodySHA(body))
	w.Write(body)
}

// DecodeExperiment reads a POST /v1/experiment body and validates it: a
// registered id (404 unknown_experiment), a well-formed stream token (400
// bad_stream) and a cursor >= 0 (400 bad_cursor); ok is false once answered.
// The seed defaults to 1, and a fresh stream gets a new token and cursor 0.
func DecodeExperiment(w http.ResponseWriter, r *http.Request) (req ExperimentRequest, ok bool) {
	if !DecodeJSON(w, r, &req) {
		return req, false
	}
	switch {
	case !slices.Contains(experiments.IDs(), req.ID):
		WriteError(w, http.StatusNotFound, APIError{Code: "unknown_experiment",
			Message: fmt.Sprintf("unknown experiment %q (GET /v1/experiments lists ids)", req.ID)})
	case req.Stream != "" && !ValidStreamToken(req.Stream):
		WriteError(w, http.StatusBadRequest, APIError{Code: "bad_stream",
			Message: fmt.Sprintf("%q is not a stream token", req.Stream)})
	case req.AfterSeq < 0:
		WriteError(w, http.StatusBadRequest, APIError{Code: "bad_cursor",
			Message: "after_seq must be >= 0"})
	default:
		if req.Seed == 0 {
			req.Seed = 1
		}
		if req.Stream == "" {
			req.Stream = NewStreamToken()
			req.AfterSeq = 0
		}
		return req, true
	}
	return req, false
}

// StreamWriter starts an ndjson event stream on w and returns its sender,
// which encodes and flushes one event per line. Safe for concurrent use.
func StreamWriter(w http.ResponseWriter) func(StreamEvent) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	var mu sync.Mutex
	return func(ev StreamEvent) {
		mu.Lock()
		defer mu.Unlock()
		enc.Encode(ev)
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// Sweep resolves one experiment and emits its point events in planned table
// order (not completion order), so the stream is identical for any worker
// or peer count — the property behind both the seq resume cursor and
// cluster/single-node byte-identity. Points with seq <= req.AfterSeq, which a
// resuming client already consumed, are not emitted. opts brings the
// workers, the context and an observer or resolver; Sweep sets the rest from
// req. On success the caller closes the stream with EmitResults.
func Sweep(req ExperimentRequest, opts experiments.Options, emit func(StreamEvent)) ([]*experiments.Table, experiments.SweepStats, error) {
	ro := newReorder(func(seq int64, ev experiments.PointEvent) {
		if seq > 0 && seq <= req.AfterSeq {
			return
		}
		out := StreamEvent{
			Type: "point", Seq: seq, Tag: ev.Tag, X: ev.X,
			McastLat: ev.McastLatency, UniLat: ev.UniLatency,
			Throughput: ev.Throughput, Saturated: ev.Saturated,
			Dropped: ev.DestsDropped, Violations: ev.Violations,
			Cycles: ev.Cycles,
		}
		if ev.Err != nil {
			out.Err = ev.Err.Error()
		}
		emit(out)
	})
	opts.Quick, opts.Seed, opts.OnPoint = req.Quick, req.Seed, ro.add
	ids := []string{req.ID}
	tables, err := experiments.Plan(ids, opts)
	if err != nil {
		return nil, experiments.SweepStats{}, err
	}
	// Points resolve only during Finish, so installing the planned order
	// between Plan and Finish races nothing.
	ro.reindex(experiments.PlannedTags(tables))
	st, err := experiments.Finish(ids, tables, opts)
	ro.flush()
	return tables, st, err
}

// EmitResults closes a finished sweep's stream: one table event per
// rendered table, then done.
func EmitResults(emit func(StreamEvent), id string, tables []*experiments.Table, st experiments.SweepStats) {
	for _, t := range tables {
		var buf strings.Builder
		t.Format(&buf)
		emit(StreamEvent{Type: "table", ID: t.ID, Text: buf.String()})
	}
	emit(StreamEvent{Type: "done", ID: id, Points: st.Points,
		Cycles: st.Cycles, WallSeconds: st.Wall.Seconds()})
}

// ListExperiments answers GET /v1/experiments with the registered ids.
func ListExperiments(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string][]string{"experiments": experiments.IDs()})
}

// WriteHealthz answers GET /healthz: "ok", or 503 "draining" with a
// Retry-After of retryAfter seconds, which load balancers and retrying
// clients read even off the plain-text probe.
func WriteHealthz(w http.ResponseWriter, draining bool, retryAfter int) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if draining {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}
