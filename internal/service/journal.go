package service

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// The job journal is mdwd's write-ahead log: one append-only ndjson file
// under the cache directory recording every job's lifecycle
// (accepted → running → checkpoint… → done|failed), fsync'd at each
// transition. A daemon restarted over the same directory replays the
// journal, re-enqueues unfinished run jobs from their last checkpoint (or
// from scratch), and reports interrupted experiment streams as failed — an
// accepted job is never silently lost, and a finished one never re-runs.
//
// The same file and record grammar carry the cluster coordinator's journal
// (internal/cluster): shard-scoped kinds are simply additional record types
// this replayer skips, so the fleet-wide "never lost, never double-run"
// guarantee rides on the identical durability machinery.

// journalName is the journal file within the cache directory.
const journalName = "journal.ndjson"

// Journal record kinds. Unknown kinds are skipped on replay, so future
// daemons can add kinds without breaking older ones reading the same
// directory.
const (
	recAccepted   = "accepted"
	recRunning    = "running"
	recCheckpoint = "checkpoint"
	recDone       = "done"
	recFailed     = "failed"
)

// Exported record kinds, for the cluster coordinator (internal/cluster),
// which journals through the same machinery: the standard lifecycle kinds
// plus RecShard, a dispatch-audit record ReplayJournal deliberately skips
// (shard dispatches are not pending jobs — the job-level accepted record
// already carries recoverability).
const (
	RecAccepted = recAccepted
	RecRunning  = recRunning
	RecDone     = recDone
	RecFailed   = recFailed
	RecShard    = "shard"
)

// JournalRec is one journal line. Hash keys the job (the canonical config
// hash for runs, the experiment id for experiments); Config carries the
// canonical configuration of accepted run jobs so a restarted daemon can
// rebuild the work without the original request.
type JournalRec struct {
	Kind    string          `json:"kind"`
	Hash    string          `json:"hash"`
	JobKind string          `json:"job_kind,omitempty"` // "run", "experiment", or "shard"
	Tenant  string          `json:"tenant,omitempty"`   // owning tenant's name ("" = anonymous)
	Config  json.RawMessage `json:"config,omitempty"`
	// File and Cycle reference the latest checkpoint blob of a running job.
	File  string `json:"file,omitempty"`
	Cycle int64  `json:"cycle,omitempty"`
	// Peer names the worker daemon a cluster shard was dispatched to.
	Peer  string `json:"peer,omitempty"`
	Error string `json:"error,omitempty"`
	At    string `json:"at,omitempty"` // RFC3339Nano, informational only
}

// Journal appends records durably. Safe for concurrent use.
//
// It also tracks the records still needed to rebuild pending jobs (accepted
// without a matching done/failed, plus their latest checkpoint reference):
// when SetMaxBytes installs a size threshold, a journal grown past it is
// compacted in place down to exactly those records, so long-running daemons
// — a cluster coordinator journaling thousands of shard records per sweep —
// never grow the file without bound. Compaction preserves replay semantics
// exactly: ReplayJournal over a compacted file returns the same pending set.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	path string
	size int64

	// maxBytes, when > 0, triggers compaction once the file exceeds it.
	maxBytes int64

	// pending mirrors the replay state machine for compaction: the records
	// that must survive a rewrite, keyed by job hash in first-accepted order.
	pending map[string]*pendingRecs
	order   []string
}

// pendingRecs is the minimal record set that reconstructs one pending job.
type pendingRecs struct {
	accepted   JournalRec
	checkpoint *JournalRec
}

// OpenJournal opens (creating if needed) the journal of a cache directory
// for appending.
func OpenJournal(dir string) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: journal dir: %w", err)
	}
	path := filepath.Join(dir, journalName)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("service: open journal: %w", err)
	}
	size := int64(0)
	if st, err := f.Stat(); err == nil {
		size = st.Size()
	}
	return &Journal{f: f, path: path, size: size, pending: make(map[string]*pendingRecs)}, nil
}

// SetMaxBytes installs the size threshold beyond which Append compacts the
// journal down to its pending-job records (0 disables size-triggered
// compaction). Call it right after OpenJournal, before records accumulate.
func (j *Journal) SetMaxBytes(n int64) {
	j.mu.Lock()
	j.maxBytes = n
	j.mu.Unlock()
}

// Append writes one record and fsyncs: when Append returns, the transition
// survives a crash. On a nil journal (no cache directory) it does nothing.
// Callers do not fail requests over an append error: the journal is
// durability for restarts, not a correctness dependency of a running daemon.
func (j *Journal) Append(rec JournalRec) error {
	if j == nil {
		return nil
	}
	if rec.At == "" {
		rec.At = time.Now().UTC().Format(time.RFC3339Nano)
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("service: journal encode: %w", err)
	}
	line = append(line, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	j.track(rec)
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("service: journal append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("service: journal sync: %w", err)
	}
	j.size += int64(len(line))
	if j.maxBytes > 0 && j.size > j.maxBytes {
		// Compaction failures leave the oversized-but-valid journal in
		// place; durability of appended records is never at risk.
		j.compactLocked()
	}
	return nil
}

// track advances the pending-state mirror for one appended record. Caller
// holds the lock.
func (j *Journal) track(rec JournalRec) {
	if rec.Hash == "" {
		return
	}
	switch rec.Kind {
	case recAccepted:
		if _, dup := j.pending[rec.Hash]; !dup {
			j.pending[rec.Hash] = &pendingRecs{accepted: rec}
			j.order = append(j.order, rec.Hash)
		}
	case recCheckpoint:
		if p, ok := j.pending[rec.Hash]; ok {
			cp := rec
			p.checkpoint = &cp
		}
	case recDone, recFailed:
		delete(j.pending, rec.Hash)
		// Keep the first-accepted order list from growing without bound on
		// long-lived daemons: prune finished hashes once they dominate it.
		if len(j.order) > 2*len(j.pending)+64 {
			live := j.order[:0]
			for _, h := range j.order {
				if _, ok := j.pending[h]; ok {
					live = append(live, h)
				}
			}
			j.order = live
		}
	}
}

// compactLocked rewrites the journal to exactly the records reconstructing
// the pending jobs, atomically (WriteFileAtomic, then reopen). Caller holds
// the lock. Best-effort: any failure keeps the current file.
func (j *Journal) compactLocked() {
	var buf []byte
	live := make([]string, 0, len(j.pending))
	for _, h := range j.order {
		if _, ok := j.pending[h]; ok {
			live = append(live, h)
		}
	}
	for _, h := range live {
		p := j.pending[h]
		recs := []JournalRec{p.accepted}
		if p.checkpoint != nil {
			recs = append(recs, *p.checkpoint)
		}
		for _, rec := range recs {
			line, err := json.Marshal(rec)
			if err != nil {
				return
			}
			buf = append(append(buf, line...), '\n')
		}
	}
	if WriteFileAtomic(j.path, buf) != nil {
		return
	}
	f, err := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		// The compacted file is valid; appends resume on next open. Keep the
		// old handle so in-flight appends at least hit a file descriptor.
		return
	}
	j.f.Close()
	j.f = f
	j.size = int64(len(buf))
	j.order = live
}

// Size returns the journal file's current size in bytes.
func (j *Journal) Size() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.size
}

// Close closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// PendingJob is a job the journal shows as accepted but not finished.
type PendingJob struct {
	Hash    string
	JobKind string
	Tenant  string // owning tenant's name; replay re-enqueues into this queue
	Config  json.RawMessage
	// Checkpoint and Cycle reference the job's last journaled checkpoint
	// ("" when it never checkpointed — rerun from scratch).
	Checkpoint string
	Cycle      int64
}

// ReplayJournal reads a cache directory's journal and returns the jobs
// still pending, in first-accepted order. A missing journal is an empty
// replay. The reader is deliberately tolerant: a truncated or garbled line
// (the partial write of a crash) and records of unknown kind are skipped,
// never fatal.
func ReplayJournal(dir string) ([]PendingJob, error) {
	f, err := os.Open(filepath.Join(dir, journalName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("service: open journal: %w", err)
	}
	defer f.Close()

	pending := make(map[string]*PendingJob)
	var order []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec JournalRec
		if json.Unmarshal(line, &rec) != nil || rec.Hash == "" {
			continue // partial write at a crash, or foreign junk
		}
		switch rec.Kind {
		case recAccepted:
			if _, dup := pending[rec.Hash]; !dup {
				pending[rec.Hash] = &PendingJob{Hash: rec.Hash, JobKind: rec.JobKind, Tenant: rec.Tenant, Config: rec.Config}
				order = append(order, rec.Hash)
			}
		case recRunning:
			// State transition only; nothing to record.
		case recCheckpoint:
			if p, ok := pending[rec.Hash]; ok {
				p.Checkpoint = rec.File
				p.Cycle = rec.Cycle
			}
		case recDone, recFailed:
			delete(pending, rec.Hash)
		default:
			// Unknown kind: written by a newer daemon (cluster shard
			// dispatch records, for one); skip.
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("service: journal read: %w", err)
	}

	out := make([]PendingJob, 0, len(pending))
	for _, h := range order {
		if p, ok := pending[h]; ok {
			out = append(out, *p)
		}
	}
	return out, nil
}

// RecoverJournal opens a cache directory's journal for a restarting daemon
// or coordinator: it replays the pending jobs, atomically replaces the file
// with an empty one (the compaction step of recovery, so the new journal
// restarts from only the jobs the caller re-accepts), and installs the size
// bound — DefaultJournalMaxBytes for 0, none for a negative maxBytes.
func RecoverJournal(dir string, maxBytes int64) (*Journal, []PendingJob, error) {
	pending, err := ReplayJournal(dir)
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("service: journal dir: %w", err)
	}
	if err := WriteFileAtomic(filepath.Join(dir, journalName), nil); err != nil {
		return nil, nil, fmt.Errorf("service: journal reset: %w", err)
	}
	j, err := OpenJournal(dir)
	if err != nil {
		return nil, nil, err
	}
	switch {
	case maxBytes > 0:
		j.SetMaxBytes(maxBytes)
	case maxBytes == 0:
		j.SetMaxBytes(DefaultJournalMaxBytes)
	}
	return j, pending, nil
}
