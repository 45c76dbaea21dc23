package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary, recorded by the benchmark
// around its calls into the program. Times are offsets from the tracer's
// start. Spans of one request share Req.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Req    string        `json:"req,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. Its methods are safe for
// concurrent use; a nil tracer records nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newID reserves a span ID, so a parent's ID is known to the children that
// finish before it does.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// record stores a span under an ID from newID.
func (t *tracer) record(id, parent int64, name, req string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req,
		Start: start.Sub(t.t0), End: end.Sub(t.t0)})
}

// add records a span under a fresh ID and returns the ID.
func (t *tracer) add(parent int64, name, req string, start, end time.Time) int64 {
	id := t.newID()
	t.record(id, parent, name, req, start, end)
	return id
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durations collects the durations of every span with the given name.
func durations(spans []span, name string, unit time.Duration) sample {
	var s sample
	for _, sp := range spans {
		if sp.Name == name {
			s.addDur(sp.dur(), unit)
		}
	}
	return s
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its children cover. Overlapping children count once, and a
// child's time outside its parent's interval is ignored.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := map[int64][]span{}
	for _, sp := range spans {
		if sp.Parent != 0 {
			kids[sp.Parent] = append(kids[sp.Parent], sp)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, sp := range spans {
		out[sp.ID] = sp.dur() - covered(sp, kids[sp.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, children []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi time.Duration
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

// writeSpans writes the run's provenance and then one span per line.
func writeSpans(path string, prov provenance, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(prov); err != nil {
		f.Close()
		return err
	}
	for _, sp := range spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
