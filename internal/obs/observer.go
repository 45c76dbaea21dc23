package obs

import "sync"

// SweepObserver accumulates per-point occupancy summaries across an
// experiment sweep. Experiment runners attach a samples-only Capture to each
// point's simulator and Record its summary here; because sweep points run on
// a worker pool, the observer is safe for concurrent use.
type SweepObserver struct {
	// SampleEvery is the probe period in cycles for each point's capture;
	// runners substitute a default when it is 0.
	SampleEvery int64

	mu     sync.Mutex
	points map[string]Summary
	agg    Summary
}

// Record folds one point's summary into the observer under its sweep tag.
// Recording the same tag again merges (reruns accumulate).
func (o *SweepObserver) Record(tag string, s Summary) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.points == nil {
		o.points = make(map[string]Summary)
	}
	o.points[tag] = o.points[tag].Merge(s)
	o.agg = o.agg.Merge(s)
}

// Points returns a copy of every recorded per-tag summary.
func (o *SweepObserver) Points() map[string]Summary {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make(map[string]Summary, len(o.points))
	for k, v := range o.points {
		out[k] = v
	}
	return out
}

// Aggregate returns the summary merged across every recorded point.
func (o *SweepObserver) Aggregate() Summary {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.agg
}
