package core

import (
	"encoding/json"
	"fmt"

	"mdworm/internal/ckpt"
)

// Checkpoint assembly: Snapshot serializes the complete cycle-exact state of
// a simulator into one self-describing ckpt blob; Restore rebuilds a twin
// from the embedded configuration and overlays that state. The hard
// guarantee, property-tested across every experiment, is that a run restored
// at any cycle produces byte-identical output to the uninterrupted run.

// Section names of the checkpoint container. The config section carries the
// normalized run configuration as JSON, so a checkpoint is fully
// self-describing: Restore needs nothing but the blob.
const (
	secConfig     = "config"
	secRun        = "run"
	secIDs        = "ids"
	secObjects    = "objects"
	secEngine     = "engine"
	secInvariants = "invariants"
	secStats      = "stats"
	secTraffic    = "traffic"
	secSwitches   = "switches"
	secNICs       = "nics"
	secFaults     = "faults"
	// secEvents holds the event kernel's queued wake events (versioned
	// inside the section).
	secEvents = "events"
	// secCollective holds the collective driver's per-rep progress.
	secCollective = "collective"
)

// Snapshot serializes the simulator's complete mutable state. It must be
// taken between cycles (never from inside a component's Step). Simulators
// with an attached observability capture, tracer, or delivery hook refuse to
// snapshot: those attachments live outside the checkpoint and a restored run
// could not honor them.
func (s *Simulator) Snapshot() ([]byte, error) {
	if s.capture != nil {
		return nil, fmt.Errorf("core: cannot snapshot a simulator with an observability capture attached")
	}
	if s.userTracer != nil {
		return nil, fmt.Errorf("core: cannot snapshot a simulator with a tracer installed")
	}
	if s.deliverHook != nil {
		return nil, fmt.Errorf("core: cannot snapshot a simulator with a delivery hook installed")
	}

	js, err := json.Marshal(s.cfg)
	if err != nil {
		return nil, fmt.Errorf("core: marshal config: %w", err)
	}

	w := ckpt.NewWriter()
	w.Section(secConfig).Bytes64(js)

	run := w.Section(secRun)
	run.U8(uint8(s.phase))
	run.Bool(s.genOn)
	run.Int(s.outstanding)
	run.Int(s.backlog)
	run.I64(s.drainEnd)

	w.Section(secIDs).U64(s.ids.State())
	// Every op, message and worm is written once, in the objects section,
	// and components refer to it by ID. Writing a reference adds its object
	// to g, so the section is reserved here and filled after the last
	// component.
	g := ckpt.NewGraph()
	objects := w.Section(secObjects)
	s.sim.EncodeState(w.Section(secEngine), g)
	s.sim.EncodeEvents(w.Section(secEvents))
	s.sim.Invariants().EncodeState(w.Section(secInvariants))
	s.col.EncodeState(w.Section(secStats))

	if s.gen != nil {
		tr := w.Section(secTraffic)
		states := s.gen.States()
		tr.Int(len(states))
		for _, st := range states {
			tr.U64(st)
		}
	}

	sws := w.Section(secSwitches)
	for _, sw := range s.sws {
		sw.EncodeState(sws, g)
	}

	nics := w.Section(secNICs)
	for _, n := range s.nics {
		n.EncodeState(nics, g)
	}

	if s.fdrv != nil {
		fd := w.Section(secFaults)
		fd.Int(s.fdrv.next)
		fd.I64(s.fdrv.activeUntil)
	}

	if s.cdrv != nil {
		s.cdrv.EncodeState(w.Section(secCollective), g)
	}

	g.Encode(objects)
	return w.Finish(), nil
}

// Restore rebuilds a simulator from a Snapshot blob: it constructs a fresh
// system from the embedded configuration, then overlays the serialized
// state. Corrupted or truncated input yields a structured error wrapping
// ckpt.ErrCorrupt — never a panic.
func (s *Simulator) restoreInto(r *ckpt.Reader) error {
	g, err := decodeSection(r, secObjects, func(d *ckpt.Dec) *ckpt.Graph {
		return ckpt.DecodeGraph(d)
	})
	if err != nil {
		return err
	}

	if err := withSection(r, secRun, func(d *ckpt.Dec) {
		s.phase = runPhase(d.U8())
		s.genOn = d.Bool()
		s.outstanding = d.Int()
		s.backlog = d.Int()
		s.drainEnd = d.I64()
		if d.Err() == nil {
			if s.phase > phaseDone {
				d.Fail("run phase %d out of range", s.phase)
			} else if s.outstanding < 0 || s.backlog < 0 {
				d.Fail("negative outstanding (%d) or backlog (%d)", s.outstanding, s.backlog)
			}
		}
	}); err != nil {
		return err
	}

	if err := withSection(r, secIDs, func(d *ckpt.Dec) {
		s.ids.SetState(d.U64())
	}); err != nil {
		return err
	}

	if err := withSection(r, secEngine, func(d *ckpt.Dec) {
		s.sim.DecodeState(d, g)
	}); err != nil {
		return err
	}
	if err := withSection(r, secEvents, func(d *ckpt.Dec) {
		s.sim.DecodeEvents(d)
	}); err != nil {
		return err
	}
	if err := withSection(r, secInvariants, func(d *ckpt.Dec) {
		s.sim.Invariants().DecodeState(d)
	}); err != nil {
		return err
	}
	if err := withSection(r, secStats, func(d *ckpt.Dec) {
		s.col.DecodeState(d)
	}); err != nil {
		return err
	}

	if s.gen != nil {
		if err := withSection(r, secTraffic, func(d *ckpt.Dec) {
			n := d.Count(8)
			states := make([]uint64, n)
			for i := range states {
				states[i] = d.U64()
			}
			if d.Err() == nil {
				if err := s.gen.SetStates(states); err != nil {
					d.Fail("%v", err)
				}
			}
		}); err != nil {
			return err
		}
	} else if r.Has(secTraffic) {
		return fmt.Errorf("%w: checkpoint has a traffic section but the configuration generates no load", ckpt.ErrCorrupt)
	}

	if err := withSection(r, secSwitches, func(d *ckpt.Dec) {
		for _, sw := range s.sws {
			sw.DecodeState(d, g)
			if d.Err() != nil {
				return
			}
		}
		if d.Err() == nil && d.Remaining() != 0 {
			d.Fail("%d trailing bytes after %d switches", d.Remaining(), len(s.sws))
		}
	}); err != nil {
		return err
	}

	if err := withSection(r, secNICs, func(d *ckpt.Dec) {
		for _, n := range s.nics {
			n.DecodeState(d, g)
			if d.Err() != nil {
				return
			}
		}
		if d.Err() == nil && d.Remaining() != 0 {
			d.Fail("%d trailing bytes after %d NICs", d.Remaining(), len(s.nics))
		}
	}); err != nil {
		return err
	}

	if s.fdrv != nil {
		if err := withSection(r, secFaults, func(d *ckpt.Dec) {
			next := d.Int()
			until := d.I64()
			if d.Err() != nil {
				return
			}
			if next < 0 || next > len(s.fdrv.events) {
				d.Fail("fault cursor %d outside [0,%d]", next, len(s.fdrv.events))
				return
			}
			s.fdrv.next = next
			s.fdrv.activeUntil = until
		}); err != nil {
			return err
		}
	} else if r.Has(secFaults) {
		return fmt.Errorf("%w: checkpoint has a faults section but the configuration has no fault plan", ckpt.ErrCorrupt)
	}

	if s.cdrv != nil {
		if err := withSection(r, secCollective, func(d *ckpt.Dec) {
			s.cdrv.DecodeState(d, g)
		}); err != nil {
			return err
		}
	} else if r.Has(secCollective) {
		return fmt.Errorf("%w: checkpoint has a collective section but the configuration drives no collective", ckpt.ErrCorrupt)
	}

	return nil
}

// Restore rebuilds a simulator from a Snapshot blob. The returned simulator
// continues exactly where the snapshot was taken: resuming Run (or
// RunCheckpointed) produces output byte-identical to the uninterrupted run.
func Restore(data []byte) (sim *Simulator, err error) {
	// The per-package decoders validate exhaustively, but a residual panic
	// from hostile input must still surface as a structured error: restoring
	// never takes the process down.
	defer func() {
		if p := recover(); p != nil {
			sim, err = nil, fmt.Errorf("%w: panic during restore: %v", ckpt.ErrCorrupt, p)
		}
	}()

	r, err := ckpt.NewReader(data)
	if err != nil {
		return nil, err
	}
	cd, err := r.Section(secConfig)
	if err != nil {
		return nil, err
	}
	js := cd.Bytes64()
	if cd.Err() != nil {
		return nil, cd.Err()
	}
	var cfg Config
	if err := json.Unmarshal(js, &cfg); err != nil {
		return nil, fmt.Errorf("%w: embedded config: %v", ckpt.ErrCorrupt, err)
	}
	s, err := New(cfg)
	if err != nil {
		return nil, fmt.Errorf("%w: rebuild from embedded config: %v", ckpt.ErrCorrupt, err)
	}
	if err := s.restoreInto(r); err != nil {
		return nil, err
	}
	return s, nil
}

// withSection runs fn over a named section's decoder and reports the first
// error (missing section, or the decoder's sticky failure).
func withSection(r *ckpt.Reader, name string, fn func(d *ckpt.Dec)) error {
	d, err := r.Section(name)
	if err != nil {
		return err
	}
	fn(d)
	if err := d.Err(); err != nil {
		return fmt.Errorf("section %q: %w", name, err)
	}
	return nil
}

// decodeSection is withSection for decoders that produce a value.
func decodeSection[T any](r *ckpt.Reader, name string, fn func(d *ckpt.Dec) T) (T, error) {
	var zero T
	d, err := r.Section(name)
	if err != nil {
		return zero, err
	}
	v := fn(d)
	if err := d.Err(); err != nil {
		return zero, fmt.Errorf("section %q: %w", name, err)
	}
	return v, nil
}
