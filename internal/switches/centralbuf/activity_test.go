package centralbuf

import (
	"fmt"
	"strings"
	"testing"

	"mdworm/internal/ckpt"
	"mdworm/internal/engine"
	"mdworm/internal/switches"
	"mdworm/internal/switches/switchtest"
)

// TestActivityBitmapsCoverWork drives randomized traffic through one switch
// — contention, reservation waits, barrier tokens, a dead output link that
// strands and sinks worms, a stuck link, and a limited buffer port
// bandwidth — and checks after every cycle that each activity bitmap covers
// every port whose loop body could act, that Quiesced (which reads only the
// bitmap ports) agrees with a scan of every port, and that a checkpoint
// round trip rebuilds bitmaps that cover the restored state. The 64-port
// case fills every bit of the bitmaps.
func TestActivityBitmapsCoverWork(t *testing.T) {
	for _, tc := range []struct{ arity, bw int }{{4, 0}, {4, 1}, {32, 0}} {
		t.Run(fmt.Sprintf("ports-%d/port-bandwidth-%d", 2*tc.arity, tc.bw), func(t *testing.T) {
			cfg := testConfig()
			cfg.PortBandwidth = tc.bw
			tr := switchtest.New(uint64(11+tc.bw), tc.arity, cfg.InFIFOFlits, 20_000)
			sw := New(cfg, tr.Node, tr.Router, tr.Ports, engine.NewRNG(1), &tr.IDs, &tr.Worms, tr.Sim)
			tr.Sim.AddComponent(sw)
			sank := false
			tr.Run(t, sw, 30_000, func(now int64) {
				checkActivity(t, sw, now)
				for i := range sw.in {
					sank = sank || sw.in[i].mode == modeSink
				}
				if now%61 == 0 {
					checkActivity(t, restoreTwin(t, sw, cfg, tr), now)
				}
			})
			st := sw.Stats()
			t.Logf("%+v barriers=%d", st, tr.Barriers)
			if st.ReserveWaitSum == 0 || st.TokensCombined == 0 || st.WormsDropped == 0 || !sank ||
				st.BypassFlits == 0 || st.BufferFlits == 0 || tr.Barriers == 0 {
				t.Fatalf("traffic missed a path: %+v sank=%v barriers=%d", st, sank, tr.Barriers)
			}
		})
	}
}

// checkActivity fails the test if a port with work is missing from its
// bitmap, or if Quiesced disagrees with a scan of every port.
func checkActivity(t *testing.T, s *Switch, now int64) {
	t.Helper()
	var arrivals, activeIn, drainOut, serveOut uint64
	quiet := s.livePB == 0 && len(s.pendingRes[poolUp]) == 0 && len(s.pendingRes[poolDown]) == 0 &&
		s.Tokens.Quiesced()
	for p := range s.Ports {
		bit := uint64(1) << uint(p)
		if l := s.Ports[p].In; l != nil && l.InFlight() > 0 {
			arrivals |= bit
		}
		in, st := &s.in[p], &s.out[p]
		if in.mode != modeIdle || !in.q.Empty() {
			activeIn |= bit
			quiet = false
		}
		if st.fifo.Len() > 0 {
			drainOut |= bit
		}
		if st.mode == outCB || len(st.queue) > 0 {
			serveOut |= bit
		}
		if st.mode != outIdle || st.fifo.Len() > 0 || len(st.queue) > 0 {
			quiet = false
		}
	}
	for _, c := range []struct {
		name       string
		need, have uint64
	}{
		{"arrivals", arrivals, s.arrivals},
		{"activeIn", activeIn, s.activeIn},
		{"drainOut", drainOut, s.drainOut},
		{"serveOut", serveOut, s.serveOut},
	} {
		if miss := c.need &^ c.have; miss != 0 {
			t.Fatalf("cycle %d: %s bitmap %#x misses ports %#x", now, c.name, c.have, miss)
		}
	}
	if got := s.Quiesced(); got != quiet {
		t.Fatalf("cycle %d: Quiesced() = %v, a scan of every port says %v", now, got, quiet)
	}
}

// restoreTwin round-trips the switch state through its checkpoint codec
// into a fresh switch on idle links.
func restoreTwin(t *testing.T, s *Switch, cfg Config, tr *switchtest.Traffic) *Switch {
	t.Helper()
	g := ckpt.NewGraph()
	var graph, state ckpt.Enc
	s.EncodeState(&state, g)
	g.Encode(&graph)
	ports := make([]switches.PortIO, len(s.Ports))
	for p := range ports {
		ports[p] = switches.PortIO{In: engine.NewLink("in", 1, cfg.InFIFOFlits), Out: engine.NewLink("out", 1, 8)}
	}
	twin := New(cfg, tr.Node, tr.Router, ports, engine.NewRNG(1), &tr.IDs, &tr.Worms, tr.Sim)
	gd := ckpt.NewDec(graph.Bytes())
	g2 := ckpt.DecodeGraph(gd)
	d := ckpt.NewDec(state.Bytes())
	twin.DecodeState(d, g2)
	if gd.Err() != nil || d.Err() != nil {
		t.Fatalf("restore: graph %v, state %v", gd.Err(), d.Err())
	}
	return twin
}

// TestDumpSinkingInput dumps the switch on every cycle that an input sinks
// a worm whose branches all died, under the traffic of
// TestActivityBitmapsCoverWork's 8-port case, and checks that the dump
// names the mode. Failing tests print Dump, so it must render every mode.
func TestDumpSinkingInput(t *testing.T) {
	cfg := testConfig()
	tr := switchtest.New(11, 4, cfg.InFIFOFlits, 20_000)
	sw := New(cfg, tr.Node, tr.Router, tr.Ports, engine.NewRNG(1), &tr.IDs, &tr.Worms, tr.Sim)
	tr.Sim.AddComponent(sw)
	dumps := 0
	tr.Run(t, sw, 30_000, func(now int64) {
		for i := range sw.in {
			if sw.in[i].mode != modeSink {
				continue
			}
			want := fmt.Sprintf("in%d mode=sink", i)
			if d := sw.Dump(); !strings.Contains(d, want) {
				t.Fatalf("cycle %d: dump lacks %q:\n%s", now, want, d)
			}
			dumps++
		}
	})
	if dumps == 0 {
		t.Fatal("no input sank a worm")
	}
	if got := inputMode(200).String(); got != "mode(200)" {
		t.Fatalf("unknown mode renders as %q", got)
	}
}
