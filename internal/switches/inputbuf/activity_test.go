package inputbuf

import (
	"fmt"
	"testing"

	"mdworm/internal/ckpt"
	"mdworm/internal/engine"
	"mdworm/internal/switches"
	"mdworm/internal/switches/switchtest"
)

// TestActivityBitmapsCoverWork drives randomized traffic through one switch
// — output contention and grant waits, barrier tokens, a dead output link
// that drops branches and sinks worms, a stuck link, under asynchronous and
// synchronous replication — and checks after every cycle that each
// activity bitmap covers every port whose loop body could act (the bound
// and requested output sets exactly), that Quiesced (which reads only the
// bitmap ports) agrees with a scan of every port, and that a checkpoint
// round trip rebuilds bitmaps that cover the restored state. The 64-port
// case fills every bit of the bitmaps.
func TestActivityBitmapsCoverWork(t *testing.T) {
	for _, tc := range []struct {
		arity int
		sync  bool
		seed  uint64
	}{{4, false, 21}, {4, true, 22}, {32, false, 21}} {
		t.Run(fmt.Sprintf("ports-%d/sync-replication-%v", 2*tc.arity, tc.sync), func(t *testing.T) {
			cfg := testConfig()
			cfg.SyncReplication = tc.sync
			tr := switchtest.New(tc.seed, tc.arity, cfg.BufFlits, 20_000)
			if tc.sync {
				tr.McastPorts = 1
			}
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
			if st.GrantWaitSum == 0 || st.HOLBlockedSum == 0 || st.TokensCombined == 0 ||
				st.WormsDropped == 0 || !sank || tr.Barriers == 0 {
				t.Fatalf("traffic missed a path: %+v sank=%v barriers=%d", st, sank, tr.Barriers)
			}
		})
	}
}

// checkActivity fails the test if a port with work is missing from its
// bitmap, if the bound or requested output sets are not exact, if an
// ungranted branch is missing from the request bits, or if Quiesced
// disagrees with a scan of every port.
func checkActivity(t *testing.T, s *Switch, now int64) {
	t.Helper()
	var arrivals, activeIn, boundOut, reqOut uint64
	requests := make([]uint64, len(s.out))
	quiet := s.Tokens.Quiesced()
	for p := range s.Ports {
		bit := uint64(1) << uint(p)
		if l := s.Ports[p].In; l != nil && l.InFlight() > 0 {
			arrivals |= bit
		}
		in := &s.in[p]
		if len(in.queue) > 0 || in.mode != modeIdle {
			activeIn |= bit
			quiet = false
		}
		if s.out[p].bound != nil {
			boundOut |= bit
			quiet = false
		}
		if s.reqBits[p] != 0 {
			reqOut |= bit
		}
		if in.mode == modeActive {
			for _, b := range in.branches {
				if !b.granted && !b.done {
					requests[b.out] |= bit
				}
			}
		}
	}
	for _, c := range []struct {
		name       string
		need, have uint64
	}{
		{"arrivals", arrivals, s.arrivals},
		{"activeIn", activeIn, s.activeIn},
		{"boundOut", boundOut, s.boundOut},
		{"reqOut", reqOut, s.reqOut},
	} {
		if miss := c.need &^ c.have; miss != 0 {
			t.Fatalf("cycle %d: %s bitmap %#x misses ports %#x", now, c.name, c.have, miss)
		}
	}
	if s.boundOut != boundOut || s.reqOut != reqOut {
		t.Fatalf("cycle %d: boundOut %#x (want %#x), reqOut %#x (want %#x)", now, s.boundOut, boundOut, s.reqOut, reqOut)
	}
	for o, need := range requests {
		if miss := need &^ s.reqBits[o]; miss != 0 {
			t.Fatalf("cycle %d: output %d request bits %#x miss inputs %#x", now, o, s.reqBits[o], miss)
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
	s.CollectState(g)
	var graph, state ckpt.Enc
	g.Encode(&graph)
	s.EncodeState(&state, g)
	ports := make([]switches.PortIO, len(s.Ports))
	for p := range ports {
		ports[p] = switches.PortIO{In: engine.NewLink("in", 1, cfg.BufFlits), Out: engine.NewLink("out", 1, 8)}
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
