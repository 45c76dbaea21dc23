package switches

import (
	"mdworm/internal/bitset"
	"mdworm/internal/flit"
)

// Combiner is the in-switch barrier combining of the authors' companion
// work, the same in every switch organization. Hosts inject single-flit
// barrier tokens; each switch on the designated spanning tree (every switch
// follows its first up port) counts arriving tokens instead of routing
// them, emits one combined token upward when all of its down-port subtrees
// have reported, and, at the root, broadcasts release tokens back down the
// same tree until every host receives one.
//
// A model hands each token it consumes at an input head to Handle and calls
// Drain once per Step. Its one hook, place, puts a token on output port
// now, at a packet boundary so that it never interleaves with a worm's
// flits, or says no; a refused token stays pending for the next Drain.
//
// One barrier may be in flight at a time (the counter is a per-switch
// scalar); the core driver enforces this.
type Combiner struct {
	sw    *Base
	place func(now int64, port int, tok flit.Ref) bool

	count    int // ascending tokens counted toward the next combine
	expected int // reporting subtrees, cached on first use (0 until then)
	pending  []pendingToken
}

type pendingToken struct {
	port int
	worm *flit.Worm
}

// expectedTokens returns how many down-port subtrees report into this
// switch: one per down port with any processor below.
func (c *Combiner) expectedTokens() int {
	if c.expected == 0 {
		node := c.sw.Node
		for _, pn := range node.DownPorts() {
			if !node.Ports[pn].Reach.Empty() {
				c.expected++
			}
		}
	}
	return c.expected
}

// Handle consumes a barrier token w that arrived on port (already taken
// off the input) and advances the combine/release protocol.
func (c *Combiner) Handle(port int, w *flit.Worm) {
	node := c.sw.Node
	if Ascending(node, port) {
		c.count++
		c.sw.stats.TokensCombined++
		if c.count < c.expectedTokens() {
			return
		}
		// Subtree complete: reset and either forward up or release.
		c.count = 0
		if ups := node.UpPorts(); len(ups) > 0 {
			c.emit(ups[0], -1, w.Msg.Op)
			return
		}
		// Root of the spanning tree: release downward.
	}
	// A release token, or the root's own: replicate to every reporting
	// down port.
	c.emitRelease(w.Msg.Op)
}

// emitRelease sends a release token down every down port with processors
// below, addressed to the processor on that port, if any.
func (c *Combiner) emitRelease(op *flit.Op) {
	node := c.sw.Node
	for _, pn := range node.DownPorts() {
		if pt := &node.Ports[pn]; !pt.Reach.Empty() {
			c.emit(pn, pt.Proc, op)
		}
	}
}

// emit queues a switch-generated single-flit token for the output port,
// addressed to processor proc unless proc is negative.
func (c *Combiner) emit(port, proc int, op *flit.Op) {
	b := c.sw
	msg := &flit.Message{
		ID:          b.IDs.Next(),
		Class:       flit.ClassBarrier,
		HeaderFlits: 1,
		Op:          op,
	}
	dests := bitset.New(b.Node.ReachAll().Cap())
	if proc >= 0 {
		msg.Dests = []int{proc}
		dests.Add(proc)
	}
	w := b.Worms.New()
	*w = flit.Worm{ID: b.IDs.Next(), Msg: msg, Dests: dests}
	b.Worms.Hold(msg)
	c.pending = append(c.pending, pendingToken{port: port, worm: w})
	b.Sim.Progress()
}

// Drain offers every pending token to the model's place hook, in the
// order they were emitted, and keeps those it refuses.
func (c *Combiner) Drain(now int64) {
	if len(c.pending) == 0 {
		return
	}
	kept := c.pending[:0]
	for _, pt := range c.pending {
		if c.place(now, pt.port, flit.Ref{W: pt.worm, Idx: 0}) {
			c.sw.stats.TokensEmitted++
			continue
		}
		kept = append(kept, pt)
	}
	c.pending = kept
}

// Quiesced reports whether no barrier state is held.
func (c *Combiner) Quiesced() bool {
	return c.count == 0 && len(c.pending) == 0
}
