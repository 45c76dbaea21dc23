package ckpt

import (
	"sort"

	"mdworm/internal/bitset"
	"mdworm/internal/flit"
)

// Graph serializes the shared object graph of in-flight traffic: ops,
// messages, and worms. Components hold pointers into this graph (a worm may
// sit in several link slots and buffer tables at once), so checkpointing
// encodes each object once, keyed by its engine-assigned unique ID, and
// every component state refers to objects by ID. Decoding rebuilds the
// graph first, then components resolve their references through it —
// restoring the exact aliasing structure of the live simulation.
type Graph struct {
	ops   map[uint64]*flit.Op
	msgs  map[uint64]*flit.Message
	worms map[uint64]*flit.Worm
}

// NewGraph returns an empty object graph.
func NewGraph() *Graph {
	return &Graph{
		ops:   make(map[uint64]*flit.Op),
		msgs:  make(map[uint64]*flit.Message),
		worms: make(map[uint64]*flit.Worm),
	}
}

// AddOp records an op (nil is ignored).
func (g *Graph) AddOp(o *flit.Op) {
	if o == nil {
		return
	}
	g.ops[o.ID] = o
}

// AddMessage records a message and, transitively, its op.
func (g *Graph) AddMessage(m *flit.Message) {
	if m == nil {
		return
	}
	g.msgs[m.ID] = m
	g.AddOp(m.Op)
}

// AddWorm records a worm and, transitively, its message and op.
func (g *Graph) AddWorm(w *flit.Worm) {
	if w == nil {
		return
	}
	g.worms[w.ID] = w
	g.AddMessage(w.Msg)
}

// OpID returns the reference encoding of an op: its ID, or 0 for nil.
// Encoding a pointer that was never added is a checkpoint-writer bug.
func (g *Graph) OpID(o *flit.Op) uint64 {
	if o == nil {
		return 0
	}
	if _, ok := g.ops[o.ID]; !ok {
		panic("ckpt: op referenced but not collected")
	}
	return o.ID
}

// MsgID returns the reference encoding of a message (0 for nil).
func (g *Graph) MsgID(m *flit.Message) uint64 {
	if m == nil {
		return 0
	}
	if _, ok := g.msgs[m.ID]; !ok {
		panic("ckpt: message referenced but not collected")
	}
	return m.ID
}

// WormID returns the reference encoding of a worm (0 for nil).
func (g *Graph) WormID(w *flit.Worm) uint64 {
	if w == nil {
		return 0
	}
	if _, ok := g.worms[w.ID]; !ok {
		panic("ckpt: worm referenced but not collected")
	}
	return w.ID
}

// maxDests bounds decoded destination-set capacities and slice lengths; far
// above any simulated system size, far below an allocation hazard.
const maxDests = 1 << 24

// Encode writes the graph as three ID-sorted tables. Engine IDs start at 1,
// so 0 is free to mean nil.
func (g *Graph) Encode(e *Enc) {
	opIDs := sortedKeys(g.ops)
	e.Int(len(opIDs))
	for _, id := range opIDs {
		o := g.ops[id]
		e.U64(o.ID)
		e.U8(uint8(o.Class))
		e.Int(o.Src)
		e.Int(o.NumDests)
		e.I64(o.Created)
		e.Int(o.Phases)
		e.Int(o.Remaining())
		e.I64(o.FirstArrival)
		e.I64(o.LastArrival)
		e.I64(o.SumArrival)
		e.Int(o.MessagesSent)
		e.Int(o.Dropped)
	}

	msgIDs := sortedKeys(g.msgs)
	e.Int(len(msgIDs))
	for _, id := range msgIDs {
		m := g.msgs[id]
		e.U64(m.ID)
		e.Int(m.Src)
		e.Int(len(m.Dests))
		for _, d := range m.Dests {
			e.Int(d)
		}
		e.U8(uint8(m.Class))
		e.Int(m.PayloadFlits)
		e.Int(m.HeaderFlits)
		e.I64(m.Created)
		e.I64(m.InjectedAt)
		e.U64(g.OpID(m.Op))
		if m.Forward == nil {
			e.Bool(false)
		} else {
			e.Bool(true)
			sub := m.Forward.Subtree()
			e.Int(len(sub))
			for _, d := range sub {
				e.Int(d)
			}
		}
	}

	wormIDs := sortedKeys(g.worms)
	e.Int(len(wormIDs))
	for _, id := range wormIDs {
		w := g.worms[id]
		e.U64(w.ID)
		e.U64(g.MsgID(w.Msg))
		encodeBitset(e, w.Dests)
		e.Bool(w.GoingUp)
		e.Int(w.Hops)
	}
}

// DecodeGraph rebuilds a graph from its encoding. On malformed input the
// decoder's sticky error is set and the partial graph must be discarded.
func DecodeGraph(d *Dec) *Graph {
	g := NewGraph()

	nOps := d.Count(8)
	for i := 0; i < nOps && d.Err() == nil; i++ {
		id := d.U64()
		class := flit.Class(d.U8())
		src := d.Int()
		numDests := d.Int()
		created := d.I64()
		phases := d.Int()
		remaining := d.Int()
		first := d.I64()
		last := d.I64()
		sum := d.I64()
		sent := d.Int()
		dropped := d.Int()
		if d.Err() != nil {
			break
		}
		if id == 0 || numDests < 0 || numDests > maxDests || remaining < 0 || remaining > numDests {
			d.fail("op %d: invalid fields (dests %d, remaining %d)", id, numDests, remaining)
			break
		}
		if _, dup := g.ops[id]; dup {
			d.fail("duplicate op %d", id)
			break
		}
		g.ops[id] = flit.RestoreOp(id, class, src, numDests, created, phases, remaining, first, last, sum, sent, dropped)
	}

	nMsgs := d.Count(8)
	for i := 0; i < nMsgs && d.Err() == nil; i++ {
		m := &flit.Message{ID: d.U64(), Src: d.Int()}
		nd := d.Count(8)
		if nd > maxDests {
			d.fail("message %d: %d destinations", m.ID, nd)
			break
		}
		if nd > 0 {
			m.Dests = make([]int, nd)
			for k := range m.Dests {
				m.Dests[k] = d.Int()
			}
		}
		m.Class = flit.Class(d.U8())
		m.PayloadFlits = d.Int()
		m.HeaderFlits = d.Int()
		m.Created = d.I64()
		m.InjectedAt = d.I64()
		m.Op = g.opAt(d, d.U64())
		if d.Bool() {
			ns := d.Count(8)
			if ns > maxDests {
				d.fail("message %d: %d forward subtree entries", m.ID, ns)
				break
			}
			if len(m.Dests) == 0 {
				d.fail("message %d: forwarding step with no recipient", m.ID)
				break
			}
			// A step names its recipient's rank range in the op's group;
			// the subtree alone rebuilds that range as [0, ns+1) of the
			// group [recipient, subtree...], which plans the same sends.
			group := make([]int, ns+1)
			group[0] = m.Dests[0]
			for k := 1; k <= ns; k++ {
				group[k] = d.Int()
			}
			m.Forward = &flit.ForwardStep{Group: group, Hi: ns + 1}
		}
		if d.Err() != nil {
			break
		}
		if m.ID == 0 {
			d.fail("message with zero ID")
			break
		}
		if _, dup := g.msgs[m.ID]; dup {
			d.fail("duplicate message %d", m.ID)
			break
		}
		// Flit counts are construction invariants the switches rely on.
		if m.HeaderFlits < 1 || m.PayloadFlits < 0 || m.Len() > maxDests {
			d.fail("message %d: invalid flit counts %d+%d", m.ID, m.HeaderFlits, m.PayloadFlits)
			break
		}
		g.msgs[m.ID] = m
	}

	nWorms := d.Count(8)
	for i := 0; i < nWorms && d.Err() == nil; i++ {
		w := &flit.Worm{ID: d.U64()}
		w.Msg = g.msgAt(d, d.U64())
		w.Dests = decodeBitset(d)
		w.GoingUp = d.Bool()
		w.Hops = d.Int()
		if d.Err() != nil {
			break
		}
		if w.ID == 0 || w.Msg == nil {
			d.fail("worm %d: zero ID or nil message", w.ID)
			break
		}
		if _, dup := g.worms[w.ID]; dup {
			d.fail("duplicate worm %d", w.ID)
			break
		}
		g.worms[w.ID] = w
	}
	return g
}

// opAt resolves a decoded op reference (0 → nil).
func (g *Graph) opAt(d *Dec, id uint64) *flit.Op {
	if id == 0 || d.Err() != nil {
		return nil
	}
	o, ok := g.ops[id]
	if !ok {
		d.fail("dangling op reference %d", id)
	}
	return o
}

// msgAt resolves a decoded message reference (0 → nil).
func (g *Graph) msgAt(d *Dec, id uint64) *flit.Message {
	if id == 0 || d.Err() != nil {
		return nil
	}
	m, ok := g.msgs[id]
	if !ok {
		d.fail("dangling message reference %d", id)
	}
	return m
}

// WormAt resolves a decoded worm reference (0 → nil); unknown IDs set the
// decoder error.
func (g *Graph) WormAt(d *Dec, id uint64) *flit.Worm {
	if id == 0 || d.Err() != nil {
		return nil
	}
	w, ok := g.worms[id]
	if !ok {
		d.fail("dangling worm reference %d", id)
	}
	return w
}

// MsgAt resolves a decoded message reference through the public API.
func (g *Graph) MsgAt(d *Dec, id uint64) *flit.Message { return g.msgAt(d, id) }

// OpAt resolves a decoded op reference through the public API.
func (g *Graph) OpAt(d *Dec, id uint64) *flit.Op { return g.opAt(d, id) }

// Ops returns all collected ops (decode side), for callers that must
// iterate the full set (e.g. the NIC op table).
func (g *Graph) Ops() map[uint64]*flit.Op { return g.ops }

// encodeBitset writes a destination set as capacity plus payload words.
func encodeBitset(e *Enc, s bitset.Set) {
	e.Int(s.Cap())
	words := s.Words()
	e.Int(len(words))
	for _, w := range words {
		e.U64(w)
	}
}

// decodeBitset reads a destination set.
func decodeBitset(d *Dec) bitset.Set {
	capN := d.Int()
	nw := d.Count(8)
	if d.Err() != nil {
		return bitset.Set{}
	}
	if capN < 0 || capN > maxDests || nw != (capN+63)/64 {
		d.fail("bitset: cap %d with %d words", capN, nw)
		return bitset.Set{}
	}
	words := make([]uint64, nw)
	for i := range words {
		words[i] = d.U64()
	}
	s := bitset.New(capN)
	s.SetWords(words)
	return s
}

// sortedKeys returns map keys in ascending order, for deterministic tables.
func sortedKeys[V any](m map[uint64]V) []uint64 {
	ks := make([]uint64, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}
