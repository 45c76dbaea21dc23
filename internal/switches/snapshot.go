package switches

import (
	"mdworm/internal/ckpt"
	"mdworm/internal/flit"
)

// CollectState adds every worm buffered in the FIFO to the checkpoint graph.
func (f *FIFO) CollectState(g *ckpt.Graph) {
	for i := f.head; i < len(f.segs); i++ {
		g.AddWorm(f.segs[i].w)
	}
}

// EncodeState writes the FIFO as its (worm, first, count) segments.
func (f *FIFO) EncodeState(e *ckpt.Enc, g *ckpt.Graph) {
	e.Int(len(f.segs) - f.head)
	for i := f.head; i < len(f.segs); i++ {
		s := &f.segs[i]
		e.U64(g.WormID(s.w))
		e.Int(s.first)
		e.Int(s.n)
	}
}

// DecodeState restores the FIFO contents, validating segment ranges against
// the worms they reference.
func (f *FIFO) DecodeState(d *ckpt.Dec, g *ckpt.Graph) {
	f.segs = nil
	f.head = 0
	f.size = 0
	n := d.Count(24)
	for i := 0; i < n && d.Err() == nil; i++ {
		w := g.WormAt(d, d.U64())
		first := d.Int()
		cnt := d.Int()
		if d.Err() != nil {
			return
		}
		if w == nil || cnt < 1 || first < 0 || first+cnt > w.Len() {
			d.Fail("fifo: segment %d/%d out of range", i, n)
			return
		}
		f.segs = append(f.segs, fseg{w: w, first: first, n: cnt})
		f.size += cnt
	}
}

// Last returns the arbiter's pointer (index of the previous grant).
func (rr *RoundRobin) Last() int { return rr.last }

// SetLast repositions the arbiter pointer; out-of-range values panic, so
// checkpoint decoders must validate first (N returns the valid bound).
func (rr *RoundRobin) SetLast(last int) {
	if last < 0 || last >= rr.n {
		panic("switches: RoundRobin pointer out of range")
	}
	rr.last = last
}

// N returns the number of requesters the arbiter serves.
func (rr *RoundRobin) N() int { return rr.n }

// CollectState adds every pending token to the checkpoint graph.
func (c *Combiner) CollectState(g *ckpt.Graph) {
	for _, pt := range c.pending {
		g.AddWorm(pt.worm)
	}
}

// EncodeHead writes the state a switch's checkpoint carries between the
// model's buffers and its own counters: the combining state, then the
// common counters up to DestsDropped.
func (b *Base) EncodeHead(e *ckpt.Enc, g *ckpt.Graph) {
	c := &b.Tokens
	e.Int(c.count)
	e.Int(c.expected)
	e.Int(len(c.pending))
	for _, pt := range c.pending {
		e.Int(pt.port)
		e.U64(g.WormID(pt.worm))
	}
	s := b.stats
	e.I64(s.FlitsIn)
	e.I64(s.FlitsOut)
	e.I64(s.Decodes)
	e.I64(s.Replications)
	e.I64(s.WormsDropped)
	e.I64(s.DestsDropped)
}

// DecodeHead restores what EncodeHead wrote.
func (b *Base) DecodeHead(d *ckpt.Dec, g *ckpt.Graph) {
	c := &b.Tokens
	c.count = d.Int()
	c.expected = d.Int()
	ntok := d.Count(16)
	if d.Err() != nil {
		return
	}
	c.pending = nil
	for k := 0; k < ntok; k++ {
		pt := pendingToken{port: d.Int(), worm: g.WormAt(d, d.U64())}
		if d.Err() != nil {
			return
		}
		if pt.worm == nil || pt.port < 0 || pt.port >= len(b.Ports) {
			d.Fail("%s: pending token %d inconsistent", b.Name(), k)
			return
		}
		c.pending = append(c.pending, pt)
	}
	s := b.stats
	s.FlitsIn = d.I64()
	s.FlitsOut = d.I64()
	s.Decodes = d.I64()
	s.Replications = d.I64()
	s.WormsDropped = d.I64()
	s.DestsDropped = d.I64()
}

// DecodePortCount reads the count that opens a model's per-port records,
// named what in the error, and reports whether it matches the switch's
// port count; a mismatch fails d.
func (b *Base) DecodePortCount(d *ckpt.Dec, what string) bool {
	n := d.Count(8)
	if d.Err() == nil && n != len(b.Ports) {
		d.Fail("%s: %d %s, checkpoint has %d", b.Name(), len(b.Ports), what, n)
	}
	return d.Err() == nil
}

// EncodeTail writes what ends a switch's checkpoint, after the model's own
// counters: the token counters and the RNG position.
func (b *Base) EncodeTail(e *ckpt.Enc) {
	e.I64(b.stats.TokensCombined)
	e.I64(b.stats.TokensEmitted)
	e.U64(b.RNG.State())
}

// DecodeTail restores what EncodeTail wrote.
func (b *Base) DecodeTail(d *ckpt.Dec) {
	b.stats.TokensCombined = d.I64()
	b.stats.TokensEmitted = d.I64()
	b.RNG.SetState(d.U64())
}

// EncodeRef writes one flit reference.
func EncodeRef(e *ckpt.Enc, g *ckpt.Graph, r flit.Ref) {
	e.U64(g.WormID(r.W))
	e.Int(r.Idx)
}

// DecodeRef reads one flit reference, validating the index range.
func DecodeRef(d *ckpt.Dec, g *ckpt.Graph) flit.Ref {
	w := g.WormAt(d, d.U64())
	idx := d.Int()
	if d.Err() != nil {
		return flit.Ref{}
	}
	if w == nil || idx < 0 || idx >= w.Len() {
		d.Fail("flit ref out of range")
		return flit.Ref{}
	}
	return flit.Ref{W: w, Idx: idx}
}
