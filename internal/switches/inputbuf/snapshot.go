package inputbuf

import (
	"mdworm/internal/ckpt"
)

// Checkpoint support. The switch's mutable state is the per-input worm
// queues and branch sets, the output bindings (aliases into those branch
// sets, encoded as (input, branch) pairs), and what the skeleton owns
// (barrier combining, counters, and the per-switch RNG position).

// EncodeState writes the switch's mutable state.
func (s *Switch) EncodeState(e *ckpt.Enc, g *ckpt.Graph) {
	e.Int(len(s.in))
	for i := range s.in {
		in := &s.in[i]
		e.Int(len(in.queue))
		for k := range in.queue {
			e.U64(g.WormID(in.queue[k].w))
			e.Int(in.queue[k].got)
		}
		e.Int(in.occupancy)
		e.U8(uint8(in.mode))
		e.Int(in.decodeLeft)
		e.Int(len(in.branches))
		for _, b := range in.branches {
			e.Int(b.out)
			e.U64(g.WormID(b.child))
			e.Int(b.sent)
			e.Bool(b.granted)
			e.Bool(b.done)
			e.I64(b.reqAt)
		}
		e.Int(in.minSent)
		e.I64(in.movedAt)
	}

	e.Int(len(s.out))
	for o := range s.out {
		st := &s.out[o]
		if st.bound == nil {
			e.Int(-1)
			e.Int(-1)
		} else {
			e.Int(st.bound.in)
			bi := -1
			for k, b := range s.in[st.bound.in].branches {
				if b == st.bound {
					bi = k
					break
				}
			}
			if bi < 0 {
				panic("inputbuf: bound branch not in its input's branch list")
			}
			e.Int(bi)
		}
		e.Int(st.arb.Last())
	}

	s.EncodeHead(e, g)
	e.I64(s.stats.GrantWaitSum)
	e.I64(s.stats.HOLBlockedSum)
	e.Int(s.stats.MaxBufOccupancy)
	s.EncodeTail(e)
}

// DecodeState restores the switch over a freshly constructed twin. The
// branch free list is derived state and starts empty.
func (s *Switch) DecodeState(d *ckpt.Dec, g *ckpt.Graph) {
	s.freeBranches = nil
	if !s.DecodePortCount(d, "inputs") {
		return
	}
	for i := range s.in {
		in := &s.in[i]
		nq := d.Count(16)
		if d.Err() != nil {
			return
		}
		in.queue = nil
		for k := 0; k < nq; k++ {
			r := wormRecv{w: g.WormAt(d, d.U64()), got: d.Int()}
			if d.Err() != nil {
				return
			}
			if r.w == nil || r.got < 1 || r.got > r.w.Len() {
				d.Fail("%s: input %d queued worm %d inconsistent", s.Name(), i, k)
				return
			}
			in.queue = append(in.queue, r)
		}
		in.occupancy = d.Int()
		in.mode = inputMode(d.U8())
		in.decodeLeft = d.Int()
		nb := d.Count(24)
		if d.Err() != nil {
			return
		}
		in.branches = nil
		for k := 0; k < nb; k++ {
			b := &branch{in: i, out: d.Int(), child: g.WormAt(d, d.U64()),
				sent: d.Int(), granted: d.Bool(), done: d.Bool(), reqAt: d.I64()}
			if d.Err() != nil {
				return
			}
			if b.done {
				// A done branch holds no child. Checkpoints written
				// before branches dropped it still name one.
				b.child = nil
			}
			// Branches belong to the head worm and share its flit count.
			if len(in.queue) == 0 || (b.child == nil && !b.done) || b.out < 0 || b.out >= len(s.out) ||
				b.sent < 0 || b.sent > in.queue[0].w.Len() {
				d.Fail("%s: input %d branch %d inconsistent", s.Name(), i, k)
				return
			}
			if !b.granted && !b.done {
				s.reqBits[b.out] |= 1 << uint(i)
			}
			in.branches = append(in.branches, b)
		}
		in.minSent = d.Int()
		in.movedAt = d.I64()
		if d.Err() != nil {
			return
		}
		if in.occupancy < 0 || in.occupancy > s.cfg.BufFlits || in.mode > modeSink {
			d.Fail("%s: input %d occupancy/mode inconsistent", s.Name(), i)
			return
		}
		// Every non-idle mode dereferences the head of the queue.
		if in.mode != modeIdle && len(in.queue) == 0 {
			d.Fail("%s: input %d mode %d with empty queue", s.Name(), i, in.mode)
			return
		}
	}

	if !s.DecodePortCount(d, "outputs") {
		return
	}
	for o := range s.out {
		st := &s.out[o]
		bin := d.Int()
		bidx := d.Int()
		last := d.Int()
		if d.Err() != nil {
			return
		}
		if bin == -1 && bidx == -1 {
			st.bound = nil
		} else if bin >= 0 && bin < len(s.in) && bidx >= 0 && bidx < len(s.in[bin].branches) &&
			!s.in[bin].branches[bidx].done {
			st.bound = s.in[bin].branches[bidx]
		} else {
			d.Fail("%s: output %d bound ref (%d,%d) out of range or done", s.Name(), o, bin, bidx)
			return
		}
		if last < 0 || last >= st.arb.N() {
			d.Fail("%s: output %d arbiter pointer %d out of range", s.Name(), o, last)
			return
		}
		st.arb.SetLast(last)
	}
	s.rebuildActivity()

	s.DecodeHead(d, g)
	if d.Err() != nil {
		return
	}
	s.stats.GrantWaitSum = d.I64()
	s.stats.HOLBlockedSum = d.I64()
	s.stats.MaxBufOccupancy = d.Int()
	s.DecodeTail(d)
}
