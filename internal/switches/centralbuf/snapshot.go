package centralbuf

import (
	"mdworm/internal/ckpt"
	"mdworm/internal/switches"
)

// Checkpoint support. The switch's mutable state is its input pipelines,
// output services, the central-buffer packet table with its refcounted
// branches, the direction pools, barrier combining, counters, and the
// per-switch RNG position. packetBuf and cbBranch form a shared-pointer
// graph (an output's cur/queue aliases the branches of a packet an input
// may still be writing), so packets are encoded once in a deterministic
// table and every other site refers to (packet index, branch index) pairs.

// livePackets enumerates every reachable packetBuf in deterministic order:
// input writers first (ascending input index), then the reservation queues,
// then output services. Duplicates are skipped via the index map.
func (s *Switch) livePackets() ([]*packetBuf, map[*packetBuf]int) {
	var pbs []*packetBuf
	idx := make(map[*packetBuf]int)
	add := func(pb *packetBuf) {
		if pb == nil {
			return
		}
		if _, ok := idx[pb]; ok {
			return
		}
		idx[pb] = len(pbs)
		pbs = append(pbs, pb)
	}
	for i := range s.in {
		add(s.in[i].pb)
	}
	for pool := range s.pendingRes {
		for _, pb := range s.pendingRes[pool] {
			add(pb)
		}
	}
	for o := range s.out {
		if s.out[o].cur != nil {
			add(s.out[o].cur.pb)
		}
		for _, b := range s.out[o].queue {
			add(b.pb)
		}
	}
	return pbs, idx
}

// branchRef encodes a branch as (packet index, branch index); (-1, -1) is
// nil.
func branchRef(e *ckpt.Enc, idx map[*packetBuf]int, b *cbBranch) {
	if b == nil {
		e.Int(-1)
		e.Int(-1)
		return
	}
	pi, ok := idx[b.pb]
	if !ok {
		panic("centralbuf: branch of unenumerated packet")
	}
	bi := -1
	for k := range b.pb.branches {
		if &b.pb.branches[k] == b {
			bi = k
			break
		}
	}
	if bi < 0 {
		panic("centralbuf: branch not in its packet's branch list")
	}
	e.Int(pi)
	e.Int(bi)
}

// branchAt resolves a decoded (packet, branch) pair.
func branchAt(d *ckpt.Dec, pbs []*packetBuf) *cbBranch {
	pi := d.Int()
	bi := d.Int()
	if d.Err() != nil {
		return nil
	}
	if pi == -1 && bi == -1 {
		return nil
	}
	if pi < 0 || pi >= len(pbs) || bi < 0 || bi >= len(pbs[pi].branches) {
		d.Fail("centralbuf: branch ref (%d,%d) out of range", pi, bi)
		return nil
	}
	return &pbs[pi].branches[bi]
}

// CollectState adds every worm the switch holds to the checkpoint graph.
func (s *Switch) CollectState(g *ckpt.Graph) {
	for i := range s.in {
		in := &s.in[i]
		in.q.CollectState(g)
		g.AddWorm(in.worm)
		for _, p := range in.plans {
			g.AddWorm(p.Child)
		}
	}
	for o := range s.out {
		for _, r := range s.out[o].fifo.All() {
			g.AddWorm(r.W)
		}
	}
	pbs, _ := s.livePackets()
	for _, pb := range pbs {
		g.AddWorm(pb.worm)
		for k := range pb.branches {
			g.AddWorm(pb.branches[k].child)
		}
	}
	s.Tokens.CollectState(g)
}

// EncodeState writes the switch's mutable state.
func (s *Switch) EncodeState(e *ckpt.Enc, g *ckpt.Graph) {
	pbs, idx := s.livePackets()

	e.Int(len(pbs))
	for _, pb := range pbs {
		e.U64(g.WormID(pb.worm))
		e.Int(pb.total)
		e.Int(pb.written)
		e.Int(pb.reserved)
		e.Int(pb.chunksAlloc)
		e.Int(pb.chunksFreed)
		e.Bool(pb.multicast)
		e.Int(pb.need)
		e.Int(pb.input)
		e.Int(pb.pool)
		e.Int(len(pb.branches))
		for k := range pb.branches {
			b := &pb.branches[k]
			e.U64(g.WormID(b.child))
			e.Int(b.out)
			e.Int(b.read)
		}
	}

	e.Int(len(s.in))
	for i := range s.in {
		in := &s.in[i]
		in.q.EncodeState(e, g)
		e.U8(uint8(in.mode))
		e.U64(g.WormID(in.worm))
		e.Int(in.decodeLeft)
		e.Int(len(in.plans))
		for _, p := range in.plans {
			e.Int(p.Port)
			e.U64(g.WormID(p.Child))
		}
		if in.pb == nil {
			e.Int(-1)
		} else {
			e.Int(idx[in.pb])
		}
		e.Int(in.bypassOut)
		e.I64(in.waitSince)
	}

	e.Int(len(s.out))
	for o := range s.out {
		st := &s.out[o]
		e.Int(st.fifo.Len())
		for _, r := range st.fifo.All() {
			switches.EncodeRef(e, g, r)
		}
		e.U8(uint8(st.mode))
		e.Int(st.boundIn)
		branchRef(e, idx, st.cur)
		e.Int(len(st.queue))
		for _, b := range st.queue {
			branchRef(e, idx, b)
		}
	}

	for pool := range s.pendingRes {
		e.Int(len(s.pendingRes[pool]))
		for _, pb := range s.pendingRes[pool] {
			e.Int(idx[pb])
		}
	}

	e.Int(s.free[poolUp])
	e.Int(s.free[poolDown])
	e.Int(s.chunksInUse)
	e.Int(s.reservedTotal)
	e.Int(s.removed[poolUp])
	e.Int(s.removed[poolDown])
	e.Int(s.pendingShrink)
	e.Bool(s.leakLatch)
	e.Int(s.livePB)

	s.EncodeHead(e, g)
	e.I64(s.stats.BypassFlits)
	e.I64(s.stats.BufferFlits)
	e.I64(s.stats.AdmittedMcasts)
	e.I64(s.stats.ReserveWaitSum)
	e.Int(s.stats.MaxChunksInUse)
	e.Int(s.stats.MaxBranchRefs)
	e.I64(s.stats.UnicastCBEnters)
	s.EncodeTail(e)
}

// DecodeState restores the switch over a freshly constructed twin. The
// packet free list is derived state and starts empty.
func (s *Switch) DecodeState(d *ckpt.Dec, g *ckpt.Graph) {
	s.freePB = nil
	npb := d.Count(8)
	pbs := make([]*packetBuf, 0, npb)
	for i := 0; i < npb && d.Err() == nil; i++ {
		pb := &packetBuf{
			worm:        g.WormAt(d, d.U64()),
			total:       d.Int(),
			written:     d.Int(),
			reserved:    d.Int(),
			chunksAlloc: d.Int(),
			chunksFreed: d.Int(),
			multicast:   d.Bool(),
			need:        d.Int(),
			input:       d.Int(),
			pool:        d.Int(),
		}
		nb := d.Count(8)
		if d.Err() != nil {
			return
		}
		if pb.worm == nil || pb.total != pb.worm.Len() ||
			pb.written < 0 || pb.written > pb.total ||
			pb.reserved < 0 || pb.chunksAlloc < 0 ||
			pb.chunksFreed < 0 || pb.chunksFreed > pb.chunksAlloc ||
			pb.input < 0 || pb.input >= len(s.in) ||
			(pb.pool != poolUp && pb.pool != poolDown) {
			d.Fail("%s: packet %d inconsistent", s.Name(), i)
			return
		}
		pb.branches = make([]cbBranch, nb)
		for bi := range pb.branches {
			b := &pb.branches[bi]
			*b = cbBranch{pb: pb, child: g.WormAt(d, d.U64()), out: d.Int(), read: d.Int()}
			if d.Err() != nil {
				return
			}
			if b.read == pb.total {
				// A finished branch holds no child. Checkpoints written
				// before branches dropped it still name one.
				b.child = nil
			}
			if (b.child == nil && b.read != pb.total) || b.out < 0 || b.out >= len(s.out) ||
				b.read < 0 || b.read > pb.total {
				d.Fail("%s: packet %d branch %d inconsistent", s.Name(), i, bi)
				return
			}
		}
		pbs = append(pbs, pb)
	}

	if !s.DecodePortCount(d, "inputs") {
		return
	}
	for i := range s.in {
		in := &s.in[i]
		in.q.DecodeState(d, g)
		in.mode = inputMode(d.U8())
		in.worm = g.WormAt(d, d.U64())
		in.decodeLeft = d.Int()
		np := d.Count(16)
		if d.Err() != nil {
			return
		}
		in.plans = nil
		for k := 0; k < np; k++ {
			p := switches.Planned{Port: d.Int(), Child: g.WormAt(d, d.U64())}
			if d.Err() != nil {
				return
			}
			if p.Child == nil || p.Port < 0 || p.Port >= len(s.out) {
				d.Fail("%s: input %d plan %d inconsistent", s.Name(), i, k)
				return
			}
			in.plans = append(in.plans, p)
		}
		pi := d.Int()
		in.bypassOut = d.Int()
		in.waitSince = d.I64()
		if d.Err() != nil {
			return
		}
		if pi == -1 {
			in.pb = nil
		} else if pi >= 0 && pi < len(pbs) {
			in.pb = pbs[pi]
		} else {
			d.Fail("%s: input %d packet ref %d out of range", s.Name(), i, pi)
			return
		}
		if in.mode > modeSink ||
			(in.bypassOut != -1 && (in.bypassOut < 0 || in.bypassOut >= len(s.out))) {
			d.Fail("%s: input %d mode/bypass inconsistent", s.Name(), i)
			return
		}
		// Modes index into their supporting state unconditionally; a
		// checkpoint that promises a mode must supply that state.
		switch in.mode {
		case modeBypass:
			if len(in.plans) == 0 || in.bypassOut < 0 || in.worm == nil {
				d.Fail("%s: input %d bypassing without plan", s.Name(), i)
				return
			}
		case modeWrite:
			if in.pb == nil || in.worm == nil {
				d.Fail("%s: input %d writing without packet", s.Name(), i)
				return
			}
		case modeHeader, modeDecode, modeSink:
			if in.worm == nil {
				d.Fail("%s: input %d mode %d without worm", s.Name(), i, in.mode)
				return
			}
		}
	}

	if !s.DecodePortCount(d, "outputs") {
		return
	}
	for o := range s.out {
		st := &s.out[o]
		nf := d.Count(16)
		if d.Err() != nil {
			return
		}
		st.fifo.Reset()
		for k := 0; k < nf; k++ {
			r := switches.DecodeRef(d, g)
			if d.Err() != nil {
				return
			}
			st.fifo.Push(r)
		}
		st.mode = outputMode(d.U8())
		st.boundIn = d.Int()
		st.cur = branchAt(d, pbs)
		if st.cur != nil && st.cur.child == nil {
			d.Fail("%s: output %d serving a finished branch", s.Name(), o)
			return
		}
		nq := d.Count(16)
		if d.Err() != nil {
			return
		}
		st.queue = nil
		for k := 0; k < nq; k++ {
			b := branchAt(d, pbs)
			if d.Err() != nil {
				return
			}
			if b == nil || b.child == nil {
				d.Fail("%s: output %d queued a nil or finished branch", s.Name(), o)
				return
			}
			st.queue = append(st.queue, b)
		}
		if st.mode > outCB ||
			(st.boundIn != -1 && (st.boundIn < 0 || st.boundIn >= len(s.in))) ||
			(st.mode == outCB && st.cur == nil) {
			d.Fail("%s: output %d mode inconsistent", s.Name(), o)
			return
		}
	}
	s.rebuildActivity()

	for pool := range s.pendingRes {
		nr := d.Count(8)
		if d.Err() != nil {
			return
		}
		s.pendingRes[pool] = nil
		for k := 0; k < nr; k++ {
			pi := d.Int()
			if d.Err() != nil {
				return
			}
			if pi < 0 || pi >= len(pbs) {
				d.Fail("%s: reservation queue ref %d out of range", s.Name(), pi)
				return
			}
			s.pendingRes[pool] = append(s.pendingRes[pool], pbs[pi])
		}
	}

	s.free[poolUp] = d.Int()
	s.free[poolDown] = d.Int()
	s.chunksInUse = d.Int()
	s.reservedTotal = d.Int()
	s.removed[poolUp] = d.Int()
	s.removed[poolDown] = d.Int()
	s.pendingShrink = d.Int()
	s.leakLatch = d.Bool()
	s.livePB = d.Int()

	s.DecodeHead(d, g)
	if d.Err() != nil {
		return
	}
	s.stats.BypassFlits = d.I64()
	s.stats.BufferFlits = d.I64()
	s.stats.AdmittedMcasts = d.I64()
	s.stats.ReserveWaitSum = d.I64()
	s.stats.MaxChunksInUse = d.Int()
	s.stats.MaxBranchRefs = d.Int()
	s.stats.UnicastCBEnters = d.I64()
	s.DecodeTail(d)
	if d.Err() != nil {
		return
	}
	if s.free[poolUp] < 0 || s.free[poolDown] < 0 || s.chunksInUse < 0 || s.reservedTotal < 0 {
		d.Fail("%s: negative chunk pool", s.Name())
		return
	}
	// A latched leak means the live ledger was already broken when the
	// checkpoint was written; only an unlatched ledger must sum.
	if !s.leakLatch && s.free[poolUp]+s.free[poolDown]+s.chunksInUse+s.reservedTotal+
		s.removed[poolUp]+s.removed[poolDown] != s.cfg.Chunks {
		d.Fail("%s: chunk ledger does not sum to %d", s.Name(), s.cfg.Chunks)
	}
}
