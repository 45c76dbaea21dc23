package nic

import (
	"mdworm/internal/ckpt"
)

// Checkpoint support. The NIC's mutable state is its injection queue and
// in-progress worms, software-forwarding timers, the stall window, and its
// counters; wiring and configuration are rebuilt from the run config.

// EncodeState writes the NIC's mutable state, first charging the countdown
// cycles it slept through. A zero byte follows overheadLeft so that the
// section keeps the layout of older blobs and of the pinned digests;
// DecodeState rejects any other value.
func (nc *NIC) EncodeState(e *ckpt.Enc, g *ckpt.Graph) {
	nc.settle(nc.sim.Now)
	e.Int(len(nc.sendQ))
	for _, m := range nc.sendQ {
		e.U64(g.MsgID(m))
	}
	e.Int(nc.overheadLeft)
	e.U8(0)
	e.U64(g.WormID(nc.curWorm))
	e.Int(nc.curIdx)
	e.U64(g.WormID(nc.recvWorm))
	e.Int(nc.recvGot)
	e.Int(len(nc.tasks))
	for _, t := range nc.tasks {
		e.U64(g.MsgID(t.msg))
		e.I64(t.readyAt)
	}
	e.I64(nc.stallUntil)

	e.I64(nc.stats.MessagesSent)
	e.I64(nc.stats.MessagesDelivered)
	e.I64(nc.stats.MessagesDropped)
	e.I64(nc.stats.FlitsInjected)
	e.I64(nc.stats.FlitsEjected)
	e.I64(nc.stats.ForwardedMsgs)
	e.Int(nc.stats.SendQueueMax)
	e.I64(nc.stats.OverheadCycles)
}

// DecodeState restores the NIC over a freshly constructed twin. The
// simulation's clock must be restored first: the encoded countdown is
// charged through the cycle before it.
func (nc *NIC) DecodeState(d *ckpt.Dec, g *ckpt.Graph) {
	nc.settled = nc.sim.Now - 1
	nq := d.Count(8)
	nc.sendQ = nil
	for i := 0; i < nq && d.Err() == nil; i++ {
		m := g.MsgAt(d, d.U64())
		if d.Err() != nil {
			return
		}
		if m == nil {
			d.Fail("%s: nil queued message", nc.Name())
			return
		}
		nc.sendQ = append(nc.sendQ, m)
	}
	nc.overheadLeft = d.Int()
	if v := d.U8(); v != 0 {
		d.Fail("%s: nonzero byte %d after the send overhead", nc.Name(), v)
	}
	nc.curWorm = g.WormAt(d, d.U64())
	nc.curIdx = d.Int()
	nc.recvWorm = g.WormAt(d, d.U64())
	nc.recvGot = d.Int()
	nt := d.Count(16)
	if d.Err() != nil {
		return
	}
	nc.tasks = nil
	for i := 0; i < nt; i++ {
		t := fwdTask{msg: g.MsgAt(d, d.U64()), readyAt: d.I64()}
		if d.Err() != nil {
			return
		}
		if t.msg == nil {
			d.Fail("%s: nil forwarding task", nc.Name())
			return
		}
		nc.tasks = append(nc.tasks, t)
	}
	nc.stallUntil = d.I64()

	nc.stats.MessagesSent = d.I64()
	nc.stats.MessagesDelivered = d.I64()
	nc.stats.MessagesDropped = d.I64()
	nc.stats.FlitsInjected = d.I64()
	nc.stats.FlitsEjected = d.I64()
	nc.stats.ForwardedMsgs = d.I64()
	nc.stats.SendQueueMax = d.Int()
	nc.stats.OverheadCycles = d.I64()
	if d.Err() != nil {
		return
	}
	if nc.curWorm != nil && (nc.curIdx < 0 || nc.curIdx >= nc.curWorm.Len()) {
		d.Fail("%s: injection index %d out of range", nc.Name(), nc.curIdx)
		return
	}
	if nc.recvWorm != nil && (nc.recvGot < 0 || nc.recvGot > nc.recvWorm.Len()) {
		d.Fail("%s: reception count %d out of range", nc.Name(), nc.recvGot)
	}
}
