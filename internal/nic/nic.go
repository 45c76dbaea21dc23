// Package nic models the host network interface: message injection with a
// software send overhead, flit-rate ejection with delivery notification, and
// the forwarding engine that software multicast schemes rely on (a received
// message that carries a ForwardStep is re-sent to the receiver's subtree
// after a software receive overhead).
//
// The overheads are countdowns, and a NIC whose only work is counting down
// need not be stepped every cycle: registered with
// engine.Simulation.DeclareEventDriven, it reports through NextWake the cycle
// its send overhead runs out, its next forwarding task is ready, or its stall
// window ends, and the kernel sleeps it until then. When it next steps, and
// before Submit, StallUntil, Stats or EncodeState, it charges the countdown
// cycles it slept through, so its counters, checkpoint and trace are those of
// a NIC stepped every cycle.
package nic

import (
	"fmt"
	"math"
	"slices"

	"mdworm/internal/collective"
	"mdworm/internal/engine"
	"mdworm/internal/flit"
)

// Config holds the host-side timing parameters.
type Config struct {
	// SendOverhead is the software cost, in cycles, charged before each
	// message begins injection (the communication start-up time t_s).
	SendOverhead int
	// RecvOverhead is the software cost, in cycles, charged before a
	// received software-multicast message can be forwarded onward.
	RecvOverhead int
	// RecvFIFOFlits is the ejection buffer capacity granted as credits to
	// the final switch; the NIC drains it at one flit per cycle.
	RecvFIFOFlits int
}

// DefaultConfig returns paper-plausible host overheads.
func DefaultConfig() Config {
	return Config{SendOverhead: 64, RecvOverhead: 64, RecvFIFOFlits: 16}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.SendOverhead < 0 || c.RecvOverhead < 0 {
		return fmt.Errorf("nic: negative overhead")
	}
	if c.RecvFIFOFlits < 1 {
		return fmt.Errorf("nic: receive FIFO must hold >= 1 flit")
	}
	return nil
}

// DeliveredFunc is invoked when the tail flit of a message reaches its
// destination NIC.
type DeliveredFunc func(m *flit.Message, at *NIC, now int64)

// Stats counts per-NIC activity.
type Stats struct {
	MessagesSent      int64
	MessagesDelivered int64
	MessagesDropped   int64 // messages abandoned because the injection link failed
	FlitsInjected     int64
	FlitsEjected      int64
	ForwardedMsgs     int64
	SendQueueMax      int
	OverheadCycles    int64
}

// fwdTask is a received software-multicast message waiting out the receive
// overhead before its subtree is forwarded. The task holds its message in
// the simulation's pool until it has planned the sends.
type fwdTask struct {
	msg     *flit.Message
	readyAt int64
}

// NIC is one host interface, attached to a stage-0 switch port pair.
type NIC struct {
	proc    int
	n       int // system size, for destination bitsets
	inject  *engine.Link
	eject   *engine.Link
	cfg     Config
	ids     *engine.IDGen
	worms   *flit.WormArena // the simulation's pool; nil when standalone
	sim     *engine.Simulation
	idx     int // component index in sim, -1 until SetIndex
	factory collective.MessageFactory
	onDelv  DeliveredFunc

	sendQ        []*flit.Message
	overheadLeft int
	curWorm      *flit.Worm
	curIdx       int

	recvWorm *flit.Worm
	recvGot  int

	tasks []fwdTask

	stallUntil int64 // NICStall fault: no injection strictly before this cycle
	onDrop     func(m *flit.Message, ndests int, now int64)

	// settled is the last cycle whose send-overhead countdown is charged:
	// the cycle of the last step, or the one before a settle.
	settled int64

	stats Stats
}

// New creates a NIC for processor proc in a system of n processors.
// inject carries flits toward the switch; eject carries flits from it.
// worms is the simulation's pool: the NIC injects worms from it and
// releases each worm it receives once the delivery callback returns, and
// its forwarding tasks hold their messages in it. A standalone NIC, whose
// driver keeps the worms and messages it sends in, gets nil.
func New(cfg Config, proc, n int, inject, eject *engine.Link,
	ids *engine.IDGen, worms *flit.WormArena, sim *engine.Simulation,
	factory collective.MessageFactory, onDelivered DeliveredFunc) *NIC {

	nc := new(NIC)
	nc.Reset(cfg, proc, n, inject, eject, ids, worms, sim, factory, onDelivered)
	return nc
}

// Reset rebuilds nc in place as New builds a NIC, keeping the storage of
// its send queue and forwarding tasks.
func (nc *NIC) Reset(cfg Config, proc, n int, inject, eject *engine.Link,
	ids *engine.IDGen, worms *flit.WormArena, sim *engine.Simulation,
	factory collective.MessageFactory, onDelivered DeliveredFunc) {

	*nc = NIC{
		proc:    proc,
		n:       n,
		inject:  inject,
		eject:   eject,
		cfg:     cfg,
		ids:     ids,
		worms:   worms,
		sim:     sim,
		idx:     -1,
		factory: factory,
		onDelv:  onDelivered,
		sendQ:   engine.Empty(nc.sendQ),
		tasks:   engine.Empty(nc.tasks),
	}
}

// SetIndex records the NIC's component index in sim, which Submit and
// StallUntil wake; a NIC without one must be stepped every cycle.
func (nc *NIC) SetIndex(i int) { nc.idx = i }

// Proc returns the processor id this NIC serves.
func (nc *NIC) Proc() int { return nc.proc }

// StallUntil pauses injection strictly before the given cycle (the NICStall
// fault); overlapping windows keep the latest deadline. Ejection and
// software forwarding timers continue. A NIC with work wakes, so a countdown
// it sleeps through stops on this cycle.
func (nc *NIC) StallUntil(cycle int64) {
	if cycle > nc.stallUntil {
		nc.settle(nc.sim.Now)
		nc.stallUntil = cycle
		if !nc.Quiesced() {
			nc.sim.Wake(nc.idx)
		}
	}
}

// SetOnDrop installs the callback invoked when the NIC abandons pending
// messages because its injection link failed; ndests counts the op
// destinations lost, forwarding subtrees included.
func (nc *NIC) SetOnDrop(fn func(m *flit.Message, ndests int, now int64)) { nc.onDrop = fn }

// Name identifies the NIC in diagnostics.
func (nc *NIC) Name() string { return fmt.Sprintf("nic%d", nc.proc) }

// Stats returns a snapshot of the NIC counters.
func (nc *NIC) Stats() Stats {
	nc.settle(nc.sim.Now)
	return nc.stats
}

// QueueLen returns the current injection queue length (pending messages).
func (nc *NIC) QueueLen() int {
	q := len(nc.sendQ)
	if nc.curWorm != nil {
		q++
	}
	return q
}

// PendingForwards returns how many received software-multicast messages
// wait out the receive overhead before their subtrees are forwarded.
func (nc *NIC) PendingForwards() int { return len(nc.tasks) }

// Submit enqueues messages for injection, in order. It re-arms the NIC in
// the scheduler: a submit is out-of-band stimulation the link fabric cannot
// see, so an idle (skipped) NIC must be woken explicitly.
func (nc *NIC) Submit(msgs ...*flit.Message) {
	nc.settle(nc.sim.Now)
	nc.sendQ = append(nc.sendQ, msgs...)
	nc.queued()
}

// queued accounts messages just appended to the send queue.
func (nc *NIC) queued() {
	if len(nc.sendQ) > nc.stats.SendQueueMax {
		nc.stats.SendQueueMax = len(nc.sendQ)
	}
	nc.sim.Wake(nc.idx)
}

// Quiesced reports whether the NIC holds no pending or in-flight work.
func (nc *NIC) Quiesced() bool {
	return len(nc.sendQ) == 0 && nc.curWorm == nil &&
		nc.recvWorm == nil && len(nc.tasks) == 0
}

// Step advances the NIC one cycle: eject one flit, run forwarding timers,
// and inject one flit.
func (nc *NIC) Step(now int64) {
	if now > nc.settled+1 {
		nc.settle(now)
	}
	nc.stepEject(now)
	nc.stepForward(now)
	nc.stepInject(now)
	nc.settled = now
}

// NextWake implements engine.NextWaker: the cycle a NIC whose only work is
// counting down must step next. That is the first of its send overhead
// running out, its next forwarding task becoming ready and, while a task
// keeps it counting, the end of a stall window. It reports none when it holds
// no work, and none while a worm is in flight or a stall leaves nothing
// counting: it is stepped every cycle then, so that every cycle it sleeps
// through counts down and would have called Progress.
func (nc *NIC) NextWake(now int64) (int64, bool) {
	if nc.curWorm != nil || nc.recvWorm != nil {
		return 0, false
	}
	at := int64(math.MaxInt64)
	for _, t := range nc.tasks {
		at = min(at, t.readyAt)
	}
	if len(nc.sendQ) > 0 {
		switch {
		case now+1 >= nc.stallUntil:
			left := nc.overheadLeft
			if left == 0 {
				left = nc.cfg.SendOverhead
			}
			at = min(at, now+int64(max(left, 1)))
		case len(nc.tasks) == 0:
			return 0, false
		default:
			at = min(at, nc.stallUntil)
		}
	}
	return at, at != math.MaxInt64
}

// settle charges the send-overhead countdown for the cycles before now that
// the NIC slept through: every cycle after the last charged one, outside a
// stall window, while a message waited for its overhead. Nothing that
// changes those conditions reaches a sleeping NIC without waking it, and
// Submit and StallUntil settle before they change them.
func (nc *NIC) settle(now int64) {
	if nc.curWorm == nil && len(nc.sendQ) > 0 {
		if n := now - max(nc.settled+1, nc.stallUntil); n > 0 {
			if nc.overheadLeft == 0 {
				nc.overheadLeft = nc.cfg.SendOverhead
			}
			nc.overheadLeft -= int(n)
			nc.stats.OverheadCycles += n
		}
	}
	nc.settled = max(nc.settled, now-1)
}

func (nc *NIC) stepEject(now int64) {
	if nc.eject == nil {
		return
	}
	r, ok := nc.eject.Take(now)
	if !ok {
		return
	}
	// The NIC consumes at link rate; the buffer slot frees immediately.
	nc.eject.ReturnCredit(now, 1)
	nc.stats.FlitsEjected++
	if nc.recvWorm == nil {
		if r.Idx != 0 {
			panic(fmt.Sprintf("%s: mid-worm flit %v with no active reception", nc.Name(), r))
		}
		nc.recvWorm = r.W
		nc.recvGot = 0
	}
	if r.W != nc.recvWorm || r.Idx != nc.recvGot {
		panic(fmt.Sprintf("%s: interleaved or out-of-order flit %v", nc.Name(), r))
	}
	nc.recvGot++
	if !r.Tail() {
		return
	}
	// Complete message received.
	w := nc.recvWorm
	nc.recvWorm = nil
	nc.recvGot = 0
	if !w.Dests.Has(nc.proc) || w.Dests.Count() != 1 {
		panic(fmt.Sprintf("%s: received worm %d with destination set %v", nc.Name(), w.ID, w.Dests))
	}
	m := w.Msg
	nc.stats.MessagesDelivered++
	if nc.sim.Tracing() {
		var opID uint64
		if m.Op != nil {
			opID = m.Op.ID
		}
		nc.sim.Emit(engine.TraceEvent{Kind: engine.TraceDeliver, Actor: nc.Name(),
			Msg: m.ID, Worm: w.ID, Op: opID})
	}
	if m.Forward != nil && len(m.Forward.Subtree()) > 0 {
		nc.worms.Hold(m)
		nc.tasks = append(nc.tasks, fwdTask{msg: m, readyAt: now + int64(nc.cfg.RecvOverhead)})
	}
	if nc.onDelv != nil {
		nc.onDelv(m, nc, now)
	}
	nc.worms.Release(w)
}

func (nc *NIC) stepForward(now int64) {
	if len(nc.tasks) == 0 {
		return
	}
	kept := nc.tasks[:0]
	for _, t := range nc.tasks {
		if t.readyAt > now {
			nc.sim.Progress() // timers are forward progress
			kept = append(kept, t)
			continue
		}
		queued := len(nc.sendQ)
		nc.sendQ = collective.ForwardPlan(nc.sendQ, nc.factory, *t.msg.Forward,
			t.msg.PayloadFlits, t.msg.Op, now)
		sends := len(nc.sendQ) - queued
		nc.queued()
		nc.stats.ForwardedMsgs += int64(sends)
		if nc.sim.Tracing() {
			nc.sim.Emit(engine.TraceEvent{Kind: engine.TraceForward, Actor: nc.Name(),
				Msg: t.msg.ID, Op: t.msg.Op.ID,
				Detail: fmt.Sprintf("subtree=%v sends=%d", t.msg.Forward.Subtree(), sends)})
		}
		nc.worms.ReleaseMessage(t.msg)
		nc.sim.Progress()
	}
	nc.tasks = kept
}

func (nc *NIC) stepInject(now int64) {
	if now < nc.stallUntil {
		return
	}
	if nc.inject != nil && nc.inject.Dead() && !nc.inject.MidWorm() {
		// Injection is permanently severed at a worm boundary: nothing can
		// leave this NIC again. Account every pending message as dropped so
		// its op completes instead of hanging the drain.
		nc.dropPending(now)
		return
	}
	if nc.curWorm == nil {
		if len(nc.sendQ) == 0 {
			return
		}
		if nc.overheadLeft == 0 {
			nc.overheadLeft = nc.cfg.SendOverhead
		}
		if nc.overheadLeft > 0 {
			nc.overheadLeft--
			nc.stats.OverheadCycles++
			nc.sim.Progress()
			if nc.overheadLeft > 0 {
				return
			}
		}
		m := nc.sendQ[0]
		nc.sendQ = slices.Delete(nc.sendQ, 0, 1)
		nc.curWorm = nc.worms.New()
		*nc.curWorm = flit.Worm{
			ID:      nc.ids.Next(),
			Msg:     m,
			Dests:   m.RootDests(nc.n),
			GoingUp: true,
		}
		nc.worms.Hold(m)
		nc.curIdx = 0
		m.InjectedAt = now
		if m.Op != nil {
			m.Op.MessagesSent++
		}
		nc.stats.MessagesSent++
		if nc.sim.Tracing() {
			var opID uint64
			if m.Op != nil {
				opID = m.Op.ID
			}
			nc.sim.Emit(engine.TraceEvent{Kind: engine.TraceInject, Actor: nc.Name(),
				Msg: m.ID, Worm: nc.curWorm.ID, Op: opID,
				Detail: fmt.Sprintf("dests=%v len=%d", m.Dests, m.Len())})
		}
	}
	if nc.inject == nil || !nc.inject.TrySend(now, flit.Ref{W: nc.curWorm, Idx: nc.curIdx}) {
		return
	}
	nc.curIdx++
	nc.stats.FlitsInjected++
	if nc.curIdx == nc.curWorm.Len() {
		nc.curWorm = nil
		nc.curIdx = 0
	}
}

// dropPending abandons the un-started current worm (if any) and the whole
// send queue after the injection link failed.
func (nc *NIC) dropPending(now int64) {
	if nc.curWorm != nil {
		// The head flit was never sent (a mid-worm transfer is allowed to
		// finish before reaching here), so the worm can vanish cleanly.
		nc.dropMessage(nc.curWorm.Msg, now)
		nc.curWorm = nil
		nc.curIdx = 0
	}
	for _, m := range nc.sendQ {
		nc.dropMessage(m, now)
	}
	nc.sendQ = engine.Empty(nc.sendQ)
	nc.overheadLeft = 0
}

func (nc *NIC) dropMessage(m *flit.Message, now int64) {
	n := len(m.Dests)
	if m.Forward != nil {
		n += len(m.Forward.Subtree())
	}
	nc.stats.MessagesDropped++
	if nc.sim.Tracing() {
		var opID uint64
		if m.Op != nil {
			opID = m.Op.ID
		}
		nc.sim.Emit(engine.TraceEvent{Kind: engine.TraceDrop, Actor: nc.Name(),
			Msg: m.ID, Op: opID, Detail: fmt.Sprintf("dests=%v cost=%d", m.Dests, n)})
	}
	if nc.onDrop != nil {
		nc.onDrop(m, n, now)
	}
	nc.sim.Progress()
}
