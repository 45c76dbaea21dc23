// Package analytic provides closed-form unloaded-latency models for the
// simulated schemes. The models mirror the standard wormhole latency
// decomposition (startup + per-hop routing + serialization) and serve two
// purposes: validating the simulator on idle networks (tests assert the
// simulation tracks the model within a small band) and providing the
// "ideal" reference curves for the experiment tables.
package analytic

import (
	"math"

	"mdworm/internal/collective"
	"mdworm/internal/core"
	"mdworm/internal/flit"
)

// Model captures the timing parameters that determine unloaded latency.
type Model struct {
	// SendOverhead and RecvOverhead are the host software costs in cycles.
	SendOverhead, RecvOverhead int
	// RouteDelay is the per-switch decode latency.
	RouteDelay int
	// LinkLatency is the wire latency per link.
	LinkLatency int
	// Stages is the BMIN stage count; a worst-case route crosses
	// 2*Stages-1 switches and 2*Stages links.
	Stages int
	// FlitBits sizes headers.
	FlitBits int
	// N is the system size.
	N int
	// Arity is the switch arity.
	Arity int
}

// FromConfig extracts the model from a simulator configuration.
func FromConfig(cfg core.Config) Model {
	routeDelay := cfg.CB.RouteDelay
	if cfg.Arch == core.InputBuffer {
		routeDelay = cfg.IB.RouteDelay
	}
	return Model{
		SendOverhead: cfg.NIC.SendOverhead,
		RecvOverhead: cfg.NIC.RecvOverhead,
		RouteDelay:   routeDelay,
		LinkLatency:  cfg.LinkLatency,
		Stages:       cfg.Stages,
		FlitBits:     cfg.FlitBits,
		N:            cfg.N(),
		Arity:        cfg.Arity,
	}
}

// headerFlits returns the header size for the encoding.
func (m Model) headerFlits(enc flit.Encoding) int {
	return flit.HeaderFlits(enc, m.N, m.Stages, m.Arity, m.FlitBits)
}

// worstHops returns the switch count of a maximal route (up to the top
// stage and back down).
func (m Model) worstHops() int { return 2*m.Stages - 1 }

// pathCycles returns the pipeline fill time of a worst-case path: links plus
// per-switch routing, plus roughly one cycle per switch for the internal
// buffer moves the microarchitectures perform.
func (m Model) pathCycles() int {
	switches := m.worstHops()
	links := switches + 1
	return links*m.LinkLatency + switches*(m.RouteDelay+2)
}

// Unicast predicts the unloaded latency of a payload worm crossing the full
// network: send overhead, path fill, then serialization of the remaining
// flits.
func (m Model) Unicast(payload int) float64 {
	lenFlits := payload + m.headerFlits(flit.EncUnicast)
	return float64(m.SendOverhead + m.pathCycles() + lenFlits)
}

// HardwareMulticast predicts the unloaded last-arrival latency of a
// bit-string multidestination worm. The tree pipeline hides replication
// almost entirely: relative to unicast only the wider header adds
// serialization, plus one extra buffer pass at the branching switches (the
// conservative full-buffering design adds a store bounded by the packet
// length at the final branch switch).
func (m Model) HardwareMulticast(payload, degree int) float64 {
	lenFlits := payload + m.headerFlits(flit.EncBitString)
	base := float64(m.SendOverhead + m.pathCycles() + lenFlits)
	// Branch divergence cost grows very slowly with degree; a small
	// logarithmic correction matches the replication pipeline.
	extra := 0.0
	for d := degree; d > 1; d /= 2 {
		extra += float64(m.RouteDelay) / 2
	}
	return base + extra
}

// SoftwareBinomial predicts the unloaded last-arrival latency of the U-MIN
// binomial multicast as the relay-chain bound: ceil(log2(d+1)) phases, each
// costing a full unicast, plus the receiver's forwarding overhead at
// interior nodes. This is an upper bound — tight (within ~15%) for d >= 8,
// where the critical path really is a chain of relays; at very small
// degrees the root sends every copy itself and no relay path is paid, so
// the bound is loose (and separate addressing can genuinely win, which the
// simulator reproduces).
func (m Model) SoftwareBinomial(payload, degree int) float64 {
	phases := collective.BinomialPhases(degree)
	if phases == 0 {
		return 0
	}
	per := m.Unicast(payload)
	// Each phase after the first also pays the receive overhead before
	// forwarding.
	return float64(phases)*per + float64(phases-1)*float64(m.RecvOverhead)
}

// Barrier predicts the unloaded latency of a barrier over all N nodes: a
// binomial gather of ceil(log2 N) phases, each a one-flit unicast plus the
// parent's receive overhead, then the root's one-flit release to the other
// N-1 nodes, either one hardware multidestination worm (hw) or the software
// U-MIN tree.
func (m Model) Barrier(hw bool) float64 {
	gather := float64(collective.BinomialPhases(m.N-1)) * (m.Unicast(1) + float64(m.RecvOverhead))
	if hw {
		return gather + m.HardwareMulticast(1, m.N-1)
	}
	return gather + m.SoftwareBinomial(1, m.N-1)
}

// SoftwareSeparate predicts the unloaded last-arrival latency of separate
// addressing: the source serializes d sends, each paying the startup cost,
// and the last message then crosses the network.
func (m Model) SoftwareSeparate(payload, degree int) float64 {
	lenFlits := payload + m.headerFlits(flit.EncUnicast)
	perSend := m.SendOverhead + lenFlits // channel occupancy per message
	return float64((degree-1)*perSend) + m.Unicast(payload)
}

// SaturationLoadBound returns an upper bound on the sustainable delivered
// payload load (flits per node per cycle) for the given scheme under the
// multiple-multicast workload (every node multicasting to degree
// destinations with the given payload). Two channel bottlenecks are
// considered: the destination ejection channel, which every delivered copy
// (payload plus header) must cross, and the source/relay injection channel,
// which each injected message occupies for its startup overhead plus its
// flits. Network-internal contention pushes the real knee below these
// bounds (by roughly 1.5-2x in the simulator), so treat them as ceilings.
func (m Model) SaturationLoadBound(scheme collective.Scheme, payload, degree int) float64 {
	switch scheme {
	case collective.HardwareBitString, collective.HardwareMultiport:
		h := m.headerFlits(flit.EncBitString)
		if scheme == collective.HardwareMultiport {
			h = m.headerFlits(flit.EncMultiport)
		}
		// Ejection: each copy carries payload+h flits per `payload` useful.
		eject := float64(payload) / float64(payload+h)
		// Injection: one worm of payload+h flits plus overhead delivers
		// degree copies.
		inject := float64(degree*payload) / float64(m.SendOverhead+payload+h)
		return math.Min(eject, inject)
	case collective.SoftwareBinomial, collective.SoftwareSeparate:
		h := m.headerFlits(flit.EncUnicast)
		// Every op causes degree unicast sends; at per-node op rate
		// lambda, per-node send rate is lambda*degree (for separate
		// addressing all at the source; for the binomial tree spread over
		// the participants — the channel-occupancy total is the same).
		// Each send occupies a channel for overhead+payload+h cycles.
		sendBound := float64(payload) / float64(m.SendOverhead+payload+h)
		eject := float64(payload) / float64(payload+h)
		return math.Min(eject, sendBound)
	default:
		return 0
	}
}
