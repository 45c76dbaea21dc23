package stats

import "mdworm/internal/ckpt"

// Checkpoint support. The collector is pure accumulated measurement; float
// samples are serialized by their IEEE-754 bits so Finalize over a restored
// collector is byte-identical to the uninterrupted run.

// EncodeState writes the collector.
func (c *Collector) EncodeState(e *ckpt.Enc) {
	e.I64(c.WarmupEnd)
	e.I64(c.MeasureEnd)
	encodeClass(e, &c.Unicast)
	encodeClass(e, &c.Multicast)
	e.I64(c.DeliveredFlits)
	e.I64(c.OpsDegraded)
	e.I64(c.DestsDropped)
	e.I64(c.OpsDropped)
	encodeCollective(e, &c.Coll)
	e.I64(c.Coll.MessagesSent)
}

// DecodeState restores the collector.
func (c *Collector) DecodeState(d *ckpt.Dec) {
	c.WarmupEnd = d.I64()
	c.MeasureEnd = d.I64()
	decodeClass(d, &c.Unicast)
	decodeClass(d, &c.Multicast)
	c.DeliveredFlits = d.I64()
	c.OpsDegraded = d.I64()
	c.DestsDropped = d.I64()
	c.OpsDropped = d.I64()
	// Blobs that predate the collective collector end here; they restore
	// with an inactive collector, matching their configurations (which
	// cannot describe a collective workload). Blobs that predate its message
	// count end after the collective block and restore a count of 0.
	if d.Err() == nil && d.Remaining() > 0 {
		decodeCollective(d, &c.Coll)
	}
	if d.Err() == nil && d.Remaining() > 0 {
		c.Coll.MessagesSent = d.I64()
	}
}

func encodeCollective(e *ckpt.Enc, cc *CollectiveCollector) {
	e.Bool(cc.Active)
	e.String(cc.Kind)
	e.Int(cc.NumPhases)
	e.I64(cc.Started)
	e.I64(cc.Completed)
	e.I64(cc.Degraded)
	encodeFloats(e, cc.LastArrival)
	encodeFloats(e, cc.Skew)
	e.Int(len(cc.Phases))
	for _, ph := range cc.Phases {
		encodeFloats(e, ph)
	}
}

func decodeCollective(d *ckpt.Dec, cc *CollectiveCollector) {
	cc.Active = d.Bool()
	cc.Kind = d.String()
	cc.NumPhases = d.Int()
	cc.Started = d.I64()
	cc.Completed = d.I64()
	cc.Degraded = d.I64()
	cc.LastArrival = decodeFloats(d)
	cc.Skew = decodeFloats(d)
	n := d.Count(1)
	if d.Err() != nil {
		return
	}
	if n != cc.NumPhases {
		d.Fail("collective phase sample count %d != %d phases", n, cc.NumPhases)
		return
	}
	if n > 0 {
		cc.Phases = make([][]float64, n)
		for i := range cc.Phases {
			cc.Phases[i] = decodeFloats(d)
		}
	}
}

func encodeClass(e *ckpt.Enc, cc *ClassCollector) {
	e.I64(cc.OpsGenerated)
	e.I64(cc.OpsCompleted)
	encodeFloats(e, cc.LastArrival)
	encodeFloats(e, cc.MeanArrival)
	e.I64(cc.MessagesSent)
	e.I64(cc.DeliveredPayloadFlits)
}

func decodeClass(d *ckpt.Dec, cc *ClassCollector) {
	cc.OpsGenerated = d.I64()
	cc.OpsCompleted = d.I64()
	cc.LastArrival = decodeFloats(d)
	cc.MeanArrival = decodeFloats(d)
	cc.MessagesSent = d.I64()
	cc.DeliveredPayloadFlits = d.I64()
}

func encodeFloats(e *ckpt.Enc, vs []float64) {
	e.Int(len(vs))
	for _, v := range vs {
		e.F64(v)
	}
}

func decodeFloats(d *ckpt.Dec) []float64 {
	n := d.Count(8)
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.F64()
	}
	return out
}
