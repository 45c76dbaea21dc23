package centralbuf

import (
	"fmt"
	"strings"
)

// Dump renders the full internal state of the switch for deadlock
// diagnosis.
func (s *Switch) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s free=[up:%d down:%d] inUse=%d pending=[up:%d down:%d] livePB=%d\n",
		s.Name(), s.free[poolUp], s.free[poolDown], s.chunksInUse,
		len(s.pendingRes[poolUp]), len(s.pendingRes[poolDown]), s.livePB)
	outModes := []string{"idle", "bypass", "cb"}
	for i := range s.in {
		in := &s.in[i]
		if in.mode == modeIdle && in.q.Empty() {
			continue
		}
		fmt.Fprintf(&b, "  in%d mode=%s qlen=%d", i, in.mode, in.q.Len())
		if in.worm != nil {
			fmt.Fprintf(&b, " worm=%d(msg%d,%s,len%d)", in.worm.ID, in.worm.Msg.ID, in.worm.Msg.Class, in.worm.Len())
		}
		if in.pb != nil {
			fmt.Fprintf(&b, " pb{written=%d/%d res=%d alloc=%d freed=%d need=%d pool=%d}",
				in.pb.written, in.pb.total, in.pb.reserved, in.pb.chunksAlloc, in.pb.chunksFreed, in.pb.need, in.pb.pool)
		}
		if in.bypassOut >= 0 {
			fmt.Fprintf(&b, " bypass->%d", in.bypassOut)
		}
		b.WriteByte('\n')
	}
	for o := range s.out {
		st := &s.out[o]
		if st.mode == outIdle && st.fifo.Len() == 0 && len(st.queue) == 0 {
			continue
		}
		fmt.Fprintf(&b, "  out%d mode=%s fifo=%d queue=%d", o, outModes[st.mode], st.fifo.Len(), len(st.queue))
		if st.mode == outBypass {
			fmt.Fprintf(&b, " boundIn=%d", st.boundIn)
		}
		if st.cur != nil {
			fmt.Fprintf(&b, " cur{worm=%d read=%d written=%d/%d}",
				st.cur.child.ID, st.cur.read, st.cur.pb.written, st.cur.pb.total)
		}
		for qi, qb := range st.queue {
			if qi >= 3 {
				fmt.Fprintf(&b, " ...")
				break
			}
			fmt.Fprintf(&b, " q%d{worm=%d read=%d wr=%d/%d mc=%v}",
				qi, qb.child.ID, qb.read, qb.pb.written, qb.pb.total, qb.pb.multicast)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
