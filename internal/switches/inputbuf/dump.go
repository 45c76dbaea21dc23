package inputbuf

import (
	"fmt"
	"strings"
)

// Dump renders the full internal state of the switch for deadlock
// diagnosis.
func (s *Switch) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s bound=%#x requested=%#x\n", s.Name(), s.boundOut, s.reqOut)
	for i := range s.in {
		in := &s.in[i]
		if in.mode == modeIdle && len(in.queue) == 0 {
			continue
		}
		fmt.Fprintf(&b, "  in%d mode=%s queue=%d occupancy=%d", i, in.mode, len(in.queue), in.occupancy)
		if len(in.queue) != 0 {
			h := &in.queue[0]
			fmt.Fprintf(&b, " head=%d(msg%d,%s,got %d/%d) freed=%d",
				h.w.ID, h.w.Msg.ID, h.w.Msg.Class, h.got, h.w.Len(), in.minSent)
		}
		for _, br := range in.branches {
			fmt.Fprintf(&b, " b{out=%d sent=%d", br.out, br.sent)
			switch {
			case br.done:
				b.WriteString(" done")
			case br.granted:
				fmt.Fprintf(&b, " worm=%d granted", br.child.ID)
			default:
				fmt.Fprintf(&b, " worm=%d waiting since %d", br.child.ID, br.reqAt)
			}
			b.WriteByte('}')
		}
		b.WriteByte('\n')
	}
	return b.String()
}
