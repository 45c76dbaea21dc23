//go:build mdworm_oracle

package flit

// poisonReleased is set under the mdworm_oracle build tag, the test-only
// use-after-release oracle: the pool zeroes every worm, message and op it
// takes back and never reuses it. A zeroed worm has no message and no cached
// length, so any later Len, Tail or Msg field read panics; a zeroed message
// has no op, destinations or forwarding step; a zeroed op has a remaining
// count of -1, so Deliver and DropN panic. A read after release fails
// instead of silently reading a recycled object. Simulated behaviour is
// unchanged; only allocation differs.
const poisonReleased = true
