//go:build mdworm_oracle

package flit

// poisonReleased is set under the mdworm_oracle build tag, the test-only
// use-after-release oracle: Release zeroes the worm and never reuses it. A
// zeroed worm has no message and no cached length, so any later Len, Tail
// or Msg field read panics instead of silently reading a recycled worm.
// Simulated behaviour is unchanged; only worm allocation differs.
const poisonReleased = true
