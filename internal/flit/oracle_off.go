//go:build !mdworm_oracle

package flit

// poisonReleased is false in production builds: a released worm goes back
// to its arena's free list. The mdworm_oracle build tag sets it, turning
// every release into a poisoning so that a read after release panics.
const poisonReleased = false
