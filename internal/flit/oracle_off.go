//go:build !mdworm_oracle

package flit

// poisonReleased is false in production builds: a released worm, message or
// op goes back to its pool's free list. The mdworm_oracle build tag sets
// it, turning every release into a poisoning so that a read after release
// panics.
const poisonReleased = false
