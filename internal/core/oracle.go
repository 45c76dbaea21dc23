//go:build mdworm_oracle

package core

// reuse is false under the mdworm_oracle build tag: every simulator builds a
// fresh fabric into new storage, so the suite's output under the tag checks
// that sharing fabrics and recycling simulators change no result.
const reuse = false
