//go:build mdworm_oracle

package core

// shareFabrics is false under the mdworm_oracle build tag: every simulator
// and canonicalization builds a fresh fabric, so the suite's output under
// the tag checks that sharing one changes no result.
const shareFabrics = false
