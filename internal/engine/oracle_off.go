//go:build !mdworm_oracle

package engine

// DeadlineSleep reports whether a component declared with
// DeclareEventDriven may sleep while it holds work, until its NextWake
// deadline. The mdworm_oracle build tag turns it off, stepping such a
// component every cycle instead.
const DeadlineSleep = true
