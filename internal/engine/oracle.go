//go:build mdworm_oracle

package engine

// DeadlineSleep is false under the mdworm_oracle build tag: a component that
// holds work is stepped every cycle, even when it declared a timetable, as
// the kernel did before deadline sleep. Quiesced components still sleep.
// Comparing the suite's output with and without the tag checks that sleeping
// through a countdown changes no cycle of the model.
const DeadlineSleep = false
