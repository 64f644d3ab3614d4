//go:build race

package verifier

// raceEnabled reports whether the race detector is compiled in; allocation
// gates skip under -race, where instrumentation allocates.
const raceEnabled = true
