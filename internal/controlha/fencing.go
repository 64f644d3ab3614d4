//go:build !simregression

package controlha

// rotateRingOnActivate gates the rkey-rotation fence in
// Replicator.Activate. It is a const, not a flag: the only build that
// turns it off is the simregression one, which deliberately re-opens the
// historical stale-leader append window so the simulator can demonstrate
// it finds the bug (see internal/sim/scenario).
const rotateRingOnActivate = true
