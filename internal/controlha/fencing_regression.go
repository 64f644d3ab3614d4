//go:build simregression

package controlha

// Regression build: Activate does NOT rotate the ring rkey, restoring the
// historical fencing hole. Without the rotation a deposed leader's
// already-issued WRITE and commit CAS still land, so it can commit an
// entry past the sequence the successor replayed — the bug the
// simulator's journal invariants catch
// (go test -tags simregression ./internal/sim/...).
const rotateRingOnActivate = false
