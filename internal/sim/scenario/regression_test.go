//go:build simregression

package scenario

import (
	"os"
	"path/filepath"
	"testing"

	"rdx/internal/sim"
)

// The simregression build tag re-seeds three historical bugs:
//
//   - controlha: pre-rotation takeover fencing (Replicator.Activate does
//     not rotate the ring rkey), letting a stale leader's in-flight WRITE
//     and commit CAS land past the successor's replay point.
//   - shard: the PR 8 refund-on-failure bug — a publish that lost its
//     owner to a drain returned without refunding the admission charge.
//   - controlha: unguarded resident chains (guardChains off) — pre-posted
//     renew/heartbeat programs carried no witness-epoch guard, so a
//     successor's epoch bump did not revoke a deposed leader's chains.
//
// These tests assert the simulator FINDS each within a few thousand
// schedules and shrinks each to a short, replayable trace. Set
// SIM_WRITE_CORPUS=1 to refresh the checked-in corpus under
// internal/sim/testdata/schedules.
const regressionBudget = 3000

func writeCorpus(t *testing.T, name string, sc *sim.Schedule) {
	if os.Getenv("SIM_WRITE_CORPUS") != "1" {
		return
	}
	path := filepath.Join("..", "testdata", "schedules", name)
	if err := sim.SaveSchedule(path, sc); err != nil {
		t.Fatalf("writing corpus schedule: %v", err)
	}
	t.Logf("wrote %s", path)
}

// TestFencingRegression: the acked-durable or journal-replayable invariant
// must catch the stale leader's commit escaping the successor's replay.
func TestFencingRegression(t *testing.T) {
	rep := sim.ExploreRandom(RunFailover, 1, regressionBudget, 300)
	if rep.Violation == nil {
		t.Fatalf("fencing bug not found in %d schedules", rep.Runs)
	}
	v := rep.Violation
	t.Logf("found after %d runs, shrunk to %d steps:\n%v", rep.Runs, len(v.Trace), v)
	if v.Invariant != "acked-durable" && v.Invariant != "journal-replayable" {
		t.Fatalf("unexpected invariant %q", v.Invariant)
	}
	if len(v.Trace) > 20 {
		t.Fatalf("shrunk trace has %d steps, want <= 20", len(v.Trace))
	}
	writeCorpus(t, "fencing-stale-reservation.json", &sim.Schedule{
		Scenario: "failover",
		Seed:     v.Seed,
		Choices:  v.Choices,
		MaxSteps: 300,
		Note:     "pre-rotation takeover fencing: stale leader's commit CAS lands past the successor's replay point (" + v.Invariant + ")",
	})
}

// TestRefundRegression: token conservation must catch the skipped refund
// on the draining-owner publish path.
func TestRefundRegression(t *testing.T) {
	rep := sim.ExploreRandom(RunRebalance, 1, regressionBudget, 300)
	if rep.Violation == nil {
		t.Fatalf("refund bug not found in %d schedules", rep.Runs)
	}
	v := rep.Violation
	t.Logf("found after %d runs, shrunk to %d steps:\n%v", rep.Runs, len(v.Trace), v)
	if v.Invariant != "token-conservation" {
		t.Fatalf("unexpected invariant %q", v.Invariant)
	}
	if len(v.Trace) > 20 {
		t.Fatalf("shrunk trace has %d steps, want <= 20", len(v.Trace))
	}
	writeCorpus(t, "rebalance-refund-leak.json", &sim.Schedule{
		Scenario: "rebalance",
		Seed:     v.Seed,
		Choices:  v.Choices,
		MaxSteps: 300,
		Note:     "PR 8 refund-on-failure: drained-owner publish path skipped Refund, leaking tenant quota (token-conservation)",
	})
}

// TestChainGuardRegression: unguarded resident chains — the witness-epoch
// bump no longer revokes pre-posted programs, so a deposed leader's
// heartbeat chain keeps certifying liveness after takeover. The
// stale-chain-rejected invariant must catch it. The shrunk trace is longer
// than the other regressions' because the violation needs B's whole
// takeover sequence ordered before A's beat.
func TestChainGuardRegression(t *testing.T) {
	// The regression build also re-opens the ring-fencing bug (the const
	// gates share the build tag), but the chain scenario pins that one
	// closed with an explicit FenceRing before the takeover, so the chain
	// invariant is the only one in play here.
	rep := sim.ExploreRandom(RunChainOffload, 1, regressionBudget, 300)
	if rep.Violation == nil {
		t.Fatalf("unguarded-chain bug not found in %d schedules", rep.Runs)
	}
	v := rep.Violation
	if v.Invariant != "stale-chain-rejected" {
		t.Fatalf("unexpected invariant %q", v.Invariant)
	}
	t.Logf("found after %d runs, shrunk to %d steps:\n%v", rep.Runs, len(v.Trace), v)
	if len(v.Trace) > 40 {
		t.Fatalf("shrunk trace has %d steps, want <= 40", len(v.Trace))
	}
	writeCorpus(t, "chain-unguarded-heartbeat.json", &sim.Schedule{
		Scenario: "chain",
		Seed:     v.Seed,
		Choices:  v.Choices,
		MaxSteps: 300,
		Note:     "unguarded resident chains: deposed leader's heartbeat program kept certifying liveness after the successor's epoch bump (stale-chain-rejected)",
	})
}
