package verifier

import (
	"testing"

	"rdx/internal/ebpf/progen"
)

// TestVerifyAllocsFlatInProgramSize is the allocation gate: Verify's
// allocation count must not grow with program size. Scratch slices grow in
// bytes, not in number, and abstract states come from a reused pool
// instead of one heap state per instruction.
func TestVerifyAllocsFlatInProgramSize(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is meaningless under -race")
	}
	allocs := func(size int, withMap bool) float64 {
		p := progen.MustGenerate(progen.Options{Size: size, Seed: 7, WithMap: withMap, WithHelpers: true})
		return testing.AllocsPerRun(20, func() {
			if _, err := Verify(p, Config{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	// Slack covers the pool's append growth, which follows the number of
	// states parked at once (branch nesting), not the program length.
	const slack = 4
	for _, withMap := range []bool{false, true} {
		small, large := allocs(1300, withMap), allocs(11000, withMap)
		t.Logf("withMap=%v: %.0f allocs at 1.3k insns, %.0f at 11k", withMap, small, large)
		if large > small+slack {
			t.Errorf("withMap=%v: Verify allocates %.0f times at 11k insns vs %.0f at 1.3k; want at most %.0f",
				withMap, large, small, small+slack)
		}
	}
}
