package experiments

import (
	"testing"
	"time"

	"rdx/internal/ebpf/jit"
	"rdx/internal/ebpf/progen"
	"rdx/internal/ebpf/verifier"
	"rdx/internal/native"
)

func TestCalibrate(t *testing.T) {
	for _, size := range []int{1300, 11000, 26000, 49000, 76000, 95000} {
		p := progen.MustGenerate(progen.Options{Size: size, Seed: 1, WithHelpers: true})
		t0 := time.Now()
		if _, err := verifier.Verify(p, verifier.Config{}); err != nil {
			t.Fatal(err)
		}
		tv := time.Since(t0)
		t1 := time.Now()
		if _, err := jit.Compile(p, native.ArchX64, p.Digest()); err != nil {
			t.Fatal(err)
		}
		tc := time.Since(t1)
		t.Logf("size=%d verify=%v compile=%v", size, tv, tc)
	}
}
