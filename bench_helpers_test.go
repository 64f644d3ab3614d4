package rdx_test

import (
	"testing"

	"rdx/internal/ebpf"
	"rdx/internal/ebpf/jit"
	"rdx/internal/ebpf/maps"
	"rdx/internal/ebpf/vm"
	"rdx/internal/native"
	"rdx/internal/xabi"
)

func experimentsMapSize(spec ebpf.MapSpec) uint64 { return maps.Size(spec) }

func benchEnv() *xabi.Env {
	return &xabi.Env{
		NowNS:   func() uint64 { return 1 },
		RandU32: func() uint32 { return 2 },
	}
}

func newBenchVM() *vm.VM {
	return vm.New(vm.Options{Env: benchEnv()})
}

// compileForBench JIT-compiles and links p against a synthetic GOT, wiring
// helper addresses into an engine.
func compileForBench(b *testing.B, p *ebpf.Program) (*native.Program, *native.Engine, *xabi.Env) {
	b.Helper()
	bin, err := jit.Compile(p, native.ArchX64, p.Digest())
	if err != nil {
		b.Fatal(err)
	}
	helperAddrs := map[uint64]xabi.HelperFn{}
	next := uint64(0xBEEF_0000)
	err = native.Link(bin, func(kind native.RelocKind, sym string) (uint64, bool) {
		if kind != native.RelocHelper {
			return 0, false
		}
		for id, fn := range vm.DefaultHelpers() {
			if jit.HelperSymbol(int(id)) == sym {
				next += 0x10
				helperAddrs[next] = fn
				return next, true
			}
		}
		return 0, false
	})
	if err != nil {
		b.Fatal(err)
	}
	prog, err := native.DecodeProgram(bin.Arch, bin.Code)
	if err != nil {
		b.Fatal(err)
	}
	return prog, &native.Engine{HelperAddrs: helperAddrs}, benchEnv()
}
