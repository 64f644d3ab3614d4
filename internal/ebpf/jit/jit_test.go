package jit

import (
	"encoding/binary"
	"fmt"
	"testing"

	"rdx/internal/ebpf"
	"rdx/internal/ebpf/maps"
	"rdx/internal/ebpf/progen"
	"rdx/internal/ebpf/verifier"
	"rdx/internal/ebpf/vm"
	"rdx/internal/native"
	"rdx/internal/xabi"
)

// fakeGOT assigns stable fake addresses to helper and map symbols and
// builds the engine-side reverse table — a miniature of what a node's
// management stubs publish.
type fakeGOT struct {
	addrs   map[string]uint64
	helpers map[uint64]xabi.HelperFn
	next    uint64
}

func newFakeGOT() *fakeGOT {
	return &fakeGOT{
		addrs:   map[string]uint64{},
		helpers: map[uint64]xabi.HelperFn{},
		next:    0xFFFF_0000_0000,
	}
}

func (g *fakeGOT) resolve(kind native.RelocKind, sym string) (uint64, bool) {
	if a, ok := g.addrs[sym]; ok {
		return a, true
	}
	g.next += 0x100
	g.addrs[sym] = g.next
	if kind == native.RelocHelper {
		// Bind the helper implementation at this address.
		for id, fn := range vm.DefaultHelpers() {
			if HelperSymbol(int(id)) == sym {
				g.helpers[g.next] = fn
			}
		}
	}
	return g.next, true
}

// compileLinkRun JIT-compiles, links against a fake GOT, and executes.
func compileLinkRun(t *testing.T, p *ebpf.Program, arch native.Arch, env *xabi.Env, ctx []byte, mapAddrs map[string]uint64) (uint64, error) {
	t.Helper()
	bin, err := Compile(p, arch, p.Digest())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	got := newFakeGOT()
	for name, addr := range mapAddrs {
		got.addrs[MapSymbol(name)] = addr
	}
	if err := native.Link(bin, got.resolve); err != nil {
		t.Fatalf("link: %v", err)
	}
	prog, err := native.DecodeProgram(bin.Arch, bin.Code)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	eng := &native.Engine{HelperAddrs: got.helpers}
	return eng.Run(prog, env, ctx)
}

func TestCompileMinimal(t *testing.T) {
	p := ebpf.NewProgram("min", ebpf.ProgTypeSocketFilter, []ebpf.Instruction{
		ebpf.Mov64Imm(ebpf.R0, 77),
		ebpf.Exit(),
	})
	for _, arch := range Targets {
		r0, err := compileLinkRun(t, p, arch, &xabi.Env{}, nil, nil)
		if err != nil {
			t.Fatalf("%v: %v", arch, err)
		}
		if r0 != 77 {
			t.Errorf("%v: r0 = %d", arch, r0)
		}
	}
}

func TestCompileEmptyRejected(t *testing.T) {
	if _, err := Compile(ebpf.NewProgram("e", ebpf.ProgTypeSocketFilter, nil), native.ArchX64, ""); err == nil {
		t.Error("empty program compiled")
	}
}

func TestCompileJumpTargetsRemapAcrossLDDW(t *testing.T) {
	// A branch jumping over an LDDW pair must land correctly after the
	// pair collapses to one native op.
	insns := []ebpf.Instruction{
		ebpf.Mov64Imm(ebpf.R0, 1),
		ebpf.JmpImm(ebpf.JmpJEQ, ebpf.R0, 1, 3), // skip lddw (2 slots) + mov
	}
	insns = append(insns, ebpf.LoadImm64(ebpf.R0, 0xBAD)...)
	insns = append(insns,
		ebpf.Mov64Imm(ebpf.R0, 0xBB),
		ebpf.Alu64Imm(ebpf.AluAdd, ebpf.R0, 1),
		ebpf.Exit(),
	)
	p := ebpf.NewProgram("jmp", ebpf.ProgTypeSocketFilter, insns)
	if _, err := verifier.Verify(p, verifier.Config{}); err != nil {
		t.Fatalf("fixture must verify: %v", err)
	}
	for _, arch := range Targets {
		r0, err := compileLinkRun(t, p, arch, &xabi.Env{}, nil, nil)
		if err != nil {
			t.Fatalf("%v: %v", arch, err)
		}
		if r0 != 2 {
			t.Errorf("%v: r0 = %#x, want 2", arch, r0)
		}
	}
}

func TestCompileHelperReloc(t *testing.T) {
	p := ebpf.NewProgram("h", ebpf.ProgTypeSocketFilter, []ebpf.Instruction{
		ebpf.Call(xabi.HelperKtimeGetNS),
		ebpf.Exit(),
	})
	bin, err := Compile(p, native.ArchX64, p.Digest())
	if err != nil {
		t.Fatal(err)
	}
	if len(bin.Relocs) != 1 || bin.Relocs[0].Kind != native.RelocHelper {
		t.Fatalf("relocs = %+v", bin.Relocs)
	}
	if bin.Relocs[0].Symbol != "helper:ktime_get_ns" {
		t.Errorf("symbol = %q", bin.Relocs[0].Symbol)
	}
	if bin.Linked() {
		t.Error("binary linked before linking")
	}
	env := &xabi.Env{NowNS: func() uint64 { return 5150 }}
	r0, err := compileLinkRun(t, p, native.ArchX64, env, nil, nil)
	if err != nil || r0 != 5150 {
		t.Errorf("r0 = %d err = %v", r0, err)
	}
}

func TestCompileMapReloc(t *testing.T) {
	spec := ebpf.MapSpec{Name: "flows", Type: xabi.MapTypeHash, KeySize: 4, ValueSize: 8, MaxEntries: 8}
	insns := []ebpf.Instruction{
		ebpf.StoreImm(ebpf.SizeW, ebpf.R10, -4, 5),
	}
	insns = append(insns, ebpf.LoadMapPtr(ebpf.R1, 0)...)
	insns = append(insns,
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
		ebpf.Alu64Imm(ebpf.AluAdd, ebpf.R2, -4),
		ebpf.Call(xabi.HelperMapLookup),
		ebpf.JmpImm(ebpf.JmpJEQ, ebpf.R0, 0, 1),
		ebpf.LoadMem(ebpf.SizeDW, ebpf.R0, ebpf.R0, 0),
		ebpf.Exit(),
	)
	p := ebpf.NewProgram("m", ebpf.ProgTypeSocketFilter, insns, spec)

	// Back the map with a region memory, as the node would with its arena.
	const mapBase = 0x3000_0000
	backing := make([]byte, maps.Size(spec))
	memory, _ := xabi.NewRegionMemory(&xabi.Region{Base: mapBase, Data: backing, Writable: true, Name: "xs"})
	view, err := maps.Create(memory, mapBase, spec)
	if err != nil {
		t.Fatal(err)
	}
	val := binary.LittleEndian.AppendUint64(nil, 31337)
	view.Update([]byte{5, 0, 0, 0}, val, xabi.UpdateAny)

	env := &xabi.Env{
		Mem:  memory,
		Maps: xabi.HandleMapResolver{mapBase: view},
	}
	for _, arch := range Targets {
		r0, err := compileLinkRun(t, p, arch, env, nil, map[string]uint64{"flows": mapBase})
		if err != nil {
			t.Fatalf("%v: %v", arch, err)
		}
		if r0 != 31337 {
			t.Errorf("%v: r0 = %d", arch, r0)
		}
	}
}

func TestCompileAll(t *testing.T) {
	p := ebpf.NewProgram("all", ebpf.ProgTypeSocketFilter, []ebpf.Instruction{
		ebpf.Mov64Imm(ebpf.R0, 3), ebpf.Exit(),
	})
	bins, err := CompileAll(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) != 2 {
		t.Fatalf("compiled %d arches", len(bins))
	}
	for arch, b := range bins {
		if b.Arch != arch {
			t.Errorf("binary arch mismatch: %v vs %v", b.Arch, arch)
		}
		if b.SourceDigest != p.Digest() {
			t.Error("digest not propagated")
		}
	}
}

// TestDifferentialVMvsJIT is the toolchain's cornerstone property: for
// randomized generated programs, the interpreter and the JIT'd native code
// (on both architectures) must produce identical results and identical
// context side effects.
func TestDifferentialVMvsJIT(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		for _, size := range []int{64, 256, 1300} {
			p, err := progen.Generate(progen.Options{
				Size: size, Seed: seed, WithHelpers: true,
			})
			if err != nil {
				t.Fatalf("seed %d size %d: generate: %v", seed, size, err)
			}
			if _, err := verifier.Verify(p, verifier.Config{}); err != nil {
				t.Fatalf("seed %d size %d: generated program must verify: %v", seed, size, err)
			}

			mkEnv := func() *xabi.Env {
				return &xabi.Env{
					NowNS:   func() uint64 { return 1111 },
					RandU32: func() uint32 { return 2222 },
					CPUID:   1,
				}
			}
			ctxTemplate := make([]byte, xabi.CtxSize)
			binary.LittleEndian.PutUint32(ctxTemplate[xabi.CtxOffDataLen:], 1500)
			binary.LittleEndian.PutUint64(ctxTemplate[xabi.CtxOffFlowID:], 0xF10)

			ctxVM := append([]byte(nil), ctxTemplate...)
			wantR0, err := vm.New(vm.Options{Env: mkEnv()}).Run(p, ctxVM)
			if err != nil {
				t.Fatalf("seed %d size %d: interpreter: %v", seed, size, err)
			}

			for _, arch := range Targets {
				ctxN := append([]byte(nil), ctxTemplate...)
				r0, err := compileLinkRun(t, p, arch, mkEnv(), ctxN, nil)
				if err != nil {
					t.Fatalf("seed %d size %d %v: %v", seed, size, arch, err)
				}
				if r0 != wantR0 {
					t.Errorf("seed %d size %d %v: r0 = %#x, interpreter says %#x", seed, size, arch, r0, wantR0)
				}
				if !bytesEqual(ctxVM, ctxN) {
					t.Errorf("seed %d size %d %v: ctx side effects differ", seed, size, arch)
				}
			}
		}
	}
}

// TestDifferentialWithMaps extends the differential check to stateful
// programs: after N invocations, both engines must leave identical map
// contents.
func TestDifferentialWithMaps(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		p, err := progen.Generate(progen.Options{Size: 300, Seed: seed, WithMap: true, WithHelpers: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := verifier.Verify(p, verifier.Config{}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		spec := p.Maps[0]

		runN := func(exec func(env *xabi.Env, ctx []byte) error, mem *xabi.RegionMemory, view *maps.View) string {
			env := &xabi.Env{
				Mem:     mem,
				Maps:    xabi.HandleMapResolver{0x3000_0000: view},
				NowNS:   func() uint64 { return 7 },
				RandU32: func() uint32 { return 9 },
			}
			for i := 0; i < 4; i++ {
				ctx := make([]byte, xabi.CtxSize)
				binary.LittleEndian.PutUint64(ctx[xabi.CtxOffFlowID:], uint64(i))
				if err := exec(env, ctx); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
			dump := ""
			view.Iterate(func(k, v []byte) bool {
				dump += fmt.Sprintf("%x=%x;", k, v)
				return true
			})
			return dump
		}

		mkMap := func() (*xabi.RegionMemory, *maps.View) {
			backing := make([]byte, maps.Size(spec))
			m, _ := xabi.NewRegionMemory(&xabi.Region{Base: 0x3000_0000, Data: backing, Writable: true, Name: "xs"})
			v, err := maps.Create(m, 0x3000_0000, spec)
			if err != nil {
				t.Fatal(err)
			}
			return m, v
		}

		// Interpreter run: patch map handles like the local loader does.
		memVM, viewVM := mkMap()
		pVM := p.Clone()
		for _, ref := range pVM.MapRefs() {
			ebpf.SetImm64(pVM.Insns, ref.InsnIdx, 0x3000_0000)
			pVM.Insns[ref.InsnIdx].Src = 0
		}
		vmDump := runN(func(env *xabi.Env, ctx []byte) error {
			_, err := vm.New(vm.Options{Env: env}).Run(pVM, ctx)
			return err
		}, memVM, viewVM)

		for _, arch := range Targets {
			memN, viewN := mkMap()
			bin, err := Compile(p, arch, p.Digest())
			if err != nil {
				t.Fatal(err)
			}
			got := newFakeGOT()
			got.addrs[MapSymbol(spec.Name)] = 0x3000_0000
			if err := native.Link(bin, got.resolve); err != nil {
				t.Fatal(err)
			}
			np, err := native.DecodeProgram(bin.Arch, bin.Code)
			if err != nil {
				t.Fatal(err)
			}
			eng := &native.Engine{HelperAddrs: got.helpers}
			nDump := runN(func(env *xabi.Env, ctx []byte) error {
				_, err := eng.Run(np, env, ctx)
				return err
			}, memN, viewN)
			if nDump != vmDump {
				t.Errorf("seed %d %v: map contents diverge\nvm:     %s\nnative: %s", seed, arch, vmDump, nDump)
			}
		}
	}
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
