package node

import (
	"context"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"rdx/internal/ebpf"
	"rdx/internal/ebpf/jit"
	"rdx/internal/ebpf/maps"
	"rdx/internal/native"
	"rdx/internal/rdma"
	"rdx/internal/udf"
	"rdx/internal/wasm"
	"rdx/internal/xabi"
)

func newTestNode(t *testing.T, hooks ...string) *Node {
	t.Helper()
	if len(hooks) == 0 {
		hooks = []string{"ingress"}
	}
	n, err := New(Config{
		ID:      "n0",
		Hooks:   hooks,
		Latency: rdma.NoLatency(),
		Cores:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n
}

// deployEBPF compiles, links, writes, and binds an eBPF program locally
// (the agent's load path) and returns the blob address.
func deployEBPF(t *testing.T, n *Node, hook string, p *ebpf.Program, extra map[string]uint64, version uint64) {
	t.Helper()
	bin, err := jit.Compile(p, n.Arch, p.Digest())
	if err != nil {
		t.Fatal(err)
	}
	if err := native.Link(bin, n.LocalResolver(extra)); err != nil {
		t.Fatal(err)
	}
	addr, err := n.WriteBlobLocal(bin, BlobParams{Kind: KindEBPF, Version: version})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.BindHookLocal(hook, addr, version); err != nil {
		t.Fatal(err)
	}
}

func TestBootLayout(t *testing.T) {
	n := newTestNode(t, "a", "b")
	magic, _ := n.Arena.ReadU32(CtrlBase + CtrlOffMagic)
	if magic != CtrlMagic {
		t.Errorf("magic = %#x", magic)
	}
	brk, _ := n.Arena.ReadQword(CtrlBase + CtrlOffCodeBrk)
	if brk != CodeBase {
		t.Errorf("code brk = %#x", brk)
	}
	if _, err := n.HookSlot("a"); err != nil {
		t.Error(err)
	}
	if _, err := n.HookSlot("zz"); err == nil {
		t.Error("unknown hook accepted")
	}
	// MRs registered.
	for _, name := range []string{MRCtrl, MRGot, MRCode, MRScratch, MRMeta} {
		if _, ok := n.RNIC.MRByName(name); !ok {
			t.Errorf("MR %s missing", name)
		}
	}
}

func TestGOTSerialization(t *testing.T) {
	n := newTestNode(t)
	raw, err := n.Arena.Read(GOTBase, GOTSize)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseGOT(raw)
	if err != nil {
		t.Fatal(err)
	}
	local := n.GOT()
	if len(got) != len(local) {
		t.Fatalf("parsed %d symbols, local has %d", len(got), len(local))
	}
	for sym, addr := range local {
		if got[sym] != addr {
			t.Errorf("symbol %s: parsed %#x, local %#x", sym, got[sym], addr)
		}
	}
	if _, ok := got["xstate_meta"]; !ok {
		t.Error("xstate_meta missing from GOT")
	}
	if _, err := ParseGOT([]byte{1}); err == nil {
		t.Error("short GOT parsed")
	}
}

func TestExecEmptyHookPasses(t *testing.T) {
	n := newTestNode(t)
	ctx := make([]byte, xabi.CtxSize)
	res, err := n.ExecHook("ingress", ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != xabi.VerdictPass || res.Version != 0 {
		t.Errorf("res = %+v", res)
	}
	st, _ := n.Stats("ingress")
	if st.Execs != 1 {
		t.Errorf("execs = %d", st.Execs)
	}
}

func TestDeployAndExecEBPF(t *testing.T) {
	n := newTestNode(t)
	// Program: verdict = ctx.len > 100 ? pass : drop (returns the verdict).
	insns := []ebpf.Instruction{
		ebpf.LoadMem(ebpf.SizeW, ebpf.R2, ebpf.R1, int16(xabi.CtxOffDataLen)),
		ebpf.Mov64Imm(ebpf.R0, int32(xabi.VerdictPass)),
		ebpf.JmpImm(ebpf.JmpJGT, ebpf.R2, 100, 1),
		ebpf.Mov64Imm(ebpf.R0, int32(xabi.VerdictDrop)),
		ebpf.Exit(),
	}
	p := ebpf.NewProgram("lenfilter", ebpf.ProgTypeSocketFilter, insns)
	deployEBPF(t, n, "ingress", p, nil, 1)

	big := make([]byte, xabi.CtxSize)
	binary.LittleEndian.PutUint32(big[xabi.CtxOffDataLen:], 500)
	res, err := n.ExecHook("ingress", big, nil)
	if err != nil {
		t.Fatalf("big packet: %v", err)
	}
	if res.Verdict != xabi.VerdictPass || res.Version != 1 {
		t.Errorf("big packet res = %+v", res)
	}

	small := make([]byte, xabi.CtxSize)
	binary.LittleEndian.PutUint32(small[xabi.CtxOffDataLen:], 10)
	res, err = n.ExecHook("ingress", small, nil)
	if !errors.Is(err, ErrDropped) {
		t.Fatalf("small packet err = %v, want ErrDropped", err)
	}
	if res.Verdict != xabi.VerdictDrop {
		t.Errorf("small packet res = %+v", res)
	}
	st, _ := n.Stats("ingress")
	if st.Execs != 2 || st.Drops != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDeployEBPFWithMap(t *testing.T) {
	n := newTestNode(t)
	spec := ebpf.MapSpec{Name: "cnt", Type: xabi.MapTypeHash, KeySize: 4, ValueSize: 8, MaxEntries: 16}

	// Create the XState map in the scratchpad (as the control plane or
	// agent would) and link the program against it.
	hdrAddr, err := n.AllocScratch(int(maps.Size(spec)))
	if err != nil {
		t.Fatal(err)
	}
	view, err := maps.Create(n.Memory(), hdrAddr, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.RegisterMetaXState(hdrAddr); err != nil {
		t.Fatal(err)
	}

	// Program: increment map[0] on every request; return pass.
	insns := []ebpf.Instruction{
		ebpf.StoreImm(ebpf.SizeW, ebpf.R10, -4, 0),
		ebpf.StoreImm(ebpf.SizeDW, ebpf.R10, -16, 1),
	}
	insns = append(insns, ebpf.LoadMapPtr(ebpf.R1, 0)...)
	insns = append(insns,
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
		ebpf.Alu64Imm(ebpf.AluAdd, ebpf.R2, -4),
		ebpf.Call(xabi.HelperMapLookup),
		ebpf.JmpImm(ebpf.JmpJNE, ebpf.R0, 0, 9), // found → increment path
	)
	insns = append(insns, ebpf.LoadMapPtr(ebpf.R1, 0)...)
	insns = append(insns,
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
		ebpf.Alu64Imm(ebpf.AluAdd, ebpf.R2, -4),
		ebpf.Mov64Reg(ebpf.R3, ebpf.R10),
		ebpf.Alu64Imm(ebpf.AluAdd, ebpf.R3, -16),
		ebpf.Mov64Imm(ebpf.R4, 0),
		ebpf.Call(xabi.HelperMapUpdate),
		ebpf.Ja(3),
		ebpf.LoadMem(ebpf.SizeDW, ebpf.R3, ebpf.R0, 0),
		ebpf.Alu64Imm(ebpf.AluAdd, ebpf.R3, 1),
		ebpf.StoreMem(ebpf.SizeDW, ebpf.R0, ebpf.R3, 0),
		ebpf.Mov64Imm(ebpf.R0, int32(xabi.VerdictPass)),
		ebpf.Exit(),
	)
	p := ebpf.NewProgram("counter", ebpf.ProgTypeSocketFilter, insns, spec)
	deployEBPF(t, n, "ingress", p, map[string]uint64{jit.MapSymbol("cnt"): hdrAddr}, 1)

	ctx := make([]byte, xabi.CtxSize)
	for i := 0; i < 5; i++ {
		if _, err := n.ExecHook("ingress", ctx, nil); err != nil {
			t.Fatalf("exec %d: %v", i, err)
		}
	}
	addr, found, err := view.Lookup([]byte{0, 0, 0, 0})
	if err != nil || !found {
		t.Fatalf("lookup: %v %v", found, err)
	}
	if got, _ := n.Memory().ReadMem(addr, 8); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
}

func TestDeployWasm(t *testing.T) {
	n := newTestNode(t)
	// Filter: read len from ctx (in linear memory), pass iff len < 1000.
	body := wasm.NewBody().
		I32Const(int32(xabi.CtxOffDataLen)).I32Load(0).
		I32Const(1000).Raw(wasm.OpI32LtU).
		If(uint8(wasm.I64)).
		I64Const(int64(xabi.VerdictPass)).
		Else().
		I64Const(int64(xabi.VerdictDrop)).
		End().
		End().Bytes()
	m := wasm.SimpleFilter("lenlimit", 1, nil, body)

	bin, err := wasm.Compile(m, n.Arch)
	if err != nil {
		t.Fatal(err)
	}
	memBase, err := n.AllocScratch(int(m.MemPages) * wasm.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := native.Link(bin, n.LocalResolver(map[string]uint64{
		wasm.SymMemory: memBase,
	})); err != nil {
		t.Fatal(err)
	}
	addr, err := n.WriteBlobLocal(bin, BlobParams{Kind: KindWasm, Version: 3, MemBase: memBase})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.BindHookLocal("ingress", addr, 3); err != nil {
		t.Fatal(err)
	}

	ctx := make([]byte, xabi.CtxSize)
	binary.LittleEndian.PutUint32(ctx[xabi.CtxOffDataLen:], 100)
	res, err := n.ExecHook("ingress", ctx, nil)
	if err != nil || res.Verdict != xabi.VerdictPass || res.Version != 3 {
		t.Fatalf("small: res=%+v err=%v", res, err)
	}
	binary.LittleEndian.PutUint32(ctx[xabi.CtxOffDataLen:], 5000)
	if _, err = n.ExecHook("ingress", ctx, nil); !errors.Is(err, ErrDropped) {
		t.Fatalf("big: err=%v, want drop", err)
	}
}

func TestDeployUDF(t *testing.T) {
	n := newTestNode(t)
	p, err := udf.New("q", "tenant == 7")
	if err != nil {
		t.Fatal(err)
	}
	bin, err := p.Compile(n.Arch)
	if err != nil {
		t.Fatal(err)
	}
	if err := native.Link(bin, n.LocalResolver(nil)); err != nil {
		t.Fatal(err)
	}
	addr, err := n.WriteBlobLocal(bin, BlobParams{Kind: KindUDF, Version: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.BindHookLocal("ingress", addr, 9); err != nil {
		t.Fatal(err)
	}

	ctx := make([]byte, xabi.CtxSize)
	binary.LittleEndian.PutUint64(ctx[xabi.CtxOffTenant:], 7)
	res, err := n.ExecHook("ingress", ctx, nil)
	if err != nil || res.Verdict != 1 {
		t.Fatalf("tenant 7: res=%+v err=%v", res, err)
	}
	binary.LittleEndian.PutUint64(ctx[xabi.CtxOffTenant:], 8)
	res, err = n.ExecHook("ingress", ctx, nil)
	// verdict 0 == VerdictDrop.
	if !errors.Is(err, ErrDropped) {
		t.Fatalf("tenant 8: res=%+v err=%v", res, err)
	}
}

func TestUnlinkedBinaryRejected(t *testing.T) {
	n := newTestNode(t)
	p := ebpf.NewProgram("h", ebpf.ProgTypeSocketFilter, []ebpf.Instruction{
		ebpf.Call(xabi.HelperKtimeGetNS),
		ebpf.Exit(),
	})
	bin, err := jit.Compile(p, n.Arch, p.Digest())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.WriteBlobLocal(bin, BlobParams{Kind: KindEBPF, Version: 1}); err == nil {
		t.Error("unlinked binary deployed")
	}
}

func TestArchMismatchRejectedAtExec(t *testing.T) {
	n := newTestNode(t)
	other := native.ArchA64
	if n.Arch == native.ArchA64 {
		other = native.ArchX64
	}
	p := ebpf.NewProgram("m", ebpf.ProgTypeSocketFilter, []ebpf.Instruction{
		ebpf.Mov64Imm(ebpf.R0, 1), ebpf.Exit(),
	})
	bin, _ := jit.Compile(p, other, p.Digest())
	native.Link(bin, n.LocalResolver(nil))
	addr, err := n.WriteBlobLocal(bin, BlobParams{Kind: KindEBPF, Version: 1})
	if err != nil {
		t.Fatal(err)
	}
	n.BindHookLocal("ingress", addr, 1)
	if _, err := n.ExecHook("ingress", make([]byte, xabi.CtxSize), nil); err == nil {
		t.Error("arch mismatch executed")
	}
}

func TestAllocBumpAndExhaustion(t *testing.T) {
	n := newTestNode(t)
	a1, err := n.AllocCode(100)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := n.AllocCode(100)
	if err != nil {
		t.Fatal(err)
	}
	if a2 != a1+104 { // 100 rounded to 104
		t.Errorf("bump: %#x then %#x", a1, a2)
	}
	if _, err := n.AllocCode(CodeSize * 2); err == nil {
		t.Error("over-allocation accepted")
	}
	s1, err := n.AllocScratch(10)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := n.AllocScratch(10)
	if s2 != s1+64 {
		t.Errorf("scratch bump: %#x then %#x", s1, s2)
	}
}

func TestVersionFlipUpdatesExecution(t *testing.T) {
	n := newTestNode(t)
	mk := func(ret int32) *ebpf.Program {
		return ebpf.NewProgram("v", ebpf.ProgTypeSocketFilter, []ebpf.Instruction{
			ebpf.Mov64Imm(ebpf.R0, ret), ebpf.Exit(),
		})
	}
	deployEBPF(t, n, "ingress", mk(5), nil, 1)
	ctx := make([]byte, xabi.CtxSize)
	res, _ := n.ExecHook("ingress", ctx, nil)
	if res.Verdict != 5 || res.Version != 1 {
		t.Fatalf("v1: %+v", res)
	}
	deployEBPF(t, n, "ingress", mk(6), nil, 2)
	res, _ = n.ExecHook("ingress", ctx, nil)
	if res.Verdict != 6 || res.Version != 2 {
		t.Fatalf("v2: %+v", res)
	}
}

func TestCtxTeardown(t *testing.T) {
	n := newTestNode(t)
	p := ebpf.NewProgram("x", ebpf.ProgTypeSocketFilter, []ebpf.Instruction{
		ebpf.Mov64Imm(ebpf.R0, 9), ebpf.Exit(),
	})
	deployEBPF(t, n, "ingress", p, nil, 1)
	if err := n.CtxTeardown("ingress"); err != nil {
		t.Fatal(err)
	}
	res, err := n.ExecHook("ingress", make([]byte, xabi.CtxSize), nil)
	if err != nil || res.Verdict != xabi.VerdictPass || res.Version != 0 {
		t.Errorf("after teardown: %+v err=%v", res, err)
	}
}

func TestWaitReadyBBUGate(t *testing.T) {
	n := newTestNode(t)
	slot, _ := n.HookSlot("ingress")
	gate := HookAddr(slot) + HookOffBuffer

	// Gate open: returns immediately.
	if err := n.WaitReady(context.Background(), "ingress"); err != nil {
		t.Fatal(err)
	}
	// Gate raised: blocks until released.
	n.Arena.WriteQword(gate, 1)
	released := make(chan error, 1)
	go func() {
		released <- n.WaitReady(context.Background(), "ingress")
	}()
	select {
	case <-released:
		t.Fatal("WaitReady returned while gate raised")
	case <-time.After(5 * time.Millisecond):
	}
	n.Arena.WriteQword(gate, 0)
	select {
	case err := <-released:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("WaitReady never released")
	}
	// Timeout path.
	n.Arena.WriteQword(gate, 1)
	cctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if err := n.WaitReady(cctx, "ingress"); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("timeout err = %v", err)
	}
}

func TestMetaXStateIndex(t *testing.T) {
	n := newTestNode(t)
	i0, err := n.RegisterMetaXState(0x111000)
	if err != nil {
		t.Fatal(err)
	}
	i1, _ := n.RegisterMetaXState(0x222000)
	if i0 != 0 || i1 != 1 {
		t.Errorf("indexes %d %d", i0, i1)
	}
	entries, err := n.MetaXStateEntries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0] != 0x111000 || entries[1] != 0x222000 {
		t.Errorf("entries = %#x", entries)
	}
}
