package core

import (
	"encoding/binary"
	"errors"
	"sync"
	"testing"
	"time"

	"rdx/internal/ebpf"
	"rdx/internal/ebpf/maps"
	"rdx/internal/ext"
	"rdx/internal/mem"
	"rdx/internal/node"
	"rdx/internal/rdma"
	"rdx/internal/udf"
	"rdx/internal/wasm"
	"rdx/internal/xabi"
)

// rig is a control plane plus one or more served nodes on a fabric.
type rig struct {
	cp    *ControlPlane
	fab   *rdma.Fabric
	nodes []*node.Node
	cfs   []*CodeFlow
}

func newRig(t *testing.T, nodeCount int, hooks ...string) *rig {
	t.Helper()
	if len(hooks) == 0 {
		hooks = []string{"ingress"}
	}
	r := &rig{cp: NewControlPlane(), fab: rdma.NewFabric()}
	for i := 0; i < nodeCount; i++ {
		n, err := node.New(node.Config{
			ID:      nodeID(i),
			Hooks:   hooks,
			Latency: rdma.NoLatency(),
			Cores:   2,
			Seed:    int64(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		l, err := r.fab.Listen(nodeID(i))
		if err != nil {
			t.Fatal(err)
		}
		go n.Serve(l)
		r.nodes = append(r.nodes, n)

		conn, err := r.fab.Dial(nodeID(i))
		if err != nil {
			t.Fatal(err)
		}
		cf, err := r.cp.CreateCodeFlow(conn)
		if err != nil {
			t.Fatal(err)
		}
		r.cfs = append(r.cfs, cf)
	}
	t.Cleanup(func() {
		for _, cf := range r.cfs {
			cf.Close()
		}
		for _, n := range r.nodes {
			n.Close()
		}
	})
	return r
}

func nodeID(i int) string { return string(rune('a'+i)) + "-node" }

func constProg(name string, ret int32) *ext.Extension {
	return ext.FromEBPF(ebpf.NewProgram(name, ebpf.ProgTypeSocketFilter, []ebpf.Instruction{
		ebpf.Mov64Imm(ebpf.R0, ret),
		ebpf.Exit(),
	}))
}

func TestCreateCodeFlowDiscovery(t *testing.T) {
	r := newRig(t, 1, "ingress", "egress")
	cf := r.cfs[0]
	if cf.Arch != r.nodes[0].Arch {
		t.Errorf("arch = %v, want %v", cf.Arch, r.nodes[0].Arch)
	}
	if _, err := cf.HookAddr("ingress"); err != nil {
		t.Error(err)
	}
	if _, err := cf.HookAddr("nope"); err == nil {
		t.Error("unknown hook resolved")
	}
	got := cf.GOT()
	if len(got) == 0 {
		t.Fatal("empty GOT snapshot")
	}
	if got["xstate_meta"] != node.MetaBase {
		t.Errorf("xstate_meta = %#x", got["xstate_meta"])
	}
}

func TestCreateCodeFlowRejectsUninitializedTarget(t *testing.T) {
	// An endpoint over a raw arena without ctx_init must be rejected.
	arena := newRawArena(t)
	ep := rdma.NewEndpoint(arena, rdma.NoLatency())
	ep.RegisterMR("rdx:ctrl", 0, 4096, rdma.PermAll)
	fab := rdma.NewFabric()
	l, _ := fab.Listen("raw")
	go ep.Serve(l)
	defer ep.Close()

	conn, _ := fab.Dial("raw")
	if _, err := NewControlPlane().CreateCodeFlow(conn); err == nil {
		t.Error("codeflow created against uninitialized node")
	}
}

func newRawArena(t *testing.T) *mem.Arena {
	t.Helper()
	return mem.NewArena(1 << 16)
}

func attachLocal(n *node.Node, addr uint64) (*maps.View, error) {
	return maps.Attach(n.Memory(), addr)
}

func TestInjectEBPFEndToEnd(t *testing.T) {
	r := newRig(t, 1)
	cf := r.cfs[0]
	rep, err := cf.InjectExtension(constProg("p5", 5), "ingress")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Version == 0 || rep.Total <= 0 {
		t.Errorf("report = %+v", rep)
	}
	// The node's data path now executes the remotely injected program —
	// with zero node-CPU involvement in the injection.
	res, err := r.nodes[0].ExecHook("ingress", make([]byte, xabi.CtxSize), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != 5 || res.Version != rep.Version {
		t.Errorf("res = %+v, want verdict 5 version %d", res, rep.Version)
	}
	st := r.nodes[0].Cores.Stats()
	if st.TasksCompleted != 0 {
		t.Errorf("node cores ran %d tasks during agentless injection", st.TasksCompleted)
	}
}

func TestRegistryCompileOnceDeployAnywhere(t *testing.T) {
	r := newRig(t, 3)
	e := constProg("shared", 7)
	for i, cf := range r.cfs {
		rep, err := cf.InjectExtension(e, "ingress")
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		if i == 0 && rep.CacheHit {
			t.Error("first deploy claims cache hit")
		}
		if i > 0 && !rep.CacheHit {
			t.Errorf("deploy %d missed the registry", i)
		}
	}
	if r.cp.Stats.CompileMisses != 1 || r.cp.Stats.CompileHits != 2 {
		t.Errorf("registry stats = %+v", r.cp.Stats)
	}
	for i, n := range r.nodes {
		res, err := n.ExecHook("ingress", make([]byte, xabi.CtxSize), nil)
		if err != nil || res.Verdict != 7 {
			t.Errorf("node %d: res=%+v err=%v", i, res, err)
		}
	}
}

func TestDisableCacheAblation(t *testing.T) {
	r := newRig(t, 2)
	r.cp.DisableCache = true
	e := constProg("nc", 1)
	for _, cf := range r.cfs {
		if _, err := cf.InjectExtension(e, "ingress"); err != nil {
			t.Fatal(err)
		}
	}
	if r.cp.Stats.CompileMisses != 2 {
		t.Errorf("expected 2 compile misses with cache disabled, got %+v", r.cp.Stats)
	}
}

func TestInjectEBPFWithXState(t *testing.T) {
	r := newRig(t, 1)
	cf := r.cfs[0]
	spec := ebpf.MapSpec{Name: "hits", Type: xabi.MapTypeHash, KeySize: 4, ValueSize: 8, MaxEntries: 32}

	// Program: map[proto]++ via lookup-or-insert; return pass.
	insns := []ebpf.Instruction{
		ebpf.LoadMem(ebpf.SizeW, ebpf.R6, ebpf.R1, int16(xabi.CtxOffProtocol)),
		ebpf.StoreMem(ebpf.SizeW, ebpf.R10, ebpf.R6, -4),
		ebpf.StoreImm(ebpf.SizeDW, ebpf.R10, -16, 1),
	}
	insns = append(insns, ebpf.LoadMapPtr(ebpf.R1, 0)...)
	insns = append(insns,
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
		ebpf.Alu64Imm(ebpf.AluAdd, ebpf.R2, -4),
		ebpf.Call(xabi.HelperMapLookup),
		ebpf.JmpImm(ebpf.JmpJNE, ebpf.R0, 0, 9),
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
	e := ext.FromEBPF(ebpf.NewProgram("protostats", ebpf.ProgTypeSocketFilter, insns, spec))

	if _, err := cf.InjectExtension(e, "ingress"); err != nil {
		t.Fatal(err)
	}

	// Drive traffic: protocols 6, 6, 17.
	for _, proto := range []uint32{6, 6, 17} {
		ctx := make([]byte, xabi.CtxSize)
		binary.LittleEndian.PutUint32(ctx[xabi.CtxOffProtocol:], proto)
		if _, err := r.nodes[0].ExecHook("ingress", ctx, nil); err != nil {
			t.Fatal(err)
		}
	}

	// Remote XState introspection: the control plane reads the map the
	// extension wrote, entirely over RDMA.
	xstates, err := cf.ListXStates()
	if err != nil || len(xstates) != 1 {
		t.Fatalf("xstates = %v err=%v", xstates, err)
	}
	view, err := cf.AttachXState(xstates[0])
	if err != nil {
		t.Fatal(err)
	}
	addr, found, err := view.Lookup([]byte{6, 0, 0, 0})
	if err != nil || !found {
		t.Fatalf("remote lookup: found=%v err=%v", found, err)
	}
	if got, _ := cf.Remote.ReadMem(addr, 8); got != 2 {
		t.Errorf("proto 6 count = %d, want 2", got)
	}
	// Remote update: reset the counter from the control plane, then verify
	// the data plane sees it.
	if err := view.Update([]byte{6, 0, 0, 0}, binary.LittleEndian.AppendUint64(nil, 100), xabi.UpdateAny); err != nil {
		t.Fatal(err)
	}
	localView, _ := r.nodes[0].MetaXStateEntries()
	lv, err := attachLocal(r.nodes[0], localView[0])
	if err != nil {
		t.Fatal(err)
	}
	laddr, _, _ := lv.Lookup([]byte{6, 0, 0, 0})
	if got, _ := r.nodes[0].Memory().ReadMem(laddr, 8); got != 100 {
		t.Errorf("local view after remote update = %d", got)
	}
}

func TestInjectWasmEndToEnd(t *testing.T) {
	r := newRig(t, 1)
	body := wasm.NewBody().
		GlobalGet(0).I64Const(1).Raw(wasm.OpI64Add).GlobalSet(0).
		GlobalGet(0).
		End().Bytes()
	m := wasm.SimpleFilter("wcount", 1, nil, body)
	m.Globals = []wasm.Global{{Type: wasm.I64, Init: 10}}
	if _, err := r.cfs[0].InjectExtension(ext.FromWasm(m), "ingress"); err != nil {
		t.Fatal(err)
	}
	ctx := make([]byte, xabi.CtxSize)
	res, err := r.nodes[0].ExecHook("ingress", ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != 11 {
		t.Errorf("first exec = %d, want 11 (global init 10 + 1)", res.Verdict)
	}
	res, _ = r.nodes[0].ExecHook("ingress", ctx, nil)
	if res.Verdict != 12 {
		t.Errorf("second exec = %d, want 12", res.Verdict)
	}
}

func TestInjectUDFEndToEnd(t *testing.T) {
	r := newRig(t, 1)
	p, err := udf.New("filter", "len >= 100 && len <= 200")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.cfs[0].InjectExtension(ext.FromUDF(p), "ingress"); err != nil {
		t.Fatal(err)
	}
	ctx := make([]byte, xabi.CtxSize)
	binary.LittleEndian.PutUint32(ctx[xabi.CtxOffDataLen:], 150)
	res, err := r.nodes[0].ExecHook("ingress", ctx, nil)
	if err != nil || res.Verdict != 1 {
		t.Errorf("in-range: %+v err=%v", res, err)
	}
	binary.LittleEndian.PutUint32(ctx[xabi.CtxOffDataLen:], 500)
	if _, err := r.nodes[0].ExecHook("ingress", ctx, nil); !errors.Is(err, node.ErrDropped) {
		t.Errorf("out-of-range err = %v", err)
	}
}

func TestRollback(t *testing.T) {
	r := newRig(t, 1)
	cf := r.cfs[0]
	if _, err := cf.InjectExtension(constProg("good", 1), "ingress"); err != nil {
		t.Fatal(err)
	}
	if _, err := cf.InjectExtension(constProg("buggy", 2), "ingress"); err != nil {
		t.Fatal(err)
	}
	ctx := make([]byte, xabi.CtxSize)
	res, _ := r.nodes[0].ExecHook("ingress", ctx, nil)
	if res.Verdict != 2 {
		t.Fatalf("buggy not active: %+v", res)
	}

	start := time.Now()
	prev, err := cf.Rollback("ingress")
	rollbackTime := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if prev.Name != "good" {
		t.Errorf("rolled back to %q", prev.Name)
	}
	res, _ = r.nodes[0].ExecHook("ingress", ctx, nil)
	if res.Verdict != 1 {
		t.Errorf("post-rollback verdict = %d", res.Verdict)
	}
	// Rollback is commit-only: microseconds, not milliseconds.
	if rollbackTime > 5*time.Millisecond {
		t.Errorf("rollback took %v", rollbackTime)
	}
	if _, err := cf.Rollback("ingress"); err == nil {
		t.Error("rollback past history succeeded")
	}
}

func TestTxAtomicityAgainstConcurrentReaders(t *testing.T) {
	// Property (§3.5): while the control plane repeatedly deploys a large
	// blob and flips the pointer, a data-plane executor must never observe
	// a torn blob — every execution returns one of the published constants.
	r := newRig(t, 1)
	cf := r.cfs[0]

	if _, err := cf.InjectExtension(constProg("v0", 100), "ingress"); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var readerErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ctx := make([]byte, xabi.CtxSize)
		for {
			select {
			case <-stop:
				return
			default:
			}
			res, err := r.nodes[0].ExecHook("ingress", ctx, nil)
			if err != nil {
				readerErr = err
				return
			}
			if res.Verdict < 100 || res.Verdict > 110 {
				readerErr = errors.New("observed verdict outside published set")
				return
			}
		}
	}()

	for v := int32(101); v <= 110; v++ {
		// Large-ish straight-line program so the blob write spans many
		// cachelines (tearable without rdx_tx).
		insns := []ebpf.Instruction{
			ebpf.Mov64Imm(ebpf.R0, v),
			ebpf.Mov64Imm(ebpf.R3, 0),
		}
		for i := 0; i < 300; i++ {
			insns = append(insns, ebpf.Alu64Imm(ebpf.AluAdd, ebpf.R3, 1))
		}
		insns = append(insns, ebpf.Exit())
		e := ext.FromEBPF(ebpf.NewProgram("v", ebpf.ProgTypeSocketFilter, insns))
		if _, err := cf.InjectExtension(e, "ingress"); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if readerErr != nil {
		t.Fatal(readerErr)
	}
}

func TestMutualExcl(t *testing.T) {
	r := newRig(t, 1)
	cf := r.cfs[0]
	tok, err := cf.MutualExcl("ingress", 100)
	if err != nil {
		t.Fatal(err)
	}
	// Second acquisition must fail while held.
	if _, err := cf.MutualExcl("ingress", 50); err == nil {
		t.Error("double lock acquired")
	}
	if err := cf.Unlock(tok); err != nil {
		t.Fatal(err)
	}
	// Unlock of a stale token must fail.
	if err := cf.Unlock(tok); err == nil {
		t.Error("stale unlock succeeded")
	}
	// Re-acquire after release.
	tok2, err := cf.MutualExcl("ingress", 100)
	if err != nil {
		t.Fatal(err)
	}
	cf.Unlock(tok2)
}

func TestBroadcastAtomicVisibility(t *testing.T) {
	r := newRig(t, 4)
	rep, err := Group(r.cfs).Broadcast(constProg("b9", 9), BroadcastOptions{Hook: "ingress"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Versions) != 4 {
		t.Fatalf("versions = %v", rep.Versions)
	}
	for i, n := range r.nodes {
		res, err := n.ExecHook("ingress", make([]byte, xabi.CtxSize), nil)
		if err != nil || res.Verdict != 9 {
			t.Errorf("node %d: %+v err=%v", i, res, err)
		}
	}
	if rep.Commit <= 0 || rep.Prepare <= 0 {
		t.Errorf("report = %+v", rep)
	}
}

func TestBroadcastBBUGatesLifted(t *testing.T) {
	r := newRig(t, 2)
	rep, err := Group(r.cfs).Broadcast(constProg("bbu", 3), BroadcastOptions{Hook: "ingress", BBU: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.GateHeld <= 0 {
		t.Error("BBU gate hold not recorded")
	}
	// Gates must be cleared.
	for i, n := range r.nodes {
		slot, _ := n.HookSlot("ingress")
		gate, _ := n.Arena.ReadQword(node.HookAddr(slot) + node.HookOffBuffer)
		if gate != 0 {
			t.Errorf("node %d gate still raised", i)
		}
	}
}

func TestBroadcastEmptyGroup(t *testing.T) {
	if _, err := (Group{}).Broadcast(constProg("x", 1), BroadcastOptions{Hook: "h"}); err == nil {
		t.Error("empty group broadcast succeeded")
	}
}

func TestRemoteStatsAndCCEvent(t *testing.T) {
	r := newRig(t, 1)
	cf := r.cfs[0]
	if _, err := cf.InjectExtension(constProg("s", 1), "ingress"); err != nil {
		t.Fatal(err)
	}
	ctx := make([]byte, xabi.CtxSize)
	for i := 0; i < 3; i++ {
		r.nodes[0].ExecHook("ingress", ctx, nil)
	}
	execs, drops, version, err := cf.HookStats("ingress")
	if err != nil {
		t.Fatal(err)
	}
	if execs != 3 || drops != 0 || version == 0 {
		t.Errorf("stats = %d %d %d", execs, drops, version)
	}
	hookAddr, _ := cf.HookAddr("ingress")
	if err := cf.CCEvent(hookAddr); err != nil {
		t.Errorf("cc_event: %v", err)
	}
}

func TestInjectRejectsInvalidExtension(t *testing.T) {
	r := newRig(t, 1)
	bad := ext.FromEBPF(ebpf.NewProgram("bad", ebpf.ProgTypeSocketFilter, []ebpf.Instruction{
		ebpf.Mov64Reg(ebpf.R0, ebpf.R5), // uninit read
		ebpf.Exit(),
	}))
	if _, err := r.cfs[0].InjectExtension(bad, "ingress"); err == nil {
		t.Error("invalid extension deployed")
	}
	// The failed validation must not have touched the node.
	execs, _, version, _ := r.cfs[0].HookStats("ingress")
	if execs != 0 || version != 0 {
		t.Error("node state mutated by rejected extension")
	}
}

// TestRotateMRSharedTable: RotateMR adopts the fresh rkey in the table every
// WithContext view shares, while verbs through those views run concurrently
// (the leader's lease and journal share one RemoteMemory). A holder of the
// pre-rotation table — another connection's RemoteMemory — is fenced.
func TestRotateMRSharedTable(t *testing.T) {
	ep := rdma.NewEndpoint(newRawArena(t), rdma.NoLatency())
	ep.RegisterMR("ring", 0, 4096, rdma.PermAll)
	ep.RegisterMR("witness", 4096, 64, rdma.PermAll)
	fab := rdma.NewFabric()
	l, _ := fab.Listen("standby")
	go ep.Serve(l)
	defer ep.Close()
	dial := func() *RemoteMemory {
		conn, err := fab.Dial("standby")
		if err != nil {
			t.Fatal(err)
		}
		qp := rdma.NewQP(conn)
		mrs, err := qp.QueryMRs()
		if err != nil {
			t.Fatal(err)
		}
		return NewRemoteMemory(qp, mrs)
	}
	stale, m := dial(), dial()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			view := m.WithContext(t.Context())
			for i := 0; i < 200; i++ {
				// The witness is never rotated: every read must succeed.
				if _, err := view.ReadMem(4096, 8); err != nil {
					t.Errorf("witness read during rotation: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		if err := m.RotateMR("ring"); err != nil {
			t.Fatal(err)
		}
		if err := m.WithContext(t.Context()).WriteMem(8, 8, uint64(i)); err != nil {
			t.Fatalf("write through the rotated table: %v", err)
		}
	}
	wg.Wait()
	if err := stale.WriteMem(8, 8, 99); !errors.Is(err, rdma.ErrAccess) {
		t.Fatalf("write through the pre-rotation table: %v, want rdma.ErrAccess", err)
	}
	if err := m.RotateMR("absent"); err == nil {
		t.Fatal("rotating an unknown region succeeded")
	}
}
