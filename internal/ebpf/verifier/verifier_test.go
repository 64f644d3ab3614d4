package verifier

import (
	"strings"
	"testing"

	"rdx/internal/ebpf"
	"rdx/internal/xabi"
)

func prog(insns []ebpf.Instruction, maps ...ebpf.MapSpec) *ebpf.Program {
	return ebpf.NewProgram("t", ebpf.ProgTypeSocketFilter, insns, maps...)
}

func mustVerify(t *testing.T, p *ebpf.Program) *Result {
	t.Helper()
	res, err := Verify(p, Config{})
	if err != nil {
		t.Fatalf("expected valid program, got: %v", err)
	}
	return res
}

func mustReject(t *testing.T, p *ebpf.Program, wantSubstr string) {
	t.Helper()
	_, err := Verify(p, Config{})
	if err == nil {
		t.Fatalf("expected rejection containing %q, program accepted", wantSubstr)
	}
	if !strings.Contains(err.Error(), wantSubstr) {
		t.Fatalf("error %q does not contain %q", err, wantSubstr)
	}
}

var hashMapSpec = ebpf.MapSpec{Name: "m", Type: xabi.MapTypeHash, KeySize: 4, ValueSize: 16, MaxEntries: 64}

func TestAcceptMinimal(t *testing.T) {
	res := mustVerify(t, prog([]ebpf.Instruction{
		ebpf.Mov64Imm(ebpf.R0, 0),
		ebpf.Exit(),
	}))
	if res.Insns != 2 || res.StackDepth != 0 {
		t.Errorf("result = %+v", res)
	}
}

func TestRejectEmpty(t *testing.T) {
	if _, err := Verify(prog(nil), Config{}); err == nil {
		t.Error("empty program accepted")
	}
}

func TestRejectTooLong(t *testing.T) {
	insns := make([]ebpf.Instruction, 0, 20)
	for i := 0; i < 10; i++ {
		insns = append(insns, ebpf.Mov64Imm(ebpf.R0, 0))
	}
	insns = append(insns, ebpf.Exit())
	if _, err := Verify(prog(insns), Config{MaxInsns: 5}); err == nil {
		t.Error("over-limit program accepted")
	}
}

func TestRejectUninitRead(t *testing.T) {
	mustReject(t, prog([]ebpf.Instruction{
		ebpf.Mov64Reg(ebpf.R0, ebpf.R3), // R3 never set
		ebpf.Exit(),
	}), "before initialization")
}

func TestRejectR0UnsetAtExit(t *testing.T) {
	mustReject(t, prog([]ebpf.Instruction{
		ebpf.Mov64Imm(ebpf.R1, 5),
		ebpf.Exit(),
	}), "R0 not set")
}

func TestRejectFramePointerWrite(t *testing.T) {
	mustReject(t, prog([]ebpf.Instruction{
		ebpf.Mov64Imm(ebpf.R10, 0),
		ebpf.Mov64Imm(ebpf.R0, 0),
		ebpf.Exit(),
	}), "read-only")
}

func TestRejectLoop(t *testing.T) {
	mustReject(t, prog([]ebpf.Instruction{
		ebpf.Mov64Imm(ebpf.R0, 10),
		ebpf.Alu64Imm(ebpf.AluSub, ebpf.R0, 1),
		ebpf.JmpImm(ebpf.JmpJNE, ebpf.R0, 0, -2), // back edge
		ebpf.Exit(),
	}), "back edge")
}

func TestRejectUnreachable(t *testing.T) {
	mustReject(t, prog([]ebpf.Instruction{
		ebpf.Mov64Imm(ebpf.R0, 0),
		ebpf.Exit(),
		ebpf.Mov64Imm(ebpf.R0, 1), // dead
		ebpf.Exit(),
	}), "unreachable")
}

func TestRejectFallOffEnd(t *testing.T) {
	mustReject(t, prog([]ebpf.Instruction{
		ebpf.Mov64Imm(ebpf.R0, 0),
	}), "falls off")
}

func TestRejectJumpOutOfRange(t *testing.T) {
	mustReject(t, prog([]ebpf.Instruction{
		ebpf.Mov64Imm(ebpf.R0, 0),
		ebpf.JmpImm(ebpf.JmpJEQ, ebpf.R0, 0, 100),
		ebpf.Exit(),
	}), "target")
}

func TestRejectJumpIntoLDDWPair(t *testing.T) {
	insns := []ebpf.Instruction{
		ebpf.Mov64Imm(ebpf.R0, 0),
		ebpf.JmpImm(ebpf.JmpJEQ, ebpf.R0, 0, 1), // targets slot 3: the LDDW continuation
	}
	insns = append(insns, ebpf.LoadImm64(ebpf.R1, 1)...) // slots 2,3
	insns = append(insns, ebpf.Exit())
	mustReject(t, prog(insns), "invalid")
}

func TestRejectMalformedLDDW(t *testing.T) {
	mustReject(t, prog([]ebpf.Instruction{
		{Op: ebpf.OpLDDW, Dst: 1, Imm: 5},
		ebpf.Mov64Imm(ebpf.R0, 0), // second slot must be all-zero fields
		ebpf.Exit(),
	}), "second slot")

	mustReject(t, prog([]ebpf.Instruction{
		ebpf.Mov64Imm(ebpf.R0, 0),
		{Op: ebpf.OpLDDW, Dst: 1, Imm: 5}, // missing second slot
	}), "LDDW")
}

func TestRejectDivByZeroImm(t *testing.T) {
	mustReject(t, prog([]ebpf.Instruction{
		ebpf.Mov64Imm(ebpf.R0, 8),
		ebpf.Alu64Imm(ebpf.AluDiv, ebpf.R0, 0),
		ebpf.Exit(),
	}), "division by zero")
}

func TestRejectHugeShift(t *testing.T) {
	mustReject(t, prog([]ebpf.Instruction{
		ebpf.Mov64Imm(ebpf.R0, 1),
		ebpf.Alu64Imm(ebpf.AluLsh, ebpf.R0, 64),
		ebpf.Exit(),
	}), "shift")
	mustReject(t, prog([]ebpf.Instruction{
		ebpf.Mov64Imm(ebpf.R0, 1),
		ebpf.Alu32Imm(ebpf.AluLsh, ebpf.R0, 32),
		ebpf.Exit(),
	}), "shift")
}

func TestStackAccess(t *testing.T) {
	res := mustVerify(t, prog([]ebpf.Instruction{
		ebpf.StoreImm(ebpf.SizeDW, ebpf.R10, -8, 42),
		ebpf.LoadMem(ebpf.SizeDW, ebpf.R0, ebpf.R10, -8),
		ebpf.Exit(),
	}))
	if res.StackDepth != 8 {
		t.Errorf("stack depth = %d, want 8", res.StackDepth)
	}
}

func TestRejectStackOutOfBounds(t *testing.T) {
	mustReject(t, prog([]ebpf.Instruction{
		ebpf.StoreImm(ebpf.SizeDW, ebpf.R10, -520, 1),
		ebpf.Mov64Imm(ebpf.R0, 0),
		ebpf.Exit(),
	}), "stack access")
	mustReject(t, prog([]ebpf.Instruction{
		ebpf.StoreImm(ebpf.SizeDW, ebpf.R10, 0, 1), // above frame
		ebpf.Mov64Imm(ebpf.R0, 0),
		ebpf.Exit(),
	}), "stack access")
}

func TestRejectMisalignedStack(t *testing.T) {
	mustReject(t, prog([]ebpf.Instruction{
		ebpf.StoreImm(ebpf.SizeDW, ebpf.R10, -12, 1),
		ebpf.Mov64Imm(ebpf.R0, 0),
		ebpf.Exit(),
	}), "misaligned")
}

func TestRejectUninitStackRead(t *testing.T) {
	mustReject(t, prog([]ebpf.Instruction{
		ebpf.LoadMem(ebpf.SizeDW, ebpf.R0, ebpf.R10, -8),
		ebpf.Exit(),
	}), "uninitialized stack")
}

func TestCtxAccess(t *testing.T) {
	res := mustVerify(t, prog([]ebpf.Instruction{
		ebpf.LoadMem(ebpf.SizeW, ebpf.R0, ebpf.R1, int16(xabi.CtxOffDataLen)),
		ebpf.StoreImm(ebpf.SizeW, ebpf.R1, int16(xabi.CtxOffVerdict), 1),
		ebpf.Exit(),
	}))
	if !res.WritesCtx {
		t.Error("WritesCtx not recorded")
	}
	if res.MaxCtxOffset < 12 {
		t.Errorf("MaxCtxOffset = %d", res.MaxCtxOffset)
	}
}

func TestRejectCtxWriteOutsideVerdict(t *testing.T) {
	mustReject(t, prog([]ebpf.Instruction{
		ebpf.StoreImm(ebpf.SizeW, ebpf.R1, 0, 7),
		ebpf.Mov64Imm(ebpf.R0, 0),
		ebpf.Exit(),
	}), "verdict")
}

func TestRejectCtxOutOfBounds(t *testing.T) {
	mustReject(t, prog([]ebpf.Instruction{
		ebpf.LoadMem(ebpf.SizeDW, ebpf.R0, ebpf.R1, int16(xabi.CtxSize)),
		ebpf.Exit(),
	}), "ctx access")
}

// mapLookupProg builds the canonical null-checked map lookup sequence.
func mapLookupProg(tail ...ebpf.Instruction) []ebpf.Instruction {
	insns := []ebpf.Instruction{
		ebpf.StoreImm(ebpf.SizeW, ebpf.R10, -4, 0), // key = 0 on stack
	}
	insns = append(insns, ebpf.LoadMapPtr(ebpf.R1, 0)...)
	insns = append(insns,
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
		ebpf.Alu64Imm(ebpf.AluAdd, ebpf.R2, -4),
		ebpf.Call(xabi.HelperMapLookup),
		ebpf.JmpImm(ebpf.JmpJEQ, ebpf.R0, 0, int16(len(tail)+1)), // null → skip deref + extra
	)
	insns = append(insns, ebpf.LoadMem(ebpf.SizeDW, ebpf.R0, ebpf.R0, 0)) // deref value
	insns = append(insns, tail...)
	insns = append(insns, ebpf.Exit())
	return insns
}

func TestMapLookupNullChecked(t *testing.T) {
	res := mustVerify(t, prog(mapLookupProg(), hashMapSpec))
	if !res.UsesMapLookup {
		t.Error("UsesMapLookup not recorded")
	}
}

func TestRejectMapLookupWithoutNullCheck(t *testing.T) {
	insns := []ebpf.Instruction{
		ebpf.StoreImm(ebpf.SizeW, ebpf.R10, -4, 0),
	}
	insns = append(insns, ebpf.LoadMapPtr(ebpf.R1, 0)...)
	insns = append(insns,
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
		ebpf.Alu64Imm(ebpf.AluAdd, ebpf.R2, -4),
		ebpf.Call(xabi.HelperMapLookup),
		ebpf.LoadMem(ebpf.SizeDW, ebpf.R0, ebpf.R0, 0), // no null check!
		ebpf.Exit(),
	)
	mustReject(t, prog(insns, hashMapSpec), "null")
}

func TestRejectMapValueOutOfBounds(t *testing.T) {
	insns := []ebpf.Instruction{
		ebpf.StoreImm(ebpf.SizeW, ebpf.R10, -4, 0),
	}
	insns = append(insns, ebpf.LoadMapPtr(ebpf.R1, 0)...)
	insns = append(insns,
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
		ebpf.Alu64Imm(ebpf.AluAdd, ebpf.R2, -4),
		ebpf.Call(xabi.HelperMapLookup),
		ebpf.JmpImm(ebpf.JmpJEQ, ebpf.R0, 0, 1),
		ebpf.LoadMem(ebpf.SizeDW, ebpf.R0, ebpf.R0, 16), // value is 16 bytes: [16,24) overflows
		ebpf.Exit(),
	)
	mustReject(t, prog(insns, hashMapSpec), "map value access")
}

func TestRejectBadMapIndex(t *testing.T) {
	insns := []ebpf.Instruction{ebpf.Mov64Imm(ebpf.R0, 0)}
	insns = append(insns, ebpf.LoadMapPtr(ebpf.R1, 3)...) // only 1 map
	insns = append(insns, ebpf.Exit())
	mustReject(t, prog(insns, hashMapSpec), "map index")
}

func TestRejectUnknownHelper(t *testing.T) {
	mustReject(t, prog([]ebpf.Instruction{
		ebpf.Call(9999),
		ebpf.Exit(),
	}), "unknown helper")
}

func TestRejectHelperBadArgTypes(t *testing.T) {
	// map_lookup with a scalar instead of map handle in R1.
	insns := []ebpf.Instruction{
		ebpf.StoreImm(ebpf.SizeW, ebpf.R10, -4, 0),
		ebpf.Mov64Imm(ebpf.R1, 1234),
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
		ebpf.Alu64Imm(ebpf.AluAdd, ebpf.R2, -4),
		ebpf.Call(xabi.HelperMapLookup),
		ebpf.Exit(),
	}
	mustReject(t, prog(insns, hashMapSpec), "map reference")
}

func TestRejectHelperUninitKeyBuffer(t *testing.T) {
	insns := []ebpf.Instruction{}
	insns = append(insns, ebpf.LoadMapPtr(ebpf.R1, 0)...)
	insns = append(insns,
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
		ebpf.Alu64Imm(ebpf.AluAdd, ebpf.R2, -4), // stack never written
		ebpf.Call(xabi.HelperMapLookup),
		ebpf.Exit(),
	)
	mustReject(t, prog(insns, hashMapSpec), "not fully initialized")
}

func TestCallerSavedClobbered(t *testing.T) {
	// Using R1 after a call must fail: helpers clobber R1-R5.
	insns := []ebpf.Instruction{
		ebpf.Call(xabi.HelperKtimeGetNS),
		ebpf.Mov64Reg(ebpf.R0, ebpf.R1), // R1 clobbered by call
		ebpf.Exit(),
	}
	mustReject(t, prog(insns), "before initialization")
}

func TestCalleeSavedPreserved(t *testing.T) {
	mustVerify(t, prog([]ebpf.Instruction{
		ebpf.Mov64Imm(ebpf.R6, 55),
		ebpf.Call(xabi.HelperKtimeGetNS),
		ebpf.Mov64Reg(ebpf.R0, ebpf.R6), // R6 survives the call
		ebpf.Exit(),
	}))
}

func TestRejectPointerArithmetic(t *testing.T) {
	mustReject(t, prog([]ebpf.Instruction{
		ebpf.Alu64Imm(ebpf.AluMul, ebpf.R1, 2), // MUL on ctx pointer
		ebpf.Mov64Imm(ebpf.R0, 0),
		ebpf.Exit(),
	}), "pointer")
}

func TestRejectStoringPointer(t *testing.T) {
	mustReject(t, prog([]ebpf.Instruction{
		ebpf.StoreMem(ebpf.SizeDW, ebpf.R10, ebpf.R1, -8), // spill ctx ptr
		ebpf.Mov64Imm(ebpf.R0, 0),
		ebpf.Exit(),
	}), "only scalars")
}

func TestBranchJoin(t *testing.T) {
	// Both branches set R0; the join point must accept it.
	mustVerify(t, prog([]ebpf.Instruction{
		ebpf.LoadMem(ebpf.SizeW, ebpf.R2, ebpf.R1, 0),
		ebpf.JmpImm(ebpf.JmpJGT, ebpf.R2, 10, 2),
		ebpf.Mov64Imm(ebpf.R0, 1),
		ebpf.Ja(1),
		ebpf.Mov64Imm(ebpf.R0, 2),
		ebpf.Exit(),
	}))
}

func TestBranchJoinUninitOnOnePath(t *testing.T) {
	// R3 set on only one path, then used: must reject.
	mustReject(t, prog([]ebpf.Instruction{
		ebpf.LoadMem(ebpf.SizeW, ebpf.R2, ebpf.R1, 0),
		ebpf.Mov64Imm(ebpf.R0, 0),
		ebpf.JmpImm(ebpf.JmpJGT, ebpf.R2, 10, 1),
		ebpf.Mov64Imm(ebpf.R3, 5), // only fallthrough path
		ebpf.Mov64Reg(ebpf.R0, ebpf.R3),
		ebpf.Exit(),
	}), "before initialization")
}

// backwardExitProg builds an acyclic program whose exit block sits at a
// lower index than both jumps into it, so index order visits that block
// before its predecessors:
//
//	0: <entry>            4: call prandom       7: ja -6 (to 2)
//	1: ja +2 (to 4)       5: jeq r0, 0, +2      8: <onePath>
//	2: r0 = r3            6: r3 = 9             9: ja -8 (to 2)
//	3: exit
//
// The call clobbers r1-r5, so r3 is defined at insn 2 exactly when both
// paths, 6-7 and 8-9, define it.
func backwardExitProg(entry, onePath ebpf.Instruction) *ebpf.Program {
	return prog([]ebpf.Instruction{
		entry,
		ebpf.Ja(2),
		ebpf.Mov64Reg(ebpf.R0, ebpf.R3),
		ebpf.Exit(),
		ebpf.Call(xabi.HelperGetPrandomU32),
		ebpf.JmpImm(ebpf.JmpJEQ, ebpf.R0, 0, 2),
		ebpf.Mov64Imm(ebpf.R3, 9),
		ebpf.Ja(-6),
		onePath,
		ebpf.Ja(-8),
	})
}

func TestBackwardJumpIntoExitBlock(t *testing.T) {
	// r3 is uninitialized on the index-order fall-through into insn 2 but
	// set on both real paths: only a topological walk accepts this.
	mustVerify(t, backwardExitProg(ebpf.Mov64Imm(ebpf.R4, 1), ebpf.Mov64Imm(ebpf.R3, 5)))
}

func TestBackwardJumpIntoExitBlockUninitOnOnePath(t *testing.T) {
	// r3 is set on the index-order fall-through into insn 2 but not on the
	// 8-9 path: only a walk that joins both real paths first rejects it.
	mustReject(t, backwardExitProg(ebpf.Mov64Imm(ebpf.R3, 1), ebpf.Mov64Imm(ebpf.R4, 5)),
		"r3 used before initialization")
}

func TestRejectUnknownOpcode(t *testing.T) {
	mustReject(t, prog([]ebpf.Instruction{
		{Op: 0x8f}, // ALU64 class, bogus op 0x80|0x0f... NEG with SrcX
		ebpf.Mov64Imm(ebpf.R0, 0),
		ebpf.Exit(),
	}), "NEG")
	mustReject(t, prog([]ebpf.Instruction{
		{Op: 0xe0}, // unknown ALU op in class 0
		ebpf.Mov64Imm(ebpf.R0, 0),
		ebpf.Exit(),
	}), "")
}

func TestVerifyResultElapsed(t *testing.T) {
	res := mustVerify(t, prog([]ebpf.Instruction{ebpf.Mov64Imm(ebpf.R0, 0), ebpf.Exit()}))
	if res.Elapsed <= 0 {
		t.Error("Elapsed not measured")
	}
}

func TestMapUpdateSignature(t *testing.T) {
	insns := []ebpf.Instruction{
		ebpf.StoreImm(ebpf.SizeW, ebpf.R10, -4, 1),   // key
		ebpf.StoreImm(ebpf.SizeDW, ebpf.R10, -24, 7), // value (16 bytes: two stores)
		ebpf.StoreImm(ebpf.SizeDW, ebpf.R10, -16, 8),
	}
	insns = append(insns, ebpf.LoadMapPtr(ebpf.R1, 0)...)
	insns = append(insns,
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
		ebpf.Alu64Imm(ebpf.AluAdd, ebpf.R2, -4),
		ebpf.Mov64Reg(ebpf.R3, ebpf.R10),
		ebpf.Alu64Imm(ebpf.AluAdd, ebpf.R3, -24),
		ebpf.Mov64Imm(ebpf.R4, 0),
		ebpf.Call(xabi.HelperMapUpdate),
		ebpf.Exit(),
	)
	res := mustVerify(t, prog(insns, hashMapSpec))
	if !res.UsesMapUpdate {
		t.Error("UsesMapUpdate not recorded")
	}
	if res.StackDepth != 24 {
		t.Errorf("stack depth = %d, want 24", res.StackDepth)
	}
}
