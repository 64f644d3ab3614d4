package verifier

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"rdx/internal/ebpf"
	"rdx/internal/ebpf/progen"
)

// This file keeps the previous worklist dataflow as a test oracle for the
// one-pass topological analysis in dataflow.go. The two must agree on the
// verdict of every program and, for accepted programs, on every Result
// fact. Error text may differ: the two visit instructions in different
// orders, so a program with several errors may be rejected at a different
// one first.

// verifyWorklist is Verify with the worklist oracle in place of dataflow.
func verifyWorklist(p *ebpf.Program, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	res := &Result{Insns: len(p.Insns)}
	if len(p.Insns) == 0 {
		return nil, fmt.Errorf("verifier: empty program")
	}
	if len(p.Insns) > cfg.MaxInsns {
		return nil, fmt.Errorf("verifier: %d instructions exceed limit %d", len(p.Insns), cfg.MaxInsns)
	}
	for i, m := range p.Maps {
		if err := m.Validate(); err != nil {
			return nil, fmt.Errorf("verifier: map %d: %w", i, err)
		}
	}
	v := &vstate{prog: p, cfg: cfg, res: res}
	if err := v.structural(); err != nil {
		return nil, err
	}
	if err := v.buildCFG(); err != nil {
		return nil, err
	}
	if err := v.worklistDataflow(); err != nil {
		return nil, err
	}
	return res, nil
}

// worklistDataflow is the former analysis: a worklist over per-instruction
// heap states, re-visiting an instruction whenever a join changes its
// in-state, under a visit budget of 4*MaxInsns.
func (v *vstate) worklistDataflow() error {
	insns := v.prog.Insns
	n := len(insns)

	states := make([]*absState, n)
	entry := &absState{}
	entry.regs[ebpf.R1] = regState{typ: tCtxPtr}
	entry.regs[ebpf.R10] = regState{typ: tStackPtr}
	states[0] = entry

	work := []int{0}
	visits := 0
	for len(work) > 0 {
		idx := work[len(work)-1]
		work = work[:len(work)-1]
		visits++
		if visits > 4*v.cfg.MaxInsns {
			return errAt(idx, insns[idx], "state-visit budget exhausted (program too complex)")
		}

		cur := *states[idx]
		var taken absState
		split, err := v.step(idx, insns[idx], &cur, &taken)
		if err != nil {
			return err
		}
		for e := 0; e < 2; e++ {
			succ := v.succs[idx][e]
			if succ < 0 {
				continue
			}
			out := &cur
			if e == 1 && split {
				out = &taken
			}
			if states[succ] == nil {
				cp := *out
				states[succ] = &cp
				work = append(work, succ)
			} else if join(states[succ], out) {
				work = append(work, succ)
			}
		}
	}
	return nil
}

// diffVerdict runs both analyses on p. It returns a non-empty description
// when they disagree on the verdict, or on any Result fact of an accepted
// program, and reports whether the one-pass verifier accepted p.
func diffVerdict(p *ebpf.Program) (mismatch string, accepted bool) {
	got, gotErr := Verify(p, Config{})
	want, wantErr := verifyWorklist(p, Config{})
	switch {
	case (gotErr == nil) != (wantErr == nil):
		return fmt.Sprintf("verdict: one-pass err=%v, worklist err=%v", gotErr, wantErr), gotErr == nil
	case gotErr != nil:
		return "", false
	}
	g := *got
	g.Elapsed = 0
	if g != *want {
		return fmt.Sprintf("result: one-pass %+v, worklist %+v", g, *want), true
	}
	return "", true
}

// TestVerifierDifferential checks the one-pass verifier against the
// worklist oracle on generated programs from 48 to 11k instructions, with
// and without maps, and on 30k soundness-fuzz mutations of them.
func TestVerifierDifferential(t *testing.T) {
	mutations := 30000
	if testing.Short() {
		mutations = 3000
	}

	// Small sizes first: the first smallBases entries are < 256 insns.
	const smallBases = 4 * 4 * 2
	var bases []*ebpf.Program
	for _, size := range []int{48, 97, 160, 208, 1300, 11000} {
		for seed := int64(0); seed < 4; seed++ {
			for _, withMap := range []bool{false, true} {
				p := progen.MustGenerate(progen.Options{
					Size: size, Seed: seed, WithMap: withMap, WithHelpers: seed%2 == 0 || withMap,
				})
				bases = append(bases, p)
				if m, ok := diffVerdict(p); m != "" || !ok {
					t.Fatalf("%s: accepted=%v %s", p.Name, ok, m)
				}
			}
		}
	}

	// Mutate small bases mostly, large ones now and then: verdicts are
	// decided near the mutated slots, and small programs keep this fast.
	rng := rand.New(rand.NewSource(20261017))
	accepted, rejected, mismatches := 0, 0, 0
	for round := 0; round < mutations; round++ {
		base := bases[rng.Intn(smallBases)]
		if round%100 == 0 {
			base = bases[smallBases+rng.Intn(len(bases)-smallBases)]
		}
		p := base.Clone()
		mutate(rng, p.Insns)
		m, ok := diffVerdict(p)
		if m != "" {
			mismatches++
			if mismatches <= 5 {
				t.Errorf("round %d (%s): %s\n%s", round, base.Name, m, disasm(p))
			}
		}
		if ok {
			accepted++
		} else {
			rejected++
		}
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("mutations produced %d accepted, %d rejected: both verdicts must be exercised", accepted, rejected)
	}
	t.Logf("differential: %d base programs, %d mutations (%d accepted, %d rejected), %d mismatches",
		len(bases), mutations, accepted, rejected, mismatches)
}

// FuzzVerifierDifferential overwrites instruction slots of a generated
// program with fuzzer-chosen bytes and requires the one-pass verifier and
// the worklist oracle to agree. patch is read in 10-byte records: a
// little-endian slot index (taken modulo the program length) followed by
// one raw 8-byte instruction.
func FuzzVerifierDifferential(f *testing.F) {
	slot := func(idx uint16, ins ebpf.Instruction) []byte {
		b := binary.LittleEndian.AppendUint16(nil, idx)
		return ins.Encode(b)
	}
	f.Add(int64(1), uint16(0), false, []byte{})
	f.Add(int64(2), uint16(100), true, slot(9, ebpf.Mov64Imm(ebpf.R3, 1)))
	f.Add(int64(3), uint16(40), true, slot(20, ebpf.Ja(-3)))
	f.Add(int64(4), uint16(300), false, append(slot(5, ebpf.Exit()), slot(7, ebpf.Call(1))...))
	f.Fuzz(func(t *testing.T, seed int64, size uint16, withMap bool, patch []byte) {
		p := progen.MustGenerate(progen.Options{
			Size: 48 + int(size%400), Seed: seed, WithMap: withMap, WithHelpers: true,
		})
		for len(patch) >= 10 {
			idx := int(binary.LittleEndian.Uint16(patch)) % len(p.Insns)
			ins, err := ebpf.DecodeInstruction(patch[2:10])
			if err != nil {
				t.Fatal(err)
			}
			p.Insns[idx] = ins
			patch = patch[10:]
		}
		if m, _ := diffVerdict(p); m != "" {
			t.Fatalf("%s\n%s", m, disasm(p))
		}
	})
}
