package controlha

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"rdx/internal/core"
	"rdx/internal/mem"
	"rdx/internal/rdma"
	"rdx/internal/sim"
)

// countingVerbs counts the verbs issued through it by kind. A test can arm
// it to fail the next READ, or the next CAS either before it reaches the
// standby or after it applied (a lost completion), with a transport error.
type countingVerbs struct {
	rdma.Verbs

	mu       sync.Mutex
	counts   map[string]int
	failCAS  string // "", "unapplied" or "applied"
	failRead bool
}

func newCountingVerbs(qp rdma.Verbs) *countingVerbs {
	return &countingVerbs{Verbs: qp, counts: map[string]int{}}
}

func (c *countingVerbs) note(kind string) {
	c.mu.Lock()
	c.counts[kind]++
	c.mu.Unlock()
}

// arm makes the next CAS fail (see failCAS) and, if read, the next READ
// fail before it reaches the standby.
func (c *countingVerbs) arm(cas string, read bool) {
	c.mu.Lock()
	c.failCAS, c.failRead = cas, read
	c.mu.Unlock()
}

// take returns the counts since the last take and resets them.
func (c *countingVerbs) take() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	got := c.counts
	c.counts = map[string]int{}
	return got
}

func (c *countingVerbs) ReadCtx(ctx context.Context, rkey uint32, addr mem.Addr, n int) ([]byte, error) {
	c.note("read")
	c.mu.Lock()
	fail := c.failRead
	c.failRead = false
	c.mu.Unlock()
	if fail {
		return nil, fmt.Errorf("injected: %w", rdma.ErrUnposted)
	}
	return c.Verbs.ReadCtx(ctx, rkey, addr, n)
}

func (c *countingVerbs) WriteCtx(ctx context.Context, rkey uint32, addr mem.Addr, data []byte) error {
	c.note("write")
	return c.Verbs.WriteCtx(ctx, rkey, addr, data)
}

func (c *countingVerbs) WriteImmCtx(ctx context.Context, rkey uint32, addr mem.Addr, imm uint32, data []byte) error {
	c.note("write_imm")
	return c.Verbs.WriteImmCtx(ctx, rkey, addr, imm, data)
}

func (c *countingVerbs) WriteBatchCtx(ctx context.Context, ops []rdma.BatchOp) error {
	c.note("write_batch")
	return c.Verbs.WriteBatchCtx(ctx, ops)
}

func (c *countingVerbs) CompareAndSwapCtx(ctx context.Context, rkey uint32, addr mem.Addr, old, new uint64) (uint64, error) {
	c.note("cas")
	c.mu.Lock()
	fail := c.failCAS
	c.failCAS = ""
	c.mu.Unlock()
	switch fail {
	case "unapplied":
		return 0, fmt.Errorf("injected: %w", rdma.ErrUnposted)
	case "applied":
		if _, err := c.Verbs.CompareAndSwapCtx(ctx, rkey, addr, old, new); err != nil {
			return 0, err
		}
		return 0, fmt.Errorf("injected lost completion: %w", rdma.ErrUncertain)
	}
	return c.Verbs.CompareAndSwapCtx(ctx, rkey, addr, old, new)
}

func (c *countingVerbs) FetchAddCtx(ctx context.Context, rkey uint32, addr mem.Addr, delta uint64) (uint64, error) {
	c.note("fetch_add")
	return c.Verbs.FetchAddCtx(ctx, rkey, addr, delta)
}

func (c *countingVerbs) ChainTriggerCtx(ctx context.Context, rkey uint32, addr mem.Addr, arg uint64) (rdma.ChainResult, error) {
	c.note("chain")
	return c.Verbs.ChainTriggerCtx(ctx, rkey, addr, arg)
}

func (c *countingVerbs) RotateMRCtx(ctx context.Context, name string) (uint32, error) {
	c.note("rotate_mr")
	return c.Verbs.RotateMRCtx(ctx, name)
}

func (c *countingVerbs) QueryMRs() ([]rdma.MR, error) {
	c.note("query_mrs")
	return c.Verbs.QueryMRs()
}

// publishEntry is a journal publish record for node n at version v.
func publishEntry(n string, v uint64) Entry {
	return Entry{Type: EntryPublish, Node: n, Hook: "ingress", Name: fmt.Sprintf("v%d", v),
		Digest: fmt.Sprintf("sha256:%04d", v), Version: v, Blob: 0x100 * v}
}

// ringHwm reads the committed high-watermark locally on the standby.
func ringHwm(t *testing.T, rig *hostRig) uint64 {
	t.Helper()
	hwm, err := rig.host.arena.ReadQword(hostRingBase + ringOffHwm)
	if err != nil {
		t.Fatal(err)
	}
	return hwm
}

// replayRing replays the standby's committed ring prefix.
func replayRing(t *testing.T, rig *hostRig) *State {
	t.Helper()
	b, err := rig.host.CommittedBytes()
	if err != nil {
		t.Fatal(err)
	}
	st, err := Replay(b)
	if err != nil {
		t.Fatalf("committed ring does not replay: %v", err)
	}
	return st
}

// TestAppendVerbCounts pins the two-verb append: a non-wrapping entry is
// one WRITE plus the commit CAS, and an entry split across the ring's wrap
// boundary is one WRITE batch plus the commit CAS.
func TestAppendVerbCounts(t *testing.T) {
	rig := newHostRig(t, 256)
	qp := newCountingVerbs(rig.hostQP(t))
	ldr, err := AttachLeader(core.NewControlPlane(), qp, 1, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	qp.take()
	for i, want := range []map[string]int{
		{"write": 1, "cas": 1},       // [0, 100)
		{"write": 1, "cas": 1},       // [100, 200)
		{"write_batch": 1, "cas": 1}, // [200, 256) + [0, 44)
		{"write": 1, "cas": 1},       // [44, 144)
	} {
		if err := ldr.Rep.Append(make([]byte, 100)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if got := qp.take(); !reflect.DeepEqual(got, want) {
			t.Errorf("append %d verbs = %v, want %v", i, got, want)
		}
	}
	if hwm := ringHwm(t, rig); hwm != 400 {
		t.Fatalf("hwm = %d after 4 appends of 100 bytes", hwm)
	}
}

// TestTakeOverVerbCount pins a takeover at 8 verbs: MR discovery, the
// 4-verb lease steal, and Activate's rkey rotation, one header READ and
// the epoch stamp.
func TestTakeOverVerbCount(t *testing.T) {
	rig := newHostRig(t, 0)
	ldrA, err := AttachLeader(core.NewControlPlane(), rig.hostQP(t), 1, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if err := ldrA.Journal.Append(publishEntry("n0", 1)); err != nil {
		t.Fatal(err)
	}
	qp := newCountingVerbs(rig.hostQP(t))
	_, state, err := TakeOver(core.NewControlPlane(), rig.host, qp, 2, time.Minute, nil)
	if err != nil {
		t.Fatal(err)
	}
	if state.LastSeq != 1 {
		t.Fatalf("replayed through seq %d, want 1", state.LastSeq)
	}
	want := map[string]int{"query_mrs": 1, "read": 2, "cas": 1, "fetch_add": 1, "write": 2, "rotate_mr": 1}
	if got := qp.take(); !reflect.DeepEqual(got, want) {
		t.Fatalf("takeover verbs = %v, want these 8: %v", got, want)
	}
}

// TestAttachAfterExpiryFencesOldTerm: a candidate that acquires an expired
// lease through AttachLeader fences the old term's ring appends (the job
// the per-append epoch CAS used to do): the old append fails
// ErrFencedAppend and the committed watermark does not move.
func TestAttachAfterExpiryFencesOldTerm(t *testing.T) {
	rig := newHostRig(t, 0)
	clk := sim.NewVirtualClock(time.Now())
	ldrA, err := AttachLeaderClock(core.NewControlPlane(), rig.hostQP(t), 1, time.Millisecond, clk)
	if err != nil {
		t.Fatal(err)
	}
	if err := ldrA.Journal.Append(publishEntry("n0", 1)); err != nil {
		t.Fatal(err)
	}
	clk.Advance(5 * time.Millisecond)
	ldrB, err := AttachLeaderClock(core.NewControlPlane(), rig.hostQP(t), 2, time.Minute, clk)
	if err != nil {
		t.Fatalf("attach after expiry: %v", err)
	}

	hwm := ringHwm(t, rig)
	if err := ldrA.Journal.Append(publishEntry("n0", 2)); !errors.Is(err, ErrFencedAppend) {
		t.Fatalf("old term's append: %v, want ErrFencedAppend", err)
	}
	if got := ringHwm(t, rig); got != hwm {
		t.Fatalf("fenced append moved hwm %d -> %d", hwm, got)
	}
	// The new term owns the ring. Its journal starts a fresh sequence (no
	// takeover replay), so check the committed bytes cover both terms.
	e := publishEntry("n1", 1).withSeq(2, ldrB.Lease.Epoch())
	if err := ldrB.Rep.Append(e.Encode()); err != nil {
		t.Fatalf("new term's append: %v", err)
	}
	if st := replayRing(t, rig); st.LastSeq != 2 {
		t.Fatalf("ring replays through seq %d, want 2", st.LastSeq)
	}
}

// withSeq stamps a sequence number and fencing epoch onto e.
func (e Entry) withSeq(seq, fence uint64) Entry {
	e.Seq, e.Fence = seq, fence
	return e
}

// TestLeaseHeldCandidateLeavesLeaderAppending: a candidate that loses the
// election (ErrLeaseHeld) must never reach Activate, so the live leader's
// ring rkey and epoch word are untouched and its next append commits.
func TestLeaseHeldCandidateLeavesLeaderAppending(t *testing.T) {
	rig := newHostRig(t, 0)
	ldrA, err := AttachLeader(core.NewControlPlane(), rig.hostQP(t), 1, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if err := ldrA.Journal.Append(publishEntry("n0", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := AttachLeader(core.NewControlPlane(), rig.hostQP(t), 2, time.Minute); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("candidate attach: %v, want ErrLeaseHeld", err)
	}
	if err := ldrA.Journal.Append(publishEntry("n0", 2)); err != nil {
		t.Fatalf("leader append after a lost election: %v", err)
	}
	if st := replayRing(t, rig); st.LastSeq != 2 {
		t.Fatalf("ring replays through seq %d, want 2", st.LastSeq)
	}
	if epoch, _ := rig.host.arena.ReadQword(hostRingBase + ringOffEpoch); epoch != ldrA.Lease.Epoch() {
		t.Fatalf("ring epoch %d, want the live leader's %d", epoch, ldrA.Lease.Epoch())
	}
}

// TestStaleWriteAboveHwmOverwritten: a deposed leader's WRITE that landed
// before the rotation sits above hwm. The successor's replay never trusts
// it, the successor's first append overwrites it, and the ring replays.
func TestStaleWriteAboveHwmOverwritten(t *testing.T) {
	rig := newHostRig(t, 0)
	ldrA, err := AttachLeader(core.NewControlPlane(), rig.hostQP(t), 1, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	for v := uint64(1); v <= 2; v++ {
		if err := ldrA.Journal.Append(publishEntry("n0", v)); err != nil {
			t.Fatal(err)
		}
	}
	// A's third entry: its WRITE lands, its commit CAS never does.
	hwm := ringHwm(t, rig)
	e := publishEntry("n0", 3).withSeq(3, ldrA.Lease.Epoch())
	stale := e.Encode()
	if err := ldrA.Rep.mem.WriteBytes(ldrA.Rep.base+RingHdrSize+hwm, stale); err != nil {
		t.Fatal(err)
	}

	ldrB, state, err := TakeOver(core.NewControlPlane(), rig.host, rig.hostQP(t), 2, time.Minute, nil)
	if err != nil {
		t.Fatal(err)
	}
	if state.LastSeq != 2 {
		t.Fatalf("successor replayed through seq %d, want 2 (stale bytes above hwm trusted)", state.LastSeq)
	}
	// The stale commit now dies on the rotated rkey.
	if _, _, err := ldrA.Rep.mem.CompareAndSwapMem(ldrA.Rep.base+ringOffHwm, hwm, hwm+uint64(len(stale))); !errors.Is(err, rdma.ErrAccess) {
		t.Fatalf("stale commit CAS: %v, want rdma.ErrAccess", err)
	}
	if err := ldrB.Journal.Append(publishEntry("n1", 7)); err != nil {
		t.Fatal(err)
	}
	st := replayRing(t, rig)
	if st.LastSeq != 3 || st.LastFence != ldrB.Lease.Epoch() {
		t.Fatalf("ring replays through seq %d fence %d, want seq 3 fence %d", st.LastSeq, st.LastFence, ldrB.Lease.Epoch())
	}
}

// TestAppendResyncsAfterTransportError: an append whose commit CAS failed
// without a verdict leaves the local tail untrusted. The next append
// re-reads hwm and sends whatever never committed ahead of its own entry,
// in one WRITE and one CAS, so the ring's sequence stays contiguous —
// also when that re-read fails too and a second entry queues up.
func TestAppendResyncsAfterTransportError(t *testing.T) {
	for _, tc := range []struct {
		name     string
		failCAS  string
		failRead bool
	}{
		{"unapplied", "unapplied", false},
		{"applied", "applied", false},
		{"resync-read-fails", "unapplied", true},
		{"applied-then-resync-read-fails", "applied", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rig := newHostRig(t, 0)
			qp := newCountingVerbs(rig.hostQP(t))
			ldr, err := AttachLeader(core.NewControlPlane(), qp, 1, time.Minute)
			if err != nil {
				t.Fatal(err)
			}
			qp.arm(tc.failCAS, false)
			err = ldr.Journal.Append(publishEntry("n0", 1))
			if err == nil || errors.Is(err, ErrFencedAppend) || errors.Is(err, ErrSplitBrain) {
				t.Fatalf("append with a failed commit: %v, want a transport error", err)
			}
			seq := uint64(2)
			if tc.failRead {
				qp.arm("", true)
				if err := ldr.Journal.Append(publishEntry("n0", seq)); err == nil {
					t.Fatal("append with a failed resync read succeeded")
				}
				seq++
			}
			qp.take()
			if err := ldr.Journal.Append(publishEntry("n0", seq)); err != nil {
				t.Fatalf("append after the failure: %v", err)
			}
			want := map[string]int{"read": 1, "write": 1, "cas": 1}
			if got := qp.take(); !reflect.DeepEqual(got, want) {
				t.Errorf("verbs = %v, want %v", got, want)
			}
			if st := replayRing(t, rig); st.LastSeq != seq {
				t.Fatalf("ring replays through seq %d, want %d", st.LastSeq, seq)
			}
			if got, want := ldr.Rep.Replicated(), uint64(len(ldr.Journal.Bytes())); got != want {
				t.Fatalf("replicated %d bytes, journal holds %d", got, want)
			}
		})
	}
}

// TestSplitBrainIsSticky: a commit CAS lost to a foreign writer fails
// ErrSplitBrain, and the replicator then refuses every later append
// without issuing a verb.
func TestSplitBrainIsSticky(t *testing.T) {
	rig := newHostRig(t, 0)
	qp := newCountingVerbs(rig.hostQP(t))
	ldr, err := AttachLeader(core.NewControlPlane(), qp, 1, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if err := rig.host.arena.WriteQword(hostRingBase+ringOffHwm, 64); err != nil {
		t.Fatal(err)
	}
	if err := ldr.Rep.Append(make([]byte, 32)); !errors.Is(err, ErrSplitBrain) {
		t.Fatalf("append against a moved hwm: %v, want ErrSplitBrain", err)
	}
	qp.take()
	if err := ldr.Rep.Append(make([]byte, 32)); !errors.Is(err, ErrSplitBrain) {
		t.Fatalf("append after split brain: %v, want ErrSplitBrain", err)
	}
	if got := qp.take(); len(got) != 0 {
		t.Fatalf("append after split brain issued verbs %v", got)
	}
}
