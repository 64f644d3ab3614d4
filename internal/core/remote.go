package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"rdx/internal/rdma"
	"rdx/internal/verbchain"
	"rdx/internal/xabi"
)

// Retryable classifies an error from a remote-memory or CodeFlow operation
// as worth re-driving: transport teardown (QP death, verb timeout, refused
// post) and lost atomic completions. RDX control-plane sequences are
// re-driveable end to end — staging writes are idempotent, a duplicated
// FETCH_ADD only burns ring space, and publish CASes re-read the slot — so
// even ErrUncertain is safe to retry at this layer. Remote status errors
// (bounds, access) are deterministic and are not retryable. A code-ring
// wrap racing a stage (ErrRingWrapped) is transient for the same reason:
// re-driving the stage allocates fresh, post-wrap ring space. ErrFenced is
// deliberately NOT retryable: a deposed controller stays deposed until a
// new lease is acquired, so re-driving the publish would only spin.
func Retryable(err error) bool {
	return rdma.IsTransportErr(err) || errors.Is(err, rdma.ErrUncertain) ||
		errors.Is(err, ErrRingWrapped)
}

// RemoteMemory adapts a verb issuer (a raw *rdma.QP or a reconnecting
// rdma.ReconnQP) plus the target's MR table to the extension ABI, so
// control-plane code (the XState map implementation in particular) operates
// on remote node memory exactly as local extensions do — every access
// becomes a one-sided verb. This is what makes rdx_deploy_xstate and the
// XState lookup/update interfaces of §3.4 work without host involvement.
type RemoteMemory struct {
	qp rdma.Verbs

	// mrs is the copy-on-write MR table, sorted by Addr and shared by every
	// WithContext view: RotateMR publishes a re-keyed copy, so a rotation
	// never races a verb resolving its rkey.
	mrs *atomic.Pointer[[]rdma.MR]

	// ctx, when non-nil, bounds every verb this view issues and carries the
	// operation's trace ID to the wire. The xabi.Memory interface has no ctx
	// parameter (extension ABI accesses are context-free by design), so the
	// binding lives on the view: WithContext returns a bound clone.
	ctx context.Context
}

// NewRemoteMemory builds a remote memory over the MR table.
func NewRemoteMemory(qp rdma.Verbs, mrs []rdma.MR) *RemoteMemory {
	sorted := append([]rdma.MR(nil), mrs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Addr < sorted[j].Addr })
	m := &RemoteMemory{qp: qp, mrs: new(atomic.Pointer[[]rdma.MR])}
	m.mrs.Store(&sorted)
	return m
}

// WithContext returns a view issuing every verb under ctx — cancellation,
// deadline, and trace ID included. The clone shares the QP and MR table;
// the receiver is unchanged, so concurrent users of other views are
// unaffected.
func (m *RemoteMemory) WithContext(ctx context.Context) *RemoteMemory {
	clone := *m
	clone.ctx = ctx
	return &clone
}

// RotateMR re-keys the named region on the target with the OpRotateMR verb
// and adopts the fresh rkey in the table this memory and its WithContext
// views share. Every other holder of the old rkey — a previous leadership
// term's own RemoteMemory included — fails with rdma.ErrAccess from here on.
func (m *RemoteMemory) RotateMR(name string) error {
	rkey, err := m.qp.RotateMRCtx(m.context(), name)
	if err != nil {
		return err
	}
	mrs := append([]rdma.MR(nil), *m.mrs.Load()...)
	for i := range mrs {
		if mrs[i].Name == name {
			mrs[i].RKey = rkey
			m.mrs.Store(&mrs)
			return nil
		}
	}
	return fmt.Errorf("core: rotated MR %q is not in the table", name)
}

func (m *RemoteMemory) context() context.Context {
	if m.ctx != nil {
		return m.ctx
	}
	return context.Background()
}

// rkeyFor locates the MR covering [addr, addr+n).
func (m *RemoteMemory) rkeyFor(addr uint64, n int) (uint32, error) {
	mrs := *m.mrs.Load()
	for i := range mrs {
		mr := &mrs[i]
		if addr >= mr.Addr && addr-mr.Addr+uint64(n) <= mr.Len {
			return mr.RKey, nil
		}
	}
	return 0, fmt.Errorf("core: no MR covers [%#x,+%d)", addr, n)
}

// ReadMem implements xabi.Memory.
func (m *RemoteMemory) ReadMem(addr uint64, size int) (uint64, error) {
	rkey, err := m.rkeyFor(addr, size)
	if err != nil {
		return 0, err
	}
	b, err := m.qp.ReadCtx(m.context(), rkey, addr, size)
	if err != nil {
		return 0, err
	}
	var v uint64
	for i := size - 1; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v, nil
}

// WriteMem implements xabi.Memory.
func (m *RemoteMemory) WriteMem(addr uint64, size int, val uint64) error {
	rkey, err := m.rkeyFor(addr, size)
	if err != nil {
		return err
	}
	b := make([]byte, size)
	for i := 0; i < size; i++ {
		b[i] = byte(val >> (8 * i))
	}
	return m.qp.WriteCtx(m.context(), rkey, addr, b)
}

// ReadBytes implements xabi.Memory.
func (m *RemoteMemory) ReadBytes(addr uint64, n int) ([]byte, error) {
	rkey, err := m.rkeyFor(addr, n)
	if err != nil {
		return nil, err
	}
	return m.qp.ReadCtx(m.context(), rkey, addr, n)
}

// ReadBytesView is ReadBytes without the heap copy: when the underlying
// issuer supports zero-copy completions (rdma.FrameReader — a raw QP or a
// ReconnQP), the returned view aliases the pooled response frame and the
// caller must Release it; otherwise it falls back to a copying read wrapped
// in a no-op-release view. Bulk consumers (journal fetch, blob reads) use
// this to keep large READ payloads off the heap.
func (m *RemoteMemory) ReadBytesView(addr uint64, n int) (rdma.FrameView, error) {
	rkey, err := m.rkeyFor(addr, n)
	if err != nil {
		return rdma.FrameView{}, err
	}
	if fr, ok := m.qp.(rdma.FrameReader); ok {
		return fr.ReadFrameCtx(m.context(), rkey, addr, n)
	}
	b, err := m.qp.ReadCtx(m.context(), rkey, addr, n)
	if err != nil {
		return rdma.FrameView{}, err
	}
	return rdma.ViewOf(b), nil
}

// ChainTrigger fires the pre-posted verb chain resident at addr (see
// internal/verbchain): one wire verb, after which the whole program runs on
// the target's NIC. The chain's outcome comes back typed — rdma.ErrAccess
// for a rotated chain region, rdma.ErrChainRevoked/ErrChainFault for a
// program stopped by fencing or a failing step.
func (m *RemoteMemory) ChainTrigger(addr uint64, arg uint64) (rdma.ChainResult, error) {
	rkey, err := m.rkeyFor(addr, 8)
	if err != nil {
		return rdma.ChainResult{}, err
	}
	return m.qp.ChainTriggerCtx(m.context(), rkey, addr, arg)
}

// Regions mirrors the MR table as verbchain compile-time regions, for
// validating chain programs before they are armed remotely.
func (m *RemoteMemory) Regions() []verbchain.Region {
	mrs := *m.mrs.Load()
	out := make([]verbchain.Region, len(mrs))
	for i, mr := range mrs {
		out[i] = verbchain.Region{
			RKey:   mr.RKey,
			Addr:   mr.Addr,
			Len:    mr.Len,
			Read:   mr.Perm&rdma.PermRead != 0,
			Write:  mr.Perm&rdma.PermWrite != 0,
			Atomic: mr.Perm&rdma.PermAtomic != 0,
		}
	}
	return out
}

// RKeyFor exposes MR resolution for chain builders: the live rkey covering
// [addr, addr+n).
func (m *RemoteMemory) RKeyFor(addr uint64, n int) (uint32, error) {
	return m.rkeyFor(addr, n)
}

// WriteBytes implements xabi.Memory.
func (m *RemoteMemory) WriteBytes(addr uint64, b []byte) error {
	rkey, err := m.rkeyFor(addr, len(b))
	if err != nil {
		return err
	}
	return m.qp.WriteCtx(m.context(), rkey, addr, b)
}

// CompareAndSwapMem implements maps.AtomicMemory via the RDMA CAS verb.
func (m *RemoteMemory) CompareAndSwapMem(addr uint64, old, new uint64) (uint64, bool, error) {
	rkey, err := m.rkeyFor(addr, 8)
	if err != nil {
		return 0, false, err
	}
	prev, err := m.qp.CompareAndSwapCtx(m.context(), rkey, addr, old, new)
	if err != nil {
		return 0, false, err
	}
	return prev, prev == old, nil
}

// FetchAddMem performs a remote FETCH_ADD (used for bump allocation).
func (m *RemoteMemory) FetchAddMem(addr uint64, delta uint64) (uint64, error) {
	rkey, err := m.rkeyFor(addr, 8)
	if err != nil {
		return 0, err
	}
	return m.qp.FetchAddCtx(m.context(), rkey, addr, delta)
}

// BatchWrite is one entry of a coalesced remote write chain. When HasImm is
// set the entry's final segment becomes a WRITE_WITH_IMM, ringing the node's
// doorbell as part of the chain instead of with a separate verb.
type BatchWrite struct {
	Addr   uint64
	Data   []byte
	Imm    uint32
	HasImm bool
}

// WriteBatch coalesces all entries into OpBatch chains on the wire: one
// latency-model charge and one completion per chain instead of one per
// write. Entries larger than the segment limit are split; rkeys are resolved
// per segment so a chain may span MRs.
func (m *RemoteMemory) WriteBatch(writes []BatchWrite) error {
	var ops []rdma.BatchOp
	for _, w := range writes {
		off := 0
		for {
			end := len(w.Data)
			if end-off > rdma.WriteSeg {
				end = off + rdma.WriteSeg
			}
			seg := w.Data[off:end]
			span := len(seg)
			if span == 0 {
				span = 1 // doorbell-only entry still needs a valid MR
			}
			rkey, err := m.rkeyFor(w.Addr+uint64(off), span)
			if err != nil {
				return err
			}
			op := rdma.BatchOp{RKey: rkey, Addr: w.Addr + uint64(off), Data: seg}
			if w.HasImm && end == len(w.Data) {
				op.Imm, op.HasImm = w.Imm, true
			}
			ops = append(ops, op)
			off = end
			if off >= len(w.Data) {
				break
			}
		}
	}
	return m.qp.WriteBatchCtx(m.context(), ops)
}

// WriteImm performs a WRITE_WITH_IMM (the cc_event doorbell).
func (m *RemoteMemory) WriteImm(addr uint64, imm uint32, data []byte) error {
	n := len(data)
	if n == 0 {
		n = 1
	}
	rkey, err := m.rkeyFor(addr, n)
	if err != nil {
		return err
	}
	return m.qp.WriteImmCtx(m.context(), rkey, addr, imm, data)
}

var _ xabi.Memory = (*RemoteMemory)(nil)
