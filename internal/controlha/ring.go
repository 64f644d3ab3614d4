package controlha

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"rdx/internal/core"
	"rdx/internal/rdma"
	"rdx/internal/telemetry"
)

// Replication ring MR layout (standby-owned). Each leadership term is the
// ring's only writer: Activate rotates the ring MR's rkey, so every verb
// an earlier term still holds fails with an access error, and then seeds
// the term's local tail from the committed high-watermark. An append is a
// WRITE of the entry at the local tail and a CAS of the high-watermark
// from tail to tail+len. The standby trusts only bytes below the
// watermark, so a leader that dies mid-WRITE, or a stale WRITE that landed
// before the rotation, never exposes a torn journal suffix: the bytes sit
// above hwm until the next append overwrites them.
//
//	+0  magic
//	+8  (reserved)
//	+16 hwm         committed high-watermark (CAS), monotonic
//	+24 ringEpoch   fencing epoch of the term that owns the ring
//	+32 dataCap     ring data capacity in bytes
//	+40 data[dataCap]
const (
	RingMRName     = "ha-journal"
	RingMagic      = 0x52444a52 // "RJDR"
	ringOffMagic   = 0
	ringOffHwm     = 16
	ringOffEpoch   = 24
	ringOffCap     = 32
	RingHdrSize    = 40
	DefaultRingCap = 1 << 20
)

// Replication errors.
var (
	// ErrFencedAppend reports an append attempted after a successor
	// rotated the ring's rkey: a deposed leader must not grow the
	// standby's journal.
	ErrFencedAppend = errors.New("controlha: journal append fenced (ring epoch superseded)")
	// ErrSplitBrain reports a lost high-watermark CAS: some other writer
	// committed bytes at this term's tail, which only happens when two
	// controllers both believe they own the ring.
	ErrSplitBrain = errors.New("controlha: replication high-watermark conflict (split brain)")
	// ErrRingOverrun reports committed bytes further ahead than the ring
	// can hold — the standby lagged more than one capacity behind and the
	// oldest unread bytes were overwritten.
	ErrRingOverrun = errors.New("controlha: replication ring overrun")
)

// ringHeader is the decoded 40-byte ring header.
type ringHeader struct {
	magic, hwm, epoch, cap uint64
}

// readRingHeader fetches the whole ring header in one READ.
func readRingHeader(mem *core.RemoteMemory, base uint64) (ringHeader, error) {
	b, err := mem.ReadBytes(base, RingHdrSize)
	if err != nil {
		return ringHeader{}, fmt.Errorf("controlha: ring read: %w", err)
	}
	le := binary.LittleEndian
	return ringHeader{
		magic: le.Uint64(b[ringOffMagic:]),
		hwm:   le.Uint64(b[ringOffHwm:]),
		epoch: le.Uint64(b[ringOffEpoch:]),
		cap:   le.Uint64(b[ringOffCap:]),
	}, nil
}

// Replicator is the leader-side half of journal replication: it appends
// encoded entries into a standby's ring MR using only one-sided verbs.
// Appends are serialized, so the local tail and the high-watermark advance
// in lockstep; a hwm CAS that still fails means a second writer — split
// brain — and is surfaced as a typed error rather than retried.
type Replicator struct {
	mem   *core.RemoteMemory
	base  uint64
	cap   uint64
	epoch uint64
	reg   *telemetry.Registry

	mu   sync.Mutex
	tail uint64 // ring offset of the next append (this term's hwm)
	// pending holds the bytes a failed append left uncommitted: the first
	// sent of them went out with a commit CAS of unknown outcome, the rest
	// were never sent.
	pending []byte
	sent    uint64
	split   error // sticky ErrSplitBrain once the commit CAS was lost

	replicated atomic.Uint64
}

// NewReplicator binds a replication stream onto the ring MR at base. epoch
// is the leader's fencing epoch; Activate stamps it into the ring before
// the first append.
func NewReplicator(mem *core.RemoteMemory, base, dataCap uint64, epoch uint64, reg *telemetry.Registry) *Replicator {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	return &Replicator{mem: mem, base: base, cap: dataCap, epoch: epoch, reg: reg}
}

// Activate makes this term the ring's only writer. It rotates the ring
// MR's rkey (the remote OpRotateMR verb) and adopts the fresh one in mem's
// MR table, which the term's Lease shares, so every verb of an earlier
// term — including a WRITE or commit CAS already in flight — fails with
// an access error from here on. Then it reads the
// header in one READ, seeds the local tail from the committed
// high-watermark, and stamps its fencing epoch into the ring's epoch word.
// Callers must hold the lease first: rotating on behalf of a candidate that
// lost the election would fence the live leader.
func (r *Replicator) Activate() error {
	if rotateRingOnActivate {
		if err := r.mem.RotateMR(RingMRName); err != nil {
			return fmt.Errorf("controlha: ring fence: %w", err)
		}
	}
	hdr, err := readRingHeader(r.mem, r.base)
	if err != nil {
		return err
	}
	if uint32(hdr.magic) != RingMagic {
		return fmt.Errorf("controlha: target MR is not a journal ring (magic %#x)", hdr.magic)
	}
	if r.cap == 0 {
		r.cap = hdr.cap
	} else if r.cap != hdr.cap {
		return fmt.Errorf("controlha: ring capacity mismatch: standby %d, leader %d", hdr.cap, r.cap)
	}
	if err := r.mem.WriteMem(r.base+ringOffEpoch, 8, r.epoch); err != nil {
		return fmt.Errorf("controlha: ring epoch write: %w", err)
	}
	r.mu.Lock()
	r.tail = hdr.hwm
	r.mu.Unlock()
	return nil
}

// classifyAppendErr maps transport errors onto the replication taxonomy.
// An access error means a successor rotated the ring rkey out from under
// us — the RDMA-native fence its Activate applies — so it surfaces as
// ErrFencedAppend, not as an opaque wire failure.
func (r *Replicator) classifyAppendErr(stage string, err error) error {
	if errors.Is(err, rdma.ErrAccess) {
		r.reg.Counter("controlha.journal.fenced_appends").Inc()
		return fmt.Errorf("%w: ring %s revoked: %v", ErrFencedAppend, stage, err)
	}
	return fmt.Errorf("controlha: ring %s: %w", stage, err)
}

// Replicated returns the bytes this term has committed to the standby.
func (r *Replicator) Replicated() uint64 { return r.replicated.Load() }

// Append pushes one encoded entry: WRITE it at the local tail (a
// wrap-split entry goes out as one WriteBatch frame), then commit by
// CASing the high-watermark from tail to tail+len. An append that failed
// without a verdict (a transport error) leaves the local tail untrusted
// and its bytes pending: the next Append re-reads hwm first and sends the
// pending bytes that never committed ahead of the new entry, so the ring
// never skips a sequence number.
func (r *Replicator) Append(b []byte) error {
	n := uint64(len(b))
	if n == 0 {
		return nil
	}
	if n > r.cap {
		return fmt.Errorf("%w: entry of %d bytes exceeds ring capacity %d", ErrRingOverrun, n, r.cap)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.split != nil {
		return r.split
	}
	if r.pending != nil {
		hwm, err := r.mem.ReadMem(r.base+ringOffHwm, 8)
		if err != nil {
			r.pending = append(r.pending, b...)
			return r.classifyAppendErr("resync", err)
		}
		switch hwm {
		case r.tail + r.sent: // the lost completion was a commit
			r.replicated.Add(r.sent)
			r.tail = hwm
			b = append(r.pending[r.sent:], b...)
		case r.tail:
			b = append(r.pending, b...)
		default:
			r.split = fmt.Errorf("%w: hwm %d, pending append at %d", ErrSplitBrain, hwm, r.tail)
			return r.split
		}
		r.pending = nil
	}
	return r.push(b)
}

// push WRITEs b at the local tail and commits it.
func (r *Replicator) push(b []byte) error {
	off, n := r.tail, uint64(len(b))
	if n > r.cap {
		r.pending, r.sent = b, 0
		return fmt.Errorf("%w: %d uncommitted bytes exceed ring capacity %d", ErrRingOverrun, n, r.cap)
	}
	pos := off % r.cap
	var err error
	if pos+n <= r.cap {
		err = r.mem.WriteBytes(r.base+RingHdrSize+pos, b)
	} else {
		first := r.cap - pos
		err = r.mem.WriteBatch([]core.BatchWrite{
			{Addr: r.base + RingHdrSize + pos, Data: b[:first]},
			{Addr: r.base + RingHdrSize, Data: b[first:]},
		})
	}
	if err != nil {
		return r.fail("write", b, err)
	}
	prev, ok, err := r.mem.CompareAndSwapMem(r.base+ringOffHwm, off, off+n)
	if err != nil {
		return r.fail("commit", b, err)
	}
	if !ok {
		r.split = fmt.Errorf("%w: hwm %d, appending at %d", ErrSplitBrain, prev, off)
		return r.split
	}
	r.tail = off + n
	r.replicated.Add(n)
	return nil
}

// fail classifies a failed verb. Anything but a fence leaves b pending, as
// sent: its commit CAS may have landed.
func (r *Replicator) fail(stage string, b []byte, err error) error {
	err = r.classifyAppendErr(stage, err)
	if !errors.Is(err, ErrFencedAppend) {
		r.pending, r.sent = append([]byte(nil), b...), uint64(len(b))
	}
	return err
}
