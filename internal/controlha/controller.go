package controlha

import (
	"encoding/binary"
	"fmt"
	"time"

	"rdx/internal/core"
	"rdx/internal/rdma"
	"rdx/internal/sim"
)

// Leader bundles one controller's leadership term: the lease it holds, the
// journal it appends, and the replication stream pushing that journal to
// the standby. Dropping leadership (voluntarily or by deposal) leaves the
// ControlPlane usable but fenced — every publish fails with core.ErrFenced
// until a new term is attached.
type Leader struct {
	CP      *core.ControlPlane
	Lease   *Lease
	Journal *Journal
	Rep     *Replicator
}

// findMR locates a named MR in a discovered table.
func findMR(mrs []rdma.MR, name string) (rdma.MR, error) {
	for _, mr := range mrs {
		if mr.Name == name {
			return mr, nil
		}
	}
	return rdma.MR{}, fmt.Errorf("controlha: peer exposes no %q MR", name)
}

// AttachLeader makes cp the fleet's leader: over qp (a connection to the
// standby host), acquire the CAS lease in the witness MR, take the journal
// ring for the new term (Replicator.Activate: rotate its rkey, stamp the
// fencing epoch), and wire a replicated journal plus the lease fence into
// cp's publish paths. The returned Leader's lease is NOT auto-renewed;
// call Leader.Lease.StartRenewal for long-running deployments.
func AttachLeader(cp *core.ControlPlane, qp rdma.Verbs, id uint64, ttl time.Duration) (*Leader, error) {
	return AttachLeaderClock(cp, qp, id, ttl, sim.Real{})
}

// AttachLeaderClock is AttachLeader with an injected clock for the lease's
// TTL arithmetic (the simulator's seam).
func AttachLeaderClock(cp *core.ControlPlane, qp rdma.Verbs, id uint64, ttl time.Duration, clock sim.Clock) (*Leader, error) {
	lease, rep, err := startTerm(cp, qp, id, ttl, clock, (*Lease).Acquire)
	if err != nil {
		return nil, err
	}
	return lead(cp, lease, rep, 0), nil
}

// startTerm discovers the standby's MRs over qp, claims the lease with
// claim (Acquire or Steal), and only then activates the ring for the new
// epoch — a candidate whose claim fails never fences the live leader.
func startTerm(cp *core.ControlPlane, qp rdma.Verbs, id uint64, ttl time.Duration, clock sim.Clock, claim func(*Lease) error) (*Lease, *Replicator, error) {
	mrs, err := qp.QueryMRs()
	if err != nil {
		return nil, nil, fmt.Errorf("controlha: MR discovery: %w", err)
	}
	mem := core.NewRemoteMemory(qp, mrs)
	witness, err := findMR(mrs, WitnessMRName)
	if err != nil {
		return nil, nil, err
	}
	ring, err := findMR(mrs, RingMRName)
	if err != nil {
		return nil, nil, err
	}
	lease := NewLeaseClock(mem, witness.Addr, id, ttl, cp.Registry, clock)
	if err := claim(lease); err != nil {
		return nil, nil, err
	}
	rep := NewReplicator(mem, ring.Addr, 0, lease.Epoch(), cp.Registry)
	if err := rep.Activate(); err != nil {
		return nil, nil, err
	}
	return lease, rep, nil
}

// lead wires a claimed term into cp: a journal continuing after seq,
// replicated through rep, and the lease as the publish fence.
func lead(cp *core.ControlPlane, lease *Lease, rep *Replicator, seq uint64) *Leader {
	j := NewJournal(cp.Registry)
	j.SeedSeq(seq)
	j.SetFenceSource(lease.Epoch)
	j.SetReplicator(rep)
	cp.SetJournal(j)
	cp.SetFence(lease.Check)
	return &Leader{CP: cp, Lease: lease, Journal: j, Rep: rep}
}

// JournalFetcher yields the committed journal a successor replays, given
// its view of the standby (whose MR table already holds the ring's fresh
// rkey) and the ring MR's base address. FetchJournalView reads the ring remotely;
// Host.PumpedJournal serves a successor co-located with the standby.
type JournalFetcher func(mem *core.RemoteMemory, ringBase uint64) (rdma.FrameView, error)

// TakeOver promotes a standby: steal the lease (the epoch bump fences the
// old leader out of every dispatch CAS), take the ring (the rkey rotation
// fences it out of every ring append), pump the replicated journal, replay
// it onto cp, and install the reconstructed deployed-version map and
// rollback stacks on the re-attached CodeFlows (keyed by NodeKey). The new
// term continues journaling into the same ring — sequence numbers carry on
// from the replayed tail, so the ring stays replayable end to end across
// any number of failovers. qp must reach the standby's own host endpoint
// (a fabric loopback works: the coordination machinery is built from the
// fabric's own verbs, so the successor uses them even against itself).
//
// Returns the new leadership term and the replayed state; State.Open lists
// the interrupted jobs the caller should re-drive. Takeover latency lands
// in the controlha.takeover.latency histogram.
func TakeOver(cp *core.ControlPlane, host *Host, qp rdma.Verbs, id uint64, ttl time.Duration, flows map[string]*core.CodeFlow) (*Leader, *State, error) {
	return TakeOverClock(cp, qp, id, ttl, flows, host.PumpedJournal, sim.Real{})
}

// TakeOverRemote is TakeOver for a controller that does not own the standby
// host's arena (rdxctl failover): the journal is fetched over one-sided
// READs from the ring MR instead of pumped locally. Requires an unwrapped
// ring; a continuously pumping standby should promote itself with TakeOver
// instead.
func TakeOverRemote(cp *core.ControlPlane, qp rdma.Verbs, id uint64, ttl time.Duration, flows map[string]*core.CodeFlow) (*Leader, *State, error) {
	return TakeOverClock(cp, qp, id, ttl, flows, FetchJournalView, sim.Real{})
}

// TakeOverClock is the takeover routine behind TakeOver and TakeOverRemote,
// with the journal source and the clock injected (the simulator's seam).
// The journal is read only after Activate rotated the ring's rkey, so no
// verb of the deposed term can commit past the replayed prefix.
func TakeOverClock(cp *core.ControlPlane, qp rdma.Verbs, id uint64, ttl time.Duration, flows map[string]*core.CodeFlow, journal JournalFetcher, clock sim.Clock) (*Leader, *State, error) {
	if clock == nil {
		clock = sim.Real{}
	}
	start := clock.Now()
	lease, rep, err := startTerm(cp, qp, id, ttl, clock, (*Lease).Steal)
	if err != nil {
		return nil, nil, err
	}
	view, err := journal(rep.mem, rep.base)
	if err != nil {
		return nil, nil, err
	}
	state, err := Replay(view.Bytes())
	view.Release()
	if err != nil {
		return nil, nil, fmt.Errorf("controlha: journal replay: %w", err)
	}
	state.ApplyTo(cp, flows)
	ldr := lead(cp, lease, rep, state.LastSeq)
	cp.Registry.Histogram("controlha.takeover.latency").RecordDuration(clock.Since(start))
	return ldr, state, nil
}

// Detach removes the term's hooks from the control plane and stops lease
// renewal, without vacating the lease word (a successor Steals it, or the
// TTL lapses).
func (l *Leader) Detach() {
	l.Lease.StopRenewal()
	l.CP.SetFence(nil)
	l.CP.SetJournal(nil)
}

// FetchJournalView reads the committed journal prefix out of a ring MR
// with one-sided READs, delivering the bytes as a zero-copy view of the
// pooled response frame when the underlying issuer supports it (see
// core.RemoteMemory.ReadBytesView). The CAS-committed high-watermark
// bounds what is trusted, and a ring that has wrapped past its capacity no
// longer holds its full history (ErrRingOverrun — a standby that pumped
// continuously still has the complete copy; this path is for late readers
// like rdxctl). The caller must Release the view; Replay copies everything
// it keeps, so releasing right after replay is safe.
func FetchJournalView(mem *core.RemoteMemory, base uint64) (rdma.FrameView, error) {
	hdr, err := readRingHeader(mem, base)
	if err != nil {
		return rdma.FrameView{}, err
	}
	if hdr.hwm > hdr.cap {
		return rdma.FrameView{}, fmt.Errorf("%w: %d committed bytes exceed ring capacity %d (oldest entries overwritten)",
			ErrRingOverrun, hdr.hwm, hdr.cap)
	}
	if hdr.hwm == 0 {
		return rdma.FrameView{}, nil
	}
	return mem.ReadBytesView(base+RingHdrSize, int(hdr.hwm))
}

// FetchJournal is FetchJournalView for callers that keep the bytes: the
// view is copied to the heap and released.
func FetchJournal(mem *core.RemoteMemory, base uint64) ([]byte, error) {
	view, err := FetchJournalView(mem, base)
	if err != nil {
		return nil, err
	}
	defer view.Release()
	if len(view.Bytes()) == 0 {
		return nil, nil
	}
	return append([]byte(nil), view.Bytes()...), nil
}

// HAStatus is a read-only snapshot of a standby host's coordination state,
// taken entirely with one-sided READs (rdxctl stats -ha).
type HAStatus struct {
	Owner     uint64    // lease owner ID, 0 = vacant
	Expiry    time.Time // lease deadline
	Epoch     uint64    // fencing epoch
	RingHwm   uint64    // committed bytes
	RingEpoch uint64    // epoch stamped into the ring
	RingCap   uint64    // ring data capacity
	State     *State    // replayed journal state; nil if the ring wrapped
	ReplayErr error     // why State is nil (wrap, corruption), if so
}

// Inspect reads a standby host's witness and ring over qp and replays the
// journal (when the ring still holds it whole) into a status snapshot.
func Inspect(qp rdma.Verbs) (*HAStatus, error) {
	mrs, err := qp.QueryMRs()
	if err != nil {
		return nil, fmt.Errorf("controlha: MR discovery: %w", err)
	}
	mem := core.NewRemoteMemory(qp, mrs)
	witness, err := findMR(mrs, WitnessMRName)
	if err != nil {
		return nil, err
	}
	ring, err := findMR(mrs, RingMRName)
	if err != nil {
		return nil, err
	}
	hdr, err := readRingHeader(mem, ring.Addr)
	if err != nil {
		return nil, err
	}
	w, err := mem.ReadBytes(witness.Addr, witnessOffEpoch+8)
	if err != nil {
		return nil, fmt.Errorf("controlha: status read: %w", err)
	}
	le := binary.LittleEndian
	st := &HAStatus{
		Owner:     le.Uint64(w[witnessOffOwner:]),
		Epoch:     le.Uint64(w[witnessOffEpoch:]),
		RingHwm:   hdr.hwm,
		RingEpoch: hdr.epoch,
		RingCap:   hdr.cap,
	}
	if expiry := le.Uint64(w[witnessOffExpiry:]); expiry != 0 {
		st.Expiry = time.Unix(0, int64(expiry))
	}
	journal, err := FetchJournal(mem, ring.Addr)
	if err != nil {
		st.ReplayErr = err
		return st, nil
	}
	st.State, st.ReplayErr = Replay(journal)
	return st, nil
}
