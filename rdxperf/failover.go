package main

import (
	"fmt"
	"time"

	"rdx/internal/artifact"
	"rdx/internal/controlha"
	"rdx/internal/core"
	"rdx/internal/ext"
	"rdx/internal/rdma"
)

const (
	failoverNodes = 16
	// publishesPerTerm warm commits run in each leadership term.
	publishesPerTerm = 2
	// termsPerEpisode bounds the journal a takeover replays: after this
	// many takeovers the run moves to a fresh standby host, so takeover
	// time does not grow with run length.
	termsPerEpisode = 32
)

// failoverPicker draws the nodes each term's publishes and probe flip.
func failoverPicker(seed int64) func() int { return picker(seed, 1, failoverNodes, 0, 1) }

// failoverInst alternates leadership of one fleet between two control
// planes over a standby host.
type failoverInst struct {
	r     *rig
	f     *fleet
	gens  [2]*ext.Extension
	cps   [2]*core.ControlPlane
	flows [2]map[string]*core.CodeFlow // by node name
	byKey [2]map[string]*core.CodeFlow // by NodeKey, as TakeOver wants them
	keys  []string
	cur   []int
	pick  func() int

	leader   int
	ldr      *controlha.Leader
	ldrQP    rdma.Verbs
	succ     *controlha.Leader // a successor not yet handed leadership
	succQP   rdma.Verbs
	host     *controlha.Host
	hostName string
	episode  int
	terms    int
	nextID   uint64
	acks     []ack // this episode's acked publishes
}

func buildFailover(r *rig) (instance, error) {
	f, err := r.bootFleet("fo", failoverNodes)
	if err != nil {
		return nil, err
	}
	in := &failoverInst{r: r, f: f, gens: generations(), cur: make([]int, failoverNodes),
		pick: failoverPicker(r.seed)}
	if err := in.build(); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

func (in *failoverInst) build() error {
	arts := artifact.NewCache(artifact.Config{Registry: in.r.reg})
	for s := range in.cps {
		in.cps[s] = core.NewControlPlaneLabeled(arts, in.r.reg, fmt.Sprintf("rdma.qp.cp%d", s))
		flows, err := in.f.codeFlows(in.cps[s])
		if err != nil {
			return err
		}
		in.flows[s], in.byKey[s] = flows, map[string]*core.CodeFlow{}
		for _, cf := range flows {
			in.byKey[s][cf.NodeKey()] = cf
		}
	}
	for _, name := range in.f.names {
		in.keys = append(in.keys, in.flows[0][name].NodeKey())
	}
	if err := in.newEpisode(); err != nil {
		return err
	}
	// Warm-up: each control plane publishes both generations everywhere
	// during its own term, so both hold both blobs resident and every
	// measured publish is a warm commit.
	for round := 0; round < 2; round++ {
		for g := range in.gens {
			for i, name := range in.f.names {
				if _, err := in.flows[in.leader][name].InjectExtension(in.gens[g], hookName); err != nil {
					return fmt.Errorf("warm-up publish: %w", err)
				}
				in.cur[i] = g
			}
		}
		if _, err := in.takeOver(); err != nil {
			return fmt.Errorf("warm-up takeover: %w", err)
		}
		in.retire()
	}
	return in.newEpisode()
}

// newEpisode checks the current standby's journal, retires it, and starts
// the current leader's term on a fresh standby host.
func (in *failoverInst) newEpisode() error {
	if in.host != nil {
		if err := checkDurable(in.host, in.acks); err != nil {
			return fmt.Errorf("episode %d: %w", in.episode, err)
		}
		in.ldr.Detach()
		in.ldrQP.Close()
		in.host.Close()
	}
	in.episode++
	in.acks = nil
	in.hostName = fmt.Sprintf("fo-standby-%d", in.episode)
	host, err := in.f.startHost(in.hostName, 1<<20)
	if err != nil {
		return err
	}
	in.host = host
	qp, err := in.f.dial(in.hostName, linkHA)
	if err != nil {
		return err
	}
	in.nextID++
	ldr, err := controlha.AttachLeader(in.cps[in.leader], qp, in.nextID, leaseTTL)
	if err != nil {
		qp.Close()
		return fmt.Errorf("attach leader: %w", err)
	}
	in.r.traceLeader(ldr)
	in.ldr, in.ldrQP = ldr, qp
	return nil
}

// publish flips node i to its other generation through the leader's own
// CodeFlow, or, for the deposed leader, attempts to.
func (in *failoverInst) publish(side, i int, kind uint8) (core.Report, time.Duration, error) {
	name := in.f.names[i]
	op := in.r.tr.beginOp(kind)
	in.r.tr.bindNodes([]string{name}, op)
	t0 := time.Now()
	rep, err := in.flows[side][name].InjectExtension(in.gens[1-in.cur[i]], hookName)
	d := time.Since(t0)
	in.r.tr.bindNodes([]string{name}, 0)
	in.r.tr.endOp(op)
	return rep, d, err
}

// takeOver makes the other control plane leader over a fresh QP. The
// deposed term stays attached until retire, so it can still try to publish.
func (in *failoverInst) takeOver() (time.Duration, error) {
	s := 1 - in.leader
	qp, err := in.f.dial(in.hostName, linkHA)
	if err != nil {
		return 0, err
	}
	in.nextID++
	op := in.r.tr.beginOp(opTakeover)
	t0 := time.Now()
	ldr, _, err := controlha.TakeOver(in.cps[s], in.host, qp, in.nextID, leaseTTL, in.byKey[s])
	d := time.Since(t0)
	in.r.tr.endOp(op)
	if err != nil {
		qp.Close()
		return d, err
	}
	in.r.traceLeader(ldr)
	in.succ, in.succQP = ldr, qp
	return d, nil
}

// retire detaches the deposed term and hands leadership to the successor.
func (in *failoverInst) retire() {
	in.ldr.Detach()
	in.ldrQP.Close()
	in.leader, in.ldr, in.ldrQP = 1-in.leader, in.succ, in.succQP
	in.succ, in.succQP = nil, nil
}

// term runs one leadership term: warm commits by the leader, a takeover by
// the other side, and one publish by the deposed leader, which must fail
// with core.ErrFenced.
func (in *failoverInst) term(pubLat, replay *[]float64) (time.Duration, error) {
	for k := 0; k < publishesPerTerm; k++ {
		i := in.pick()
		rep, d, err := in.publish(in.leader, i, opPublish)
		in.r.tally.record(err)
		if err == nil {
			in.cur[i] = 1 - in.cur[i]
			in.acks = append(in.acks, ack{in.keys[i], rep.Version})
			*pubLat = append(*pubLat, float64(d)/1e6)
		}
	}
	d, err := in.takeOver()
	in.r.tally.record(err)
	if err != nil {
		return d, fmt.Errorf("takeover: %w", err)
	}
	// Replay cost, timed apart on the bytes the takeover just replayed, in
	// the traced phase only: untraced runs measure the program's work alone.
	if in.r.tr.enabled() {
		data := in.host.JournalBytes()
		t0 := time.Now()
		if _, err := controlha.Replay(data); err != nil {
			return d, fmt.Errorf("replay: %w", err)
		}
		*replay = append(*replay, float64(time.Since(t0))/1e6)
	}
	_, _, perr := in.publish(in.leader, in.pick(), opProbe)
	in.r.tally.expectFenced(perr)
	in.retire()
	in.terms++
	if in.terms%termsPerEpisode == 0 {
		return d, in.newEpisode()
	}
	return d, nil
}

func (in *failoverInst) run(until time.Time, stop func() bool) (phase, error) {
	var lat, pubLat, replay []float64
	start := time.Now()
	for time.Now().Before(until) && !stop() {
		d, err := in.term(&pubLat, &replay)
		if err != nil {
			return phase{}, err
		}
		lat = append(lat, float64(d)/1e6)
	}
	return phase{elapsed: time.Since(start), ops: len(lat), lat: lat,
		series: map[string][]float64{"commit": pubLat, "replay": replay}}, nil
}

func (in *failoverInst) verify() error {
	if err := checkVerdicts(in.f.nodes, in.cur); err != nil {
		return err
	}
	return checkDurable(in.host, in.acks)
}

func (in *failoverInst) close() {
	for _, qp := range []rdma.Verbs{in.ldrQP, in.succQP} {
		if qp != nil {
			qp.Close()
		}
	}
	if in.host != nil {
		in.host.Close()
	}
	in.f.close()
}
