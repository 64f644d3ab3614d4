package main

import (
	"context"
	"fmt"
	"time"

	"rdx/internal/artifact"
	"rdx/internal/core"
	"rdx/internal/ebpf"
	"rdx/internal/ebpf/progen"
	"rdx/internal/ext"
	"rdx/internal/shard"
)

const (
	rolloutNodes = 8
	rolloutInsns = 11000
	// rolloutBases is how many progen programs set-up generates; each
	// rollout patches one's seed immediate, so no two rollouts share a
	// digest and every rollout misses the artifact cache.
	rolloutBases = 32
)

// rolloutPlan draws, per rollout, which base program to patch and the
// immediate that makes it new.
func rolloutPlan(seed int64) func() (int, int32) {
	rng := stream(seed, 4)
	return func() (int, int32) { return rng.Intn(rolloutBases), rng.Int31() }
}

// rolloutSeeds are the progen seeds of the base programs.
func rolloutSeeds(seed int64) []int64 {
	rng := stream(seed, 5)
	out := make([]int64, rolloutBases)
	for i := range out {
		out[i] = rng.Int63()
	}
	return out
}

type rolloutInst struct {
	r      *rig
	f      *fleet
	cp     *core.ControlPlane
	flows  map[string]*core.CodeFlow
	router *shard.Router
	bases  []*ebpf.Program
	plan   func() (int, int32)
	seq    int
	last   string // digest of the last acked rollout
}

func buildRollout(r *rig) (instance, error) {
	f, err := r.bootFleet("rc", rolloutNodes)
	if err != nil {
		return nil, err
	}
	in := &rolloutInst{r: r, f: f, plan: rolloutPlan(r.seed)}
	if err := in.build(); err != nil {
		f.close()
		return nil, err
	}
	return in, nil
}

func (in *rolloutInst) build() error {
	r, f := in.r, in.f
	arts := artifact.NewCache(artifact.Config{Registry: r.reg})
	in.cp = core.NewControlPlaneLabeled(arts, r.reg, "rdma.qp.shard0")
	var err error
	if in.flows, err = f.codeFlows(in.cp); err != nil {
		return err
	}
	in.router = shard.NewRouter(shard.Config{Registry: r.reg})
	f.closers = append(f.closers, in.router.Close)
	var ex shard.Executor = shard.NewCPExecutor(in.cp, in.flows)
	if r.tr != nil {
		ex = r.tr.execFunc(ex)
	}
	if err := in.router.AddShard(0, ex); err != nil {
		return err
	}
	for _, s := range rolloutSeeds(r.seed) {
		p, err := progen.Generate(progen.Options{Size: rolloutInsns, Seed: s, WithHelpers: true})
		if err != nil {
			return err
		}
		in.bases = append(in.bases, p)
	}
	// Warm-up: two rollouts prime the frame pools, scheduler and JIT paths.
	for i := 0; i < 2; i++ {
		if _, err := in.rollout(); err != nil {
			return fmt.Errorf("warm-up rollout: %w", err)
		}
	}
	return nil
}

// next builds the next never-seen program of the plan.
func (in *rolloutInst) next() *ext.Extension {
	b, imm := in.plan()
	p := *in.bases[b]
	p.Insns = append([]ebpf.Instruction(nil), p.Insns...)
	p.Insns[2].Imm = imm // the prologue's seed constant: same shape, new digest
	p.Name = fmt.Sprintf("rollout-%d", in.seq)
	in.seq++
	return ext.FromEBPF(&p)
}

// rollout publishes the next program to every node as one job.
func (in *rolloutInst) rollout() (time.Duration, error) {
	e := in.next()
	j := &shard.Job{Tenant: "rollout-tenant", Hook: hookName, Ext: e, Nodes: in.f.names, Bytes: 8 * rolloutInsns}
	op := in.r.tr.beginOp(opRollout)
	in.r.tr.bindJob(j, op)
	t0 := time.Now()
	err := in.router.Publish(context.Background(), j)
	d := time.Since(t0)
	in.r.tr.endOp(op)
	if err == nil {
		in.last = e.Digest()
	}
	return d, err
}

func (in *rolloutInst) run(until time.Time, stop func() bool) (phase, error) {
	var lat []float64
	start := time.Now()
	for time.Now().Before(until) && !stop() {
		d, err := in.rollout()
		in.r.tally.record(err)
		if err == nil {
			lat = append(lat, float64(d)/1e6)
		}
	}
	return phase{elapsed: time.Since(start), ops: len(lat), lat: lat}, nil
}

// verify requires every node's deployed digest to be the last rollout's,
// and the version its hook reports to be the one the control plane
// recorded for it.
func (in *rolloutInst) verify() error {
	for _, name := range in.f.names {
		cf := in.flows[name]
		dv, ok := in.cp.DeployedVersion(cf.NodeKey(), hookName)
		if !ok || dv.Digest != in.last {
			return fmt.Errorf("node %s: deployed digest %q, last rollout %q", name, dv.Digest, in.last)
		}
		_, _, version, err := cf.HookStats(hookName)
		if err != nil {
			return fmt.Errorf("node %s: hook stats: %w", name, err)
		}
		if version != dv.Version {
			return fmt.Errorf("node %s: hook serves version %d, last rollout deployed %d", name, version, dv.Version)
		}
	}
	return nil
}

func (in *rolloutInst) close() { in.f.close() }
