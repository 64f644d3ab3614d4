package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"rdx/internal/artifact"
	"rdx/internal/cluster"
	"rdx/internal/controlha"
	"rdx/internal/core"
	"rdx/internal/ext"
	"rdx/internal/node"
	"rdx/internal/rdma"
	"rdx/internal/shard"
	"rdx/internal/xabi"
)

const (
	hookName = "ingress"
	// leaseTTL outlives any run: nothing here deposes a leader by expiry.
	leaseTTL = time.Hour
	// genFiller sizes the two resident generations the flip workloads
	// alternate between (cluster.GenerationExt; verdicts 101 and 102).
	genFiller = 900
)

// workload is one benchmark workload: its declared load shape and link
// latency models (changing either is a workload change, not a speed-up)
// and the function that builds it.
type workload struct {
	name, why string
	opName    string // what the primary operation is called in the notes
	clients   int
	nodeLat   *rdma.LatencyModel
	haLat     *rdma.LatencyModel // nil: no control-plane HA
	ledgerOp  uint8              // the op kind the traced ledger explains
	// ledgerSeries names the phase series holding ledgerOp latencies, when
	// they are not the primary op's.
	ledgerSeries string
	build        func(r *rig) (instance, error)
}

var workloads = []*workload{
	{
		name:     "publish-warm",
		opName:   "publishes",
		why:      "HA on, 1 shard, 128 nodes, 2 closed-loop publishers flipping resident generations: commit-only publishes whose time is shard queueing plus fence and journal round trips",
		clients:  2,
		nodeLat:  rdma.NoLatency(),
		haLat:    haModel(),
		ledgerOp: opPublish,
		build: func(r *rig) (instance, error) {
			return buildFlip(r, publishWarm)
		},
	},
	{
		name:     "rollout-cold",
		opName:   "rollouts",
		why:      "HA off, 1 shard, 8 nodes, 1 closed-loop client rolling a never-seen 11k-instruction program to all 8 nodes: verify/JIT, link, staging and 8 commit CASes per rollout",
		clients:  1,
		nodeLat:  rdma.NoLatency(),
		ledgerOp: opRollout,
		build:    buildRollout,
	},
	{
		name:         "serve-flip",
		opName:       "hook executions",
		why:          "HA off, 64 nodes, 1 closed-loop client running hook executions in 34-exec batches and flipping one node's generation after each batch: control-plane cost on the data path shows here",
		clients:      1,
		nodeLat:      rdma.NoLatency(),
		ledgerOp:     opPublish,
		ledgerSeries: "publish",
		build: func(r *rig) (instance, error) {
			return buildFlip(r, serveFlip)
		},
	},
	{
		name:     "failover",
		opName:   "takeovers",
		why:      "HA on, 16 nodes, 2 control planes taking turns as leader over one standby: each term commits twice, then a takeover runs lease steal, ring fence, reconcile, Replay, ApplyTo",
		clients:  1,
		nodeLat:  rdma.NoLatency(),
		haLat:    haModel(),
		ledgerOp: opTakeover,
		build:    buildFailover,
	},
}

// ledgerLat returns the latencies of the op the traced ledger explains.
func (w *workload) ledgerLat(ph phase) []float64 {
	if w.ledgerSeries != "" {
		return ph.series[w.ledgerSeries]
	}
	return ph.lat
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, "|")
}

// stream returns the rand source for one input stream of a seed, so every
// generated input (tenant picks, node picks, program seeds) derives from
// the command-line seed alone.
func stream(seed int64, id uint64) *rand.Rand {
	x := uint64(seed)*0x9E3779B97F4A7C15 + id*0xD1B54A32D192ED03
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return rand.New(rand.NewSource(int64(x)))
}

// picker draws node indexes congruent to part modulo parts, uniformly. Two
// publishers with disjoint parts never publish to the same node, so each
// node's last acked generation is well defined.
func picker(seed int64, id uint64, n, part, parts int) func() int {
	rng := stream(seed, id)
	return func() int { return part + parts*rng.Intn(n/parts) }
}

// fleet is a set of nodes on one fabric, plus what has to be closed.
type fleet struct {
	r       *rig
	nodes   []*node.Node
	names   []string
	closers []func()
}

// bootFleet starts n nodes behind the workload's node link model.
func (r *rig) bootFleet(prefix string, n int) (*fleet, error) {
	f := &fleet{r: r}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("%s-node-%03d", prefix, i)
		nd, err := node.New(node.Config{ID: name, Hooks: []string{hookName}, Cores: 2, Latency: r.w.nodeLat, Seed: int64(i)})
		if err != nil {
			f.close()
			return nil, err
		}
		f.closers = append(f.closers, nd.Close)
		l, err := r.fab.Listen(name)
		if err != nil {
			f.close()
			return nil, err
		}
		go nd.Serve(l)
		f.nodes = append(f.nodes, nd)
		f.names = append(f.names, name)
	}
	return f, nil
}

// close releases everything in reverse order of creation.
func (f *fleet) close() {
	for i := len(f.closers) - 1; i >= 0; i-- {
		f.closers[i]()
	}
	f.closers = nil
}

// dial opens a QP to a named endpoint, wrapped for tracing in traced runs.
func (f *fleet) dial(name string, link uint8) (rdma.Verbs, error) {
	qp, err := f.r.fab.DialQP(name)
	if err != nil {
		return nil, err
	}
	return f.r.tr.wrapQP(qp, link, name), nil
}

// codeFlows binds cp to every node, keyed by node name.
func (f *fleet) codeFlows(cp *core.ControlPlane) (map[string]*core.CodeFlow, error) {
	flows := make(map[string]*core.CodeFlow, len(f.names))
	for _, name := range f.names {
		qp, err := f.dial(name, linkNode)
		if err != nil {
			return nil, err
		}
		cf, err := cp.CreateCodeFlowQP(qp)
		if err != nil {
			return nil, fmt.Errorf("codeflow to %s: %w", name, err)
		}
		f.closers = append(f.closers, func() { cf.Close() })
		flows[name] = cf
	}
	return flows, nil
}

// startHost starts a standby host behind the workload's HA link model on
// the fabric under name.
func (f *fleet) startHost(name string, ringCap uint64) (*controlha.Host, error) {
	host, err := controlha.NewHostWith(ringCap, f.r.w.haLat)
	if err != nil {
		return nil, err
	}
	l, err := f.r.fab.Listen(name)
	if err != nil {
		host.Close()
		return nil, err
	}
	go host.Serve(l)
	return host, nil
}

// traceLeader wraps a new leadership term's fence and journal in traced runs.
func (r *rig) traceLeader(l *controlha.Leader) {
	if r.tr == nil {
		return
	}
	l.CP.SetFence(r.tr.fence(l.Lease.Check))
	l.CP.SetJournal(journalSink{t: r.tr, inner: l.Journal})
}

// parallel runs fn(i) for i in [0, n) on a few goroutines and returns the
// first error. Only set-up uses it; the measured load keeps to its declared
// client goroutines.
func parallel(n int, fn func(i int) error) error {
	var (
		mu    sync.Mutex
		next  int
		first error
		wg    sync.WaitGroup
	)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := i >= n || first != nil
				mu.Unlock()
				if stop {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// generations are the two resident extensions the flip workloads alternate.
func generations() [2]*ext.Extension {
	return [2]*ext.Extension{
		cluster.GenerationExt(ext.KindEBPF, 1, genFiller),
		cluster.GenerationExt(ext.KindEBPF, 2, genFiller),
	}
}

// verdictOf is the hook verdict generation index g serves.
func verdictOf(g int) uint64 { return uint64(101 + g) }

// checkVerdicts requires every node's hook to serve its last acked generation.
func checkVerdicts(nodes []*node.Node, cur []int) error {
	buf := make([]byte, xabi.CtxSize)
	for i, nd := range nodes {
		res, err := nd.ExecHook(hookName, buf, nil)
		if err != nil {
			return fmt.Errorf("node %s: final exec: %w", nd.ID, err)
		}
		if res.Verdict != verdictOf(cur[i]) {
			return fmt.Errorf("node %s serves verdict %d, last acked generation serves %d", nd.ID, res.Verdict, verdictOf(cur[i]))
		}
	}
	return nil
}

// ack is one acknowledged publish: the node's key and the version it got.
type ack struct {
	node    string
	version uint64
}

// checkDurable replays the standby's journal and requires every acked
// publish to be in it, and each key's replayed version to be its last ack:
// acked means durable on the standby.
func checkDurable(host *controlha.Host, acks []ack) error {
	if _, err := host.Pump(); err != nil {
		return fmt.Errorf("standby pump: %w", err)
	}
	st, err := controlha.Replay(host.JournalBytes())
	if err != nil {
		return fmt.Errorf("standby replay: %w", err)
	}
	have := map[ack]bool{}
	for k, hist := range st.History {
		for _, d := range hist {
			have[ack{k.Node, d.Version}] = true
		}
	}
	last := map[string]uint64{}
	for _, a := range acks {
		if !have[a] {
			return fmt.Errorf("acked publish of version %d on node %s is missing from the standby journal", a.version, a.node)
		}
		last[a.node] = max(last[a.node], a.version)
	}
	for n, v := range last {
		if got := st.Versions[controlha.Key{Node: n, Hook: hookName}].Version; got != v {
			return fmt.Errorf("standby replay has version %d on node %s, last ack was %d", got, n, v)
		}
	}
	return nil
}

// ---- publish-warm and serve-flip ----

type flipConfig struct {
	prefix     string
	nodes      int
	publishers int
	ha         bool
	// execsPerFlip, when set, makes the load one data-path client that runs
	// batches of execsPerFlip hook executions and flips a node after each
	// batch, in place of closed-loop publishers.
	execsPerFlip int
}

var (
	publishWarm = flipConfig{prefix: "pw", nodes: 128, publishers: 2, ha: true}
	// serve-flip interleaves its flips with the executions in one client:
	// a closed-loop publisher beside a closed-loop data path on two vCPUs
	// settles into scheduling modes that swung the execution rate between
	// 0.8 and 1.56 M/s from run to run. The mix keeps the measured one of
	// that two-client load, about 28k flips/s beside 0.95 M execs/s: one
	// flip per 34 executions.
	serveFlip = flipConfig{prefix: "sf", nodes: 64, publishers: 1, execsPerFlip: 34}
)

// pickers returns each publisher's node picker; publisher w owns the nodes
// congruent to w, so no two publishers ever flip the same node.
func (c flipConfig) pickers(seed int64) []func() int {
	out := make([]func() int, c.publishers)
	for w := range out {
		out[w] = picker(seed, uint64(1+w), c.nodes, w, c.publishers)
	}
	return out
}

// execPicker draws the nodes the data-path client executes on.
func (c flipConfig) execPicker(seed int64) func() int { return picker(seed, 3, c.nodes, 0, 1) }

// flipInst flips nodes between two resident generations through the
// router; with execsPerFlip, a data-path client executes hooks between flips.
type flipInst struct {
	r       *rig
	cfg     flipConfig
	f       *fleet
	host    *controlha.Host
	cp      *core.ControlPlane
	router  *shard.Router
	gens    [2]*ext.Extension
	tenants []string
	targets [][]string
	keys    []string
	cur     []int   // last acked generation per node, owned by its publisher
	acks    [][]ack // per publisher
	pick    []func() int
	execs   func() int
}

func buildFlip(r *rig, cfg flipConfig) (instance, error) {
	f, err := r.bootFleet(cfg.prefix, cfg.nodes)
	if err != nil {
		return nil, err
	}
	in := &flipInst{r: r, cfg: cfg, f: f, gens: generations(), cur: make([]int, cfg.nodes), acks: make([][]ack, cfg.publishers)}
	if err := in.build(); err != nil {
		f.close()
		return nil, err
	}
	return in, nil
}

func (in *flipInst) build() error {
	r, f, cfg := in.r, in.f, in.cfg
	arts := artifact.NewCache(artifact.Config{Registry: r.reg})
	in.cp = core.NewControlPlaneLabeled(arts, r.reg, "rdma.qp.shard0")
	flows, err := f.codeFlows(in.cp)
	if err != nil {
		return err
	}
	if cfg.ha {
		hostName := cfg.prefix + "-standby"
		// The 8 MiB ring holds every publish of a run.
		if in.host, err = f.startHost(hostName, 8<<20); err != nil {
			return err
		}
		f.closers = append(f.closers, in.host.Close)
		qp, err := f.dial(hostName, linkHA)
		if err != nil {
			return err
		}
		f.closers = append(f.closers, func() { qp.Close() })
		ldr, err := controlha.AttachLeader(in.cp, qp, 1, leaseTTL)
		if err != nil {
			return fmt.Errorf("attach leader: %w", err)
		}
		r.traceLeader(ldr)
	}
	in.router = shard.NewRouter(shard.Config{Registry: r.reg})
	f.closers = append(f.closers, in.router.Close)
	var ex shard.Executor = shard.NewCPExecutor(in.cp, flows)
	if r.tr != nil {
		ex = r.tr.execFunc(ex)
	}
	if err := in.router.AddShard(0, ex); err != nil {
		return err
	}
	for i, name := range f.names {
		in.tenants = append(in.tenants, fmt.Sprintf("tenant-%03d", i))
		in.targets = append(in.targets, []string{name})
		in.keys = append(in.keys, flows[name].NodeKey())
	}
	in.pick, in.execs = cfg.pickers(r.seed), cfg.execPicker(r.seed)
	// Warm-up: stage both generations on every node (the second one last),
	// so every measured publish takes the commit-only path.
	for g := range in.gens {
		err := parallel(cfg.nodes, func(i int) error {
			return in.router.Publish(context.Background(), &shard.Job{
				Tenant: in.tenants[i], Hook: hookName, Ext: in.gens[g], Nodes: in.targets[i], Bytes: 256,
			})
		})
		if err != nil {
			return fmt.Errorf("warm-up publish of generation %d: %w", g+1, err)
		}
	}
	for i := range in.cur {
		in.cur[i] = 1
	}
	return nil
}

// flip publishes node i's other generation through the router.
func (in *flipInst) flip(w, i int) (time.Duration, error) {
	g := 1 - in.cur[i]
	j := &shard.Job{Tenant: in.tenants[i], Hook: hookName, Ext: in.gens[g], Nodes: in.targets[i], Bytes: 256}
	op := in.r.tr.beginOp(opPublish)
	in.r.tr.bindJob(j, op)
	t0 := time.Now()
	err := in.router.Publish(context.Background(), j)
	d := time.Since(t0)
	in.r.tr.endOp(op)
	if err != nil {
		return d, err
	}
	in.cur[i] = g
	if in.host != nil {
		dv, ok := in.cp.DeployedVersion(in.keys[i], hookName)
		if !ok {
			return d, fmt.Errorf("node %s: acked publish left no deployed version", in.f.names[i])
		}
		in.acks[w] = append(in.acks[w], ack{in.keys[i], dv.Version})
	}
	return d, nil
}

// serve runs batches of execsPerFlip hook executions on random nodes, with
// one flip after each batch, until the deadline. A single sub-microsecond
// execution is too close to the clock's own cost to time alone, so each
// batch's mean time per execution is one latency sample; the flips fall
// between the timed batches. Every execution must return the verdict of
// its node's last acked generation.
func (in *flipInst) serve(until time.Time, stop func() bool) phase {
	buf := make([]byte, xabi.CtxSize)
	var execs int64
	var batches, flips []float64
	n := in.cfg.execsPerFlip
	start := time.Now()
	for time.Now().Before(until) && !stop() {
		t0 := time.Now()
		for b := 0; b < n; b++ {
			i := in.execs()
			nd := in.f.nodes[i]
			res, err := nd.ExecHook(hookName, buf, nil)
			if want := verdictOf(in.cur[i]); err == nil && res.Verdict != want {
				err = fmt.Errorf("exec on %s: verdict %d, last acked generation serves %d", nd.ID, res.Verdict, want)
			}
			in.r.tally.record(err)
			if err == nil {
				execs++
			}
		}
		batches = append(batches, float64(time.Since(t0))/1e6/float64(n))
		d, err := in.flip(0, in.pick[0]())
		in.r.tally.record(err)
		if err == nil {
			flips = append(flips, float64(d)/1e6)
		}
	}
	return phase{elapsed: time.Since(start), ops: int(execs), lat: batches,
		series: map[string][]float64{"exec": batches, "publish": flips}}
}

func (in *flipInst) run(until time.Time, stop func() bool) (phase, error) {
	if in.cfg.execsPerFlip > 0 {
		return in.serve(until, stop), nil
	}
	var wg sync.WaitGroup
	lat := make([][]float64, in.cfg.publishers)
	start := time.Now()
	for w := range lat {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(until) && !stop() {
				d, err := in.flip(w, in.pick[w]())
				in.r.tally.record(err)
				if err == nil {
					lat[w] = append(lat[w], float64(d)/1e6)
				}
			}
		}()
	}
	wg.Wait()
	var pubs []float64
	for _, l := range lat {
		pubs = append(pubs, l...)
	}
	return phase{elapsed: time.Since(start), ops: len(pubs), lat: pubs,
		series: map[string][]float64{"publish": pubs}}, nil
}

func (in *flipInst) verify() error {
	if err := checkVerdicts(in.f.nodes, in.cur); err != nil {
		return err
	}
	if in.host == nil {
		return nil
	}
	var all []ack
	for _, a := range in.acks {
		all = append(all, a...)
	}
	return checkDurable(in.host, all)
}

func (in *flipInst) close() { in.f.close() }
