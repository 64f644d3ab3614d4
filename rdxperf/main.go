// Command rdxperf is the repository benchmark: four seeded workloads driven
// through the public APIs of shard, core, controlha, pipeline and node,
// each reporting end-to-end metrics (untraced) or per-layer metrics from a
// span ledger (traced). Run it from the repository root:
//
//	bash rdxperf/run.sh --workload publish-warm --seed 1 --seconds 12 --trace 0
//
// Human-readable lines come first; the last line of standard output is one
// JSON object {correct, attempted, failed, metrics}. A wrong output, a
// failed operation or a broken ledger prints correct=false and exits 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rdx/internal/core"
	"rdx/internal/rdma"
	"rdx/internal/shard"
	"rdx/internal/telemetry"
)

// An untraced run builds its workload at least minSetups times, and more
// while the builds have taken under setupBudget in all (at most maxSetups),
// so a cheap set-up is sampled often enough for its median to hold still.
// Only the last build is measured; setup_s is the median build time.
const (
	minSetups   = 5
	maxSetups   = 25
	setupBudget = 2 * time.Second
)

// spanBudget bounds the spans one traced phase keeps in memory.
const spanBudget = 400_000

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Int64("seed", 1, "seed every generated input derives from")
	seconds := flag.Int("seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	w := findWorkload(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: rdxperf --workload <%s> --seed <n> --seconds <s> --trace <0|1>\n", workloadNames())
		os.Exit(2)
	}
	res, err := runWorkload(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if res == nil {
		fmt.Fprintf(os.Stderr, "rdxperf: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	for _, line := range res.notes {
		fmt.Println(line)
	}
	if err != nil {
		fmt.Printf("FAILED: %v\n", err)
	}
	out, _ := json.Marshal(res.output(err == nil)) // plain maps and numbers always marshal
	fmt.Println(string(out))
	if err != nil {
		os.Exit(1)
	}
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run reports.
type result struct {
	notes     []string
	attempted int64
	failed    int64
	metrics   map[string]metric
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) set(name, unit string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) output(correct bool) map[string]any {
	return map[string]any{
		"correct":   correct && r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   r.metrics,
	}
}

// rig is what every workload builds on: the seed, the fabric, one
// registry, and the tracer (nil in untraced runs, where the program's QPs
// and executors are used unwrapped).
type rig struct {
	w     *workload
	seed  int64
	tr    *tracer
	fab   *rdma.Fabric
	reg   *telemetry.Registry
	tally *tally
}

// instance is one built workload.
type instance interface {
	// run drives the load until the deadline, or until stop reports true,
	// and returns what it measured.
	run(until time.Time, stop func() bool) (phase, error)
	// verify runs the workload's correctness self-checks after the load.
	verify() error
	close()
}

// phase is what one measured phase of a workload returns.
type phase struct {
	elapsed time.Duration
	ops     int                  // primary operations completed
	lat     []float64            // primary op latencies, ms
	series  map[string][]float64 // other latency samples by name, ms
}

// merge appends q's operations and samples to p.
func (p *phase) merge(q phase) {
	p.elapsed += q.elapsed
	p.ops += q.ops
	p.lat = append(p.lat, q.lat...)
	for name, xs := range q.series {
		if p.series == nil {
			p.series = map[string][]float64{}
		}
		p.series[name] = append(p.series[name], xs...)
	}
}

// describe prints the phase's samples, one line per series.
func (p phase) describe(res *result, op string) {
	res.notef("%s: %d in %.2f s (%.1f/s); p50 %.4f ms, p90 %.4f ms, p99 %.4f ms (%d samples)", op, p.ops, p.elapsed.Seconds(),
		float64(p.ops)/p.elapsed.Seconds(), percentile(p.lat, 50), percentile(p.lat, 90), percentile(p.lat, 99), len(p.lat))
	names := make([]string, 0, len(p.series))
	for name := range p.series {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		xs := p.series[name]
		res.notef("  %s: %d samples (%.1f/s); p50 %.4f ms, p99 %.4f ms", name, len(xs),
			float64(len(xs))/p.elapsed.Seconds(), percentile(xs, 50), percentile(xs, 99))
	}
}

// usage is the process's CPU time and allocation count at one instant.
type usage struct {
	cpu     time.Duration
	mallocs uint64
	pool    rdma.PoolStats
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		pool:    rdma.SnapshotPoolStats(),
	}
}

// tally counts attempted operations and sorts failures into typed buckets.
type tally struct {
	attempted, quota, unavailable, fenced, other, expectedFenced atomic.Int64

	mu    sync.Mutex
	first error
}

// record counts one attempted operation with its outcome.
func (t *tally) record(err error) {
	t.attempted.Add(1)
	if err == nil {
		return
	}
	switch {
	case errors.Is(err, shard.ErrQuotaExceeded):
		t.quota.Add(1)
	case errors.Is(err, shard.ErrShardUnavailable):
		t.unavailable.Add(1)
	case errors.Is(err, core.ErrFenced):
		t.fenced.Add(1)
	default:
		t.other.Add(1)
	}
	t.mu.Lock()
	if t.first == nil {
		t.first = err
	}
	t.mu.Unlock()
}

// expectFenced counts a deposed leader's publish: attempted, and correct
// exactly when it failed with core.ErrFenced.
func (t *tally) expectFenced(err error) {
	if errors.Is(err, core.ErrFenced) {
		t.attempted.Add(1)
		t.expectedFenced.Add(1)
		return
	}
	if err == nil {
		err = errors.New("publish by a deposed leader succeeded")
	}
	t.record(fmt.Errorf("fenced probe: %w", err))
}

func (t *tally) failed() int64 {
	return t.quota.Load() + t.unavailable.Load() + t.fenced.Load() + t.other.Load()
}

func (t *tally) firstErr() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.first
}

// runWorkload builds, measures and checks one workload. It returns a nil
// result only when nothing could be measured.
func runWorkload(w *workload, seed int64, length time.Duration, traced bool) (*result, error) {
	res := &result{metrics: map[string]metric{}}
	res.notef("rdxperf %s seed=%d seconds=%.0f trace=%v", w.name, seed, length.Seconds(), traced)
	res.notef("host: GOMAXPROCS=%d nproc=%d %s %s/%s; load from 1 process, %d client goroutines",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH, w.clients)
	res.notef("workload: %s", w.why)
	res.notef("latency models: node links %s; HA link %s", describeLatency(w.nodeLat), describeLatency(w.haLat))
	ha := w.haLat
	if ha == nil {
		ha = haModel() // HA off: calibrate the link the HA workloads use
	}
	cal := calibrate(ha, w.nodeLat)
	res.notef("calibration: time.Sleep(%v) returns after p50 %.3f ms; realized verb p50: HA link %.3f ms, node link %.2f µs",
		ha.Base, cal.sleepMs, cal.haVerbMs, cal.nodeVerbUs)

	var inst instance
	var setups []float64
	var spent time.Duration
	r := &rig{w: w, seed: seed, tally: &tally{}}
	for {
		r.fab, r.reg = rdma.NewFabric(), telemetry.NewRegistry()
		rdma.BindWireInstruments(r.reg)
		if traced {
			r.tr = newTracer(spanBudget)
		}
		runtime.GC() // each build starts on a heap free of the previous build's garbage
		t0 := time.Now()
		in, err := w.build(r)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		took := time.Since(t0)
		setups, spent = append(setups, took.Seconds()), spent+took
		if traced || len(setups) >= maxSetups || (len(setups) >= minSetups && spent >= setupBudget) {
			inst = in
			break
		}
		in.close()
	}
	defer inst.close()
	res.notef("set-up: %d builds, %s s each", len(setups), fmtFloats(setups, 4))
	r.tally = &tally{} // count only the measured phases
	runtime.GC()       // set-up garbage is not the measured phase's to collect

	var err error
	if traced {
		err = runTraced(w, r, inst, length, res)
	} else {
		err = runUntraced(w, inst, length, res, median(setups))
	}
	if err == nil {
		err = inst.verify()
	}
	if err == nil {
		err = checkReported(res.metrics, traced)
	}
	t := r.tally
	res.attempted, res.failed = t.attempted.Load(), t.failed()
	res.notef("outcomes: %d attempted, %d failed (quota %d, shard unavailable %d, fenced %d, other %d), %d expected fenced; fail_frac %.6f",
		res.attempted, res.failed, t.quota.Load(), t.unavailable.Load(), t.fenced.Load(), t.other.Load(),
		t.expectedFenced.Load(), ratio(float64(res.failed), float64(res.attempted)))
	if err == nil && res.failed > 0 {
		err = fmt.Errorf("%d of %d operations failed; first: %w", res.failed, res.attempted, t.firstErr())
	}
	if res.attempted == 0 && err == nil {
		err = errors.New("no operation attempted")
	}
	return res, err
}

// checkReported requires the run to report exactly the metrics
// BENCHMARK.json lists for its mode.
func checkReported(got map[string]metric, traced bool) error {
	want := endToEnd
	if traced {
		want = perLayer
	}
	if len(got) != len(want) {
		return fmt.Errorf("reported %d metrics, want %d", len(got), len(want))
	}
	for _, m := range want {
		if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
			return fmt.Errorf("metric %s (%s) not reported as listed", m.Name, m.Unit)
		}
	}
	return nil
}

// runUntraced measures the end-to-end metrics over one phase.
func runUntraced(w *workload, inst instance, length time.Duration, res *result, setup float64) error {
	before := readUsage()
	ph, err := inst.run(time.Now().Add(length), func() bool { return false })
	after := readUsage()
	if err != nil {
		return err
	}
	ph.describe(res, w.opName)
	if ph.ops == 0 {
		return errors.New("no operation completed")
	}
	res.notef("end-to-end: p90 has %d samples beyond it", beyond(ph.lat, percentile(ph.lat, 90)))
	res.set("p50_ms", "ms", percentile(ph.lat, 50))
	res.set("ops_per_s", "1/s", float64(ph.ops)/ph.elapsed.Seconds())
	res.set("cpu_ms_per_op", "ms", float64(after.cpu-before.cpu)/1e6/float64(ph.ops))
	res.set("setup_s", "s", setup)
	return nil
}

// runTraced measures an untraced half and a traced half on one build; the
// traced half's spans give the per-layer metrics, the untraced half's
// allocations and buffer-pool use give those metrics, and the two halves'
// ledger-op medians give the tracing overhead.
func runTraced(w *workload, r *rig, inst instance, length time.Duration, res *result) error {
	half := length / 2
	before := readUsage()
	plain, err := inst.run(time.Now().Add(half), func() bool { return false })
	after := readUsage()
	if err != nil {
		return err
	}
	if plain.ops == 0 {
		return errors.New("no operation completed in the untraced half")
	}
	snap := snapshotLayers(r.reg)
	r.tr.on.Store(true)
	ph, err := inst.run(time.Now().Add(length-half), r.tr.full)
	r.tr.on.Store(false)
	if err != nil {
		return err
	}
	ph.describe(res, w.opName)
	if ph.ops == 0 {
		return errors.New("no operation completed in the traced phase")
	}
	spans := r.tr.snapshot()
	ledgers, lerr := buildLedgers(spans)
	if path, werr := writeTrace(w.name, r.seed, r.tr); werr == nil {
		res.notef("trace: %d spans (%d dropped; %d verbs outside any op, such as a standby re-attach) written to %s", len(spans), r.tr.dropped, r.tr.unbound, path)
	} else {
		res.notef("trace: %d spans; writing them failed: %v", len(spans), werr)
	}
	if lerr != nil {
		return lerr
	}
	layerMetrics(res, w, ledgers, snap.delta(r.reg), ph, plain, after, before)
	plainP50, tracedP50 := percentile(w.ledgerLat(plain), 50), percentile(w.ledgerLat(ph), 50)
	res.set("trace.overhead_frac", "frac", ratio(tracedP50, plainP50)-1)
	res.notef("tracing overhead: %s p50 %.4f ms untraced, %.4f ms traced", opNames[w.ledgerOp], plainP50, tracedP50)
	return nil
}

// writeTrace writes the traced phase's spans under .bench_build/traces.
func writeTrace(name string, seed int64, tr *tracer) (string, error) {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.csv", name, seed))
	return path, tr.writeSpans(path)
}

// percentile returns the p-th percentile of xs (nearest rank on a sorted
// copy), or 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// beyond counts samples strictly above v.
func beyond(xs []float64, v float64) int {
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func fmtFloats(xs []float64, prec int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.*f", prec, x)
	}
	return strings.Join(parts, " ")
}
