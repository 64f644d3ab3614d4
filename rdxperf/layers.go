package main

import (
	"context"
	"fmt"
	"time"

	"rdx/internal/controlha"
	"rdx/internal/node"
	"rdx/internal/rdma"
	"rdx/internal/telemetry"
)

// metricSpec names one reported metric. BENCHMARK.json lists the same
// metrics; the package test keeps the two in step.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics an untraced run reports, for every workload.
// The op is the workload's primary operation: a publish on publish-warm, a
// rollout on rollout-cold, a hook execution on serve-flip and a takeover
// on failover. Tail percentiles are printed but not reported: on a shared
// host their spread across seeds exceeds any bound the benchmark may set.
var endToEnd = []metricSpec{
	{"p50_ms", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are the metrics a traced run reports, for every workload; a
// layer the workload does not exercise reports 0.
var perLayer = func() []metricSpec {
	specs := []metricSpec{
		{"shard.queue_wait_ms", "ms", "lower"},
		{"shard.exec_ms", "ms", "lower"},
		{"shard.router_us", "us", "lower"},
		{"shard.publish_p50_ms", "ms", "lower"},
		{"shard.publishes_per_s", "1/s", "higher"},
		{"controlha.ha_verbs_per_publish", "count", "lower"},
		{"controlha.ha_verb_ms", "ms", "lower"},
		{"controlha.fence_check_ms", "ms", "lower"},
		{"controlha.journal_append_ms", "ms", "lower"},
		{"controlha.journal_appends_per_publish", "count", "lower"},
		{"controlha.journal_bytes_per_publish", "B", "lower"},
		{"controlha.takeover_verbs", "count", "lower"},
		{"controlha.replay_ms", "ms", "lower"},
		{"core.node_verbs_per_op", "count", "lower"},
	}
	for _, v := range verbNames {
		specs = append(specs, metricSpec{"core.node_verbs_per_op." + v, "count", "lower"})
	}
	return append(specs, []metricSpec{
		{"core.node_verb_us", "us", "lower"},
		{"core.bytes_out_per_op", "B", "lower"},
		{"artifact.hit_ratio", "frac", "higher"},
		{"artifact.lookups_per_op", "count", "lower"},
		{"pipeline.validate_ms", "ms", "lower"},
		{"pipeline.jit_ms", "ms", "lower"},
		{"pipeline.link_ms", "ms", "lower"},
		{"pipeline.write_ms", "ms", "lower"},
		{"pipeline.stage_fanout_ms", "ms", "lower"},
		{"pipeline.publish_ms", "ms", "lower"},
		{"rdma.pool_hit_ratio", "frac", "higher"},
		{"rdma.frames_per_poll", "count", "higher"},
		{"rdma.allocs_per_op", "count", "lower"},
		{"node.exec_us", "us", "lower"},
		{"ledger.residue_frac", "frac", "lower"},
		{"trace.overhead_frac", "frac", "lower"},
	}...)
}()

// Registry instruments the traced phase reads as deltas.
var (
	layerHists = []string{
		"shard.0.queue.wait",
		"pipeline.span.validate", "pipeline.span.jit", "pipeline.span.link",
		"pipeline.span.write", "pipeline.span.stage_fanout", "pipeline.span.publish",
		"rdma.wire.frames_per_poll",
	}
	layerCounters = []string{"artifact.cache.hit", "artifact.cache.miss"}
)

// layerSnap holds registry totals at one instant.
type layerSnap struct {
	count, sum map[string]float64
	counters   map[string]float64
}

func snapshotLayers(reg *telemetry.Registry) layerSnap {
	s := layerSnap{count: map[string]float64{}, sum: map[string]float64{}, counters: map[string]float64{}}
	for _, n := range layerHists {
		h := reg.Histogram(n)
		s.count[n], s.sum[n] = float64(h.Count()), float64(h.Sum())
	}
	for _, n := range layerCounters {
		s.counters[n] = float64(reg.Counter(n).Value())
	}
	return s
}

// delta returns the registry's change since s.
func (s layerSnap) delta(reg *telemetry.Registry) layerSnap {
	now := snapshotLayers(reg)
	for n := range now.count {
		now.count[n] -= s.count[n]
		now.sum[n] -= s.sum[n]
	}
	for n := range now.counters {
		now.counters[n] -= s.counters[n]
	}
	return now
}

// mean is a histogram's mean over the delta (0 when nothing was recorded).
func (s layerSnap) mean(name string) float64 { return ratio(s.sum[name], s.count[name]) }

// layerMetrics turns the traced phase's ledgers and registry deltas into
// the per-layer metrics. The allocation and buffer-pool figures come from
// the untraced phase plain and its usage delta, so the tracer's own
// allocations stay out of them.
func layerMetrics(res *result, w *workload, ledgers []opLedger, d layerSnap, ph, plain phase, after, before usage) {
	ms := func(ns float64) float64 { return ns / 1e6 }
	lt := sumLedgers(ledgers, w.ledgerOp)
	pub := sumLedgers(ledgers, opPublish)
	tko := sumLedgers(ledgers, opTakeover)
	var haBusy, haCount float64
	for _, k := range []uint8{opPublish, opRollout, opTakeover, opProbe} {
		t := sumLedgers(ledgers, k)
		haBusy += float64(t.haBusy)
		haCount += float64(t.haCount)
	}
	queue := d.mean("shard.0.queue.wait")
	res.set("shard.queue_wait_ms", "ms", ms(queue))
	res.set("shard.exec_ms", "ms", ms(lt.per(float64(lt.exec))))
	router := 0.0
	if lt.exec > 0 {
		router = (lt.per(float64(lt.shard)) - queue) / 1e3
	}
	res.set("shard.router_us", "us", router)
	res.set("shard.publish_p50_ms", "ms", percentile(ph.series["publish"], 50))
	res.set("shard.publishes_per_s", "1/s", float64(len(ph.series["publish"]))/ph.elapsed.Seconds())
	res.set("controlha.ha_verbs_per_publish", "count", pub.per(float64(pub.haCount)))
	res.set("controlha.ha_verb_ms", "ms", ms(ratio(haBusy, haCount)))
	res.set("controlha.fence_check_ms", "ms", ms(pub.per(float64(pub.fence))))
	res.set("controlha.journal_append_ms", "ms", ms(pub.per(float64(pub.journal))))
	res.set("controlha.journal_appends_per_publish", "count", pub.per(float64(pub.journalAppends)))
	res.set("controlha.journal_bytes_per_publish", "B", pub.per(float64(pub.journalBytes)))
	res.set("controlha.takeover_verbs", "count", tko.per(float64(tko.haCount)))
	res.set("controlha.replay_ms", "ms", percentile(ph.series["replay"], 50))
	res.set("core.node_verbs_per_op", "count", lt.per(float64(lt.nodeVerbCount())))
	for k, v := range verbNames {
		res.set("core.node_verbs_per_op."+v, "count", lt.per(float64(lt.nodeCount[k])))
	}
	res.set("core.node_verb_us", "us", ratio(float64(lt.nodeBusy), float64(lt.nodeVerbCount()))/1e3)
	res.set("core.bytes_out_per_op", "B", lt.per(float64(lt.nodeBytes)))
	hits, misses := d.counters["artifact.cache.hit"], d.counters["artifact.cache.miss"]
	hitRatio := 1.0 // no lookup at all: every deploy skipped the cache (commit-only path)
	if hits+misses > 0 {
		hitRatio = hits / (hits + misses)
	}
	res.set("artifact.hit_ratio", "frac", hitRatio)
	res.set("artifact.lookups_per_op", "count", ratio(hits+misses, float64(ph.ops)))
	for _, p := range []struct{ metric, hist string }{
		{"pipeline.validate_ms", "pipeline.span.validate"},
		{"pipeline.jit_ms", "pipeline.span.jit"},
		{"pipeline.link_ms", "pipeline.span.link"},
		{"pipeline.write_ms", "pipeline.span.write"},
		{"pipeline.stage_fanout_ms", "pipeline.span.stage_fanout"},
		{"pipeline.publish_ms", "pipeline.span.publish"},
	} {
		res.set(p.metric, "ms", ms(d.mean(p.hist)))
	}
	res.set("rdma.pool_hit_ratio", "frac", after.pool.Delta(before.pool).HitRate())
	res.set("rdma.frames_per_poll", "count", d.mean("rdma.wire.frames_per_poll"))
	res.set("rdma.allocs_per_op", "count", float64(after.mallocs-before.mallocs)/float64(plain.ops))
	res.set("node.exec_us", "us", percentile(ph.series["exec"], 50)*1e3)
	res.set("ledger.residue_frac", "frac", ratio(float64(lt.residue), float64(lt.e2e)))

	res.notef("ledger over %d ops of kind %s (mean ms): shard %.4f (queue wait %.4f) | fence %.4f | journal %.4f | node verbs %.4f | other HA verbs %.4f | residue %.4f | = end-to-end %.4f",
		lt.n, opNames[w.ledgerOp], ms(lt.per(float64(lt.shard))), ms(queue), ms(lt.per(float64(lt.fence))),
		ms(lt.per(float64(lt.journal))), ms(lt.per(float64(lt.nodeVerbs))), ms(lt.per(float64(lt.haVerbs))),
		ms(lt.per(float64(lt.residue))), ms(lt.per(float64(lt.e2e))))
	res.notef("round trips per %s: %.2f node verbs, %.2f HA verbs (%.2f fence checks, %.2f journal appends)",
		opNames[w.ledgerOp], lt.per(float64(lt.nodeVerbCount())), lt.per(float64(lt.haCount)),
		lt.per(float64(lt.fenceChecks)), lt.per(float64(lt.journalAppends)))
}

// haModel is the standby link of `rdxbench serve`: a pure-sleep 100 µs
// round trip per verb.
func haModel() *rdma.LatencyModel {
	return &rdma.LatencyModel{Base: 100 * time.Microsecond, BytesPerSec: 3.125e9, SpinTail: -1}
}

func describeLatency(m *rdma.LatencyModel) string {
	switch {
	case m == nil:
		return "absent (HA off)"
	case m.Base == 0 && m.BytesPerSec == 0:
		return "NoLatency"
	}
	return fmt.Sprintf("Base %v, %.4g B/s, SpinTail %v", m.Base, m.BytesPerSec, m.SpinTail)
}

// calibration is what the host and links actually deliver.
type calibration struct {
	sleepMs    float64 // time.Sleep of the HA model's Base, p50
	haVerbMs   float64 // one READ over the HA link model, p50
	nodeVerbUs float64 // one READ over the node link model, p50
}

// calibrate measures the sleep quantum at the HA model's Base and one READ
// round trip on each link model, on a private fabric.
func calibrate(ha, nodeLat *rdma.LatencyModel) calibration {
	var c calibration
	sl := make([]float64, 0, 30)
	for i := 0; i < 30; i++ {
		t0 := time.Now()
		time.Sleep(ha.Base)
		sl = append(sl, float64(time.Since(t0))/1e6)
	}
	c.sleepMs = median(sl)
	fab := rdma.NewFabric()
	if host, err := controlha.NewHostWith(1<<12, ha); err == nil {
		defer host.Close()
		if l, err := fab.Listen("calib-ha"); err == nil {
			go host.Serve(l)
			c.haVerbMs = readLatency(fab, "calib-ha", 30) / 1e6
		}
	}
	if n, err := node.New(node.Config{ID: "calib-node", Hooks: []string{hookName}, Cores: 1, Latency: nodeLat}); err == nil {
		defer n.Close()
		if l, err := fab.Listen("calib-node"); err == nil {
			go n.Serve(l)
			c.nodeVerbUs = readLatency(fab, "calib-node", 300) / 1e3
		}
	}
	return c
}

// readLatency returns the median ns of count 8-byte READs against the
// first MR the named endpoint exposes (0 if it cannot be reached).
func readLatency(fab *rdma.Fabric, name string, count int) float64 {
	qp, err := fab.DialQP(name)
	if err != nil {
		return 0
	}
	defer qp.Close()
	mrs, err := qp.QueryMRs()
	if err != nil || len(mrs) == 0 {
		return 0
	}
	lat := make([]float64, 0, count)
	for i := 0; i < count; i++ {
		t0 := time.Now()
		if _, err := qp.ReadCtx(context.Background(), mrs[0].RKey, mrs[0].Addr, 8); err != nil {
			return 0
		}
		lat = append(lat, float64(time.Since(t0)))
	}
	return median(lat)
}
