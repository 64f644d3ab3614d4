package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

// opSequence returns the first n operations a workload's generators draw
// for seed, encoded as integers, using the same constructors the workloads
// build their load from.
func opSequence(name string, seed int64, n int) []int64 {
	var next func() int64
	switch name {
	case "publish-warm", "serve-flip":
		cfg := publishWarm
		if name == "serve-flip" {
			cfg = serveFlip
		}
		gens := append(cfg.pickers(seed), cfg.execPicker(seed))
		k := 0
		next = func() int64 {
			k++
			return int64(gens[k%len(gens)]())
		}
	case "rollout-cold":
		var pre []int64
		pre = append(pre, rolloutSeeds(seed)...)
		plan := rolloutPlan(seed)
		next = func() int64 {
			if len(pre) > 0 {
				v := pre[0]
				pre = pre[1:]
				return v
			}
			b, imm := plan()
			return int64(b)<<32 | int64(uint32(imm))
		}
	case "failover":
		p := failoverPicker(seed)
		next = func() int64 { return int64(p()) }
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = next()
	}
	return out
}

func TestSeedDeterminesOperations(t *testing.T) {
	for _, w := range workloads {
		a, b := opSequence(w.name, 7, 500), opSequence(w.name, 7, 500)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different operation sequences", w.name)
		}
		if c := opSequence(w.name, 8, 500); reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same operation sequence", w.name)
		}
	}
}

// TestTracedCountsRepeat runs the traced publish-warm workload twice: the
// round-trip counts later changes claim against must be exact and equal
// across runs, and every publish's ledger must add up (runWorkload fails
// otherwise).
func TestTracedCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 128-node fleet twice")
	}
	t.Chdir(t.TempDir()) // trace files land under .bench_build here
	var runs []map[string]metric
	for i := 0; i < 2; i++ {
		res, err := runWorkload(findWorkload("publish-warm"), int64(3+i), 2*time.Second, true)
		if err != nil {
			t.Fatalf("traced run %d: %v", i, err)
		}
		runs = append(runs, res.metrics)
	}
	for _, name := range []string{"controlha.ha_verbs_per_publish", "core.node_verbs_per_op"} {
		a, b := runs[0][name].Value, runs[1][name].Value
		if a != b {
			t.Errorf("%s differs across traced runs: %v vs %v", name, a, b)
		}
	}
	if got := runs[0]["controlha.ha_verbs_per_publish"].Value; got != 5 {
		t.Errorf("controlha.ha_verbs_per_publish = %v, want 5 (1 fence READ + 4 journal-append verbs)", got)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's workloads and metric
// lists identical to what the benchmark runs and reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, benchmark %q: %q", i, spec.Workloads[i], w.name, w.why)
		}
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json differs from the benchmark's:\n%v\n%v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from the benchmark's:\n%v\n%v", spec.PerLayer, perLayer)
	}
}
