package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"avmon"
	"avmon/internal/ids"
)

// Toy sizes: the same code paths as the real workloads, small enough
// that the whole file runs in a few seconds. Nothing here asserts a
// time. The simulated window scales with --seconds: 100 minutes at the
// default 20 s is two minutes at the 0.4 s the tests run with.
var (
	toySim = simSpec{
		name: "toy_sim", n: 120, churn: true, hash: avmon.HashMD5, k: 7, cvs: 8,
		warmup: 2 * time.Minute, joiners: 10, window: 100 * time.Minute, setups: 1,
	}
	toyFleet = fleetSpec{
		name: "toy_fleet", base: 12, joiners: 4, n: 12, k: 4, cvs: 5,
		period: 20 * time.Millisecond, warmup: 6, setups: 1, timeout: 500 * time.Millisecond,
	}
)

func toyCached() fleetSpec {
	spec := toyFleet
	spec.name, spec.cacheEntries, spec.zipfS = "toy_cached", 4, 1.1
	return spec
}

func requireEndToEnd(t *testing.T, name string, res *result) {
	t.Helper()
	for _, v := range res.violations {
		t.Errorf("%s: output check failed: %s", name, v)
	}
	for _, d := range endToEnd {
		v, ok := res.metrics[d.name]
		if !ok {
			t.Errorf("%s: metric %s missing", name, d.name)
		} else if !(v > 0) {
			t.Errorf("%s: metric %s = %v, want a positive number", name, d.name, v)
		}
	}
	// The demoted speeds are measured by every run too: every one that
	// names this workload's kind (cluster.* on sims, service.* on fleets)
	// and the discovery median.
	kind := "cluster."
	if res.metrics["service.answers_per_s"] > 0 {
		kind = "service."
	}
	for k := range demoted {
		if strings.HasPrefix(k, kind) || strings.HasPrefix(k, "core.") {
			if !(res.metrics[k] > 0) {
				t.Errorf("%s: %s = %v, want a positive number", name, k, res.metrics[k])
			}
		}
	}
	if res.attempted < 1 {
		t.Errorf("%s: attempted = %d", name, res.attempted)
	}
}

func TestToyWorkloadsProduceEveryEndToEndMetric(t *testing.T) {
	stat := toySim
	stat.name, stat.churn, stat.hash = "toy_stat", false, avmon.HashFast
	for _, spec := range []simSpec{toySim, stat} {
		res, err := runSim(spec, runConfig{seed: 3, seconds: 0.4})
		if err != nil {
			t.Fatalf("%s: %v", spec.name, err)
		}
		requireEndToEnd(t, spec.name, res)
	}
	for _, spec := range []fleetSpec{toyFleet, toyCached()} {
		res, err := runFleet(spec, runConfig{seed: 3, seconds: 0.8})
		if err != nil {
			t.Fatalf("%s: %v", spec.name, err)
		}
		requireEndToEnd(t, spec.name, res)
	}
}

// The simulator's event, byte and hash-check totals (and the control
// group's discovery times) are a pure function of the seed.
func TestSimTotalsRepeatForASeed(t *testing.T) {
	run := func(seed int64) string {
		res, err := runSim(toySim, runConfig{seed: seed, seconds: 0.4})
		if err != nil {
			t.Fatal(err)
		}
		return res.fingerprint
	}
	a, b, c := run(5), run(5), run(6)
	if a != b {
		t.Errorf("same seed, different totals:\n%s\n%s", a, b)
	}
	if a == c {
		t.Errorf("seeds 5 and 6 gave identical totals: %s", a)
	}
}

// hitMissSequence replays calls batches of the cached workload's subject
// stream through a real AnswerCache, storing each batch's misses in
// subject order.
func hitMissSequence(spec fleetSpec, seed int64, calls int) string {
	stream := newSubjectStream(spec, seed)
	cache := avmon.NewAnswerCache(time.Hour, spec.cacheEntries)
	now := time.Now()
	batch := make([]ids.ID, querySubjects)
	var seq strings.Builder
	for c := 0; c < calls; c++ {
		stream.next(batch)
		var misses []ids.ID
		for _, s := range batch {
			if _, ok := cache.Get(s, now); ok {
				seq.WriteByte('h')
			} else {
				seq.WriteByte('m')
				misses = append(misses, s)
			}
		}
		for _, s := range misses {
			cache.Put(&avmon.AvailabilityReport{Subject: s}, now)
		}
	}
	return seq.String()
}

// The cached workload's subject stream, and therefore the hit/miss
// sequence it drives through an AnswerCache, is a pure function of the
// seed. (The live Service can differ from this replay by a few entries
// per epoch flush: QueryBatch stores one batch's answers in map order,
// so which of them survive a mid-batch flush is not fixed.)
func TestCachedHitMissSequenceRepeatsForASeed(t *testing.T) {
	spec := fleetCached
	a, b, c := hitMissSequence(spec, 5, 200), hitMissSequence(spec, 5, 200), hitMissSequence(spec, 6, 200)
	if a != b {
		t.Error("same seed, different hit/miss sequence")
	}
	if a == c {
		t.Error("seeds 5 and 6 gave the identical hit/miss sequence")
	}
	hits := strings.Count(a, "h")
	if hits == 0 || hits == len(a) {
		t.Errorf("replay has %d hits of %d lookups: the workload needs both", hits, len(a))
	}
}

// The traced pass prints every declared per-layer metric and nothing
// undeclared, writes its span file, and the spans of a sampled query
// hang together: transport spans name their service.query_batch parent
// and share its query ID.
func TestTracedPassProducesEveryLayerMetric(t *testing.T) {
	dir := t.TempDir()
	layers := replayLayers(3)
	declared := map[string]bool{}
	for _, d := range perLayer {
		declared[d.name] = true
	}
	check := func(name string, res *result) {
		for _, v := range res.violations {
			t.Errorf("%s: output check failed: %s", name, v)
		}
		for k := range res.metrics {
			if !declared[k] {
				// End-to-end values are computed in the traced pass too
				// (and not printed); anything else is a typo.
				isE2E := false
				for _, d := range endToEnd {
					isE2E = isE2E || d.name == k
				}
				if !isE2E {
					t.Errorf("%s: traced pass produced undeclared metric %q", name, k)
				}
			}
		}
		for k := range declared {
			if _, ok := res.metrics[k]; !ok {
				t.Errorf("%s: traced pass did not produce %q", name, k)
			}
		}
	}
	sim, err := runSim(toySim, runConfig{seed: 3, seconds: 0.4, trace: true, layers: layers})
	if err != nil {
		t.Fatal(err)
	}
	check("toy_sim", sim)
	for _, k := range []string{"cluster.run_ns_per_event", "hashing.related_md5_ns", "hashing.memo_hit_ratio", "core.handle_cvresp_ns_cvs48", "core.discovery_median_periods", "sim.events_per_node_period"} {
		if !(sim.metrics[k] > 0) {
			t.Errorf("toy_sim: %s = %v, want > 0", k, sim.metrics[k])
		}
	}
	if _, ok := sim.metrics["cluster.unattributed_ns_per_event"]; !ok {
		t.Error("toy_sim: cluster.unattributed_ns_per_event missing")
	}

	fl, err := runFleet(toyCached(), runConfig{seed: 3, seconds: 0.8, trace: true, layers: layers})
	if err != nil {
		t.Fatal(err)
	}
	check("toy_cached", fl)
	for _, k := range []string{"service.handle_ns", "service.handle_availbatch_ns", "memnet.datagrams_per_node_period", "querycache.hit_ratio", "querycache.hit_answers_per_s", "memnet.hop_us"} {
		if !(fl.metrics[k] > 0) {
			t.Errorf("toy_cached: %s = %v, want > 0", k, fl.metrics[k])
		}
	}

	path, err := fl.trace.write(dir, "toy_cached", manifest{Workload: "toy_cached", Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	readJSON(t, path, &tf)
	queries := map[int64]int64{} // query ID → span ID of its service.query_batch
	for _, s := range tf.Spans {
		if s.Name == "service.query_batch" {
			queries[s.Query] = s.ID
		}
	}
	if len(queries) == 0 {
		t.Fatal("no service.query_batch span in the trace")
	}
	children := 0
	for _, s := range tf.Spans {
		if s.Name != "transport.send" && s.Name != "transport.handle" {
			continue
		}
		children++
		if parent, ok := queries[s.Query]; !ok || parent != s.Parent {
			t.Fatalf("span %d (%s) has parent %d, query %d: no such service.query_batch", s.ID, s.Name, s.Parent, s.Query)
		}
		if s.End < s.Start {
			t.Fatalf("span %d ends before it starts", s.ID)
		}
	}
	if children == 0 {
		t.Error("sampled queries have no transport spans")
	}
}

// The command-line surface the accepting driver uses: long flags with
// separate values, and a result line with exactly the contract's keys.
func TestResultLineShape(t *testing.T) {
	res := &result{metrics: map[string]float64{}, attempted: 10}
	for i, d := range endToEnd {
		res.metrics[d.name] = float64(i) + 0.5
	}
	var out, errOut bytes.Buffer
	if code := report("w", runConfig{}, manifest{}, res, &out, &errOut); code != 0 {
		t.Fatalf("report exit code %d, stderr %q", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := got[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(got) != 4 {
		t.Errorf("result line has %d keys, want exactly 4", len(got))
	}
	if !strings.HasPrefix(lines[0], "manifest ") {
		t.Errorf("first line is not the manifest: %q", lines[0])
	}

	res.violate("something is wrong")
	if code := report("w", runConfig{}, manifest{}, res, &out, &errOut); code == 0 {
		t.Error("an output-check violation must exit non-zero")
	}
	if code := realMain([]string{"--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"}, &out, &errOut); code == 0 {
		t.Error("an unknown workload must exit non-zero")
	}
}
