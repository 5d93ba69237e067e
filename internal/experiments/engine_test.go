package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
)

func TestDeriveSeed(t *testing.T) {
	seen := make(map[int64]bool)
	for _, base := range []int64{0, 1, 7, -3} {
		for idx := 0; idx < 500; idx++ {
			s := deriveSeed(base, idx)
			if seen[s] {
				t.Fatalf("collision at base=%d idx=%d", base, idx)
			}
			seen[s] = true
			if s2 := deriveSeed(base, idx); s2 != s {
				t.Fatalf("deriveSeed not stable: %d vs %d", s, s2)
			}
		}
	}
}

func TestParallelismResolution(t *testing.T) {
	if got := (Options{}).parallelism(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("default parallelism = %d, want GOMAXPROCS = %d", got, runtime.GOMAXPROCS(0))
	}
	if got := (Options{Parallelism: 3}).parallelism(); got != 3 {
		t.Errorf("explicit parallelism = %d, want 3", got)
	}
}

func TestForEachPointRunsAllAndReportsProgress(t *testing.T) {
	const total = 17
	ran := make([]bool, total)
	var events []string
	lastDone := 0
	o := Options{
		Parallelism: 4,
		Progress: func(done, tot int, label string) {
			if tot != total {
				t.Errorf("total = %d, want %d", tot, total)
			}
			if done != lastDone+1 {
				t.Errorf("done = %d after %d; progress not serialized", done, lastDone)
			}
			lastDone = done
			events = append(events, label)
		},
	}
	err := forEachPoint(o, total,
		func(i int) string { return fmt.Sprintf("point-%d", i) },
		func(i int) error { ran[i] = true; return nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range ran {
		if !r {
			t.Errorf("point %d never ran", i)
		}
	}
	if lastDone != total || len(events) != total {
		t.Errorf("progress ended at %d with %d events, want %d", lastDone, len(events), total)
	}
}

func TestForEachPointReturnsLowestIndexError(t *testing.T) {
	errLow, errHigh := errors.New("low"), errors.New("high")
	fail37 := func(i int) error {
		switch i {
		case 3:
			return errLow
		case 7:
			return errHigh
		}
		return nil
	}
	// Serial: point 7 is never dispatched after 3 fails, so the
	// lowest-index failure is returned deterministically.
	err := forEachPoint(Options{Parallelism: 1}, 10, func(int) string { return "" }, fail37)
	if err != errLow {
		t.Errorf("serial err = %v, want the lowest-index failure %v", err, errLow)
	}
	// Parallel: which in-flight points still ran can vary, but an
	// error return is guaranteed.
	err = forEachPoint(Options{Parallelism: 8}, 10, func(int) string { return "" }, fail37)
	if err != errLow && err != errHigh {
		t.Errorf("parallel err = %v, want a recorded failure", err)
	}
	if err := forEachPoint(Options{Parallelism: 8}, 0, nil, nil); err != nil {
		t.Errorf("empty sweep errored: %v", err)
	}
}

func TestForEachPointStopsDispatchAfterFailure(t *testing.T) {
	errBoom := errors.New("boom")
	ran := make([]bool, 10)
	err := forEachPoint(Options{Parallelism: 1}, len(ran),
		func(i int) string { return "" },
		func(i int) error {
			ran[i] = true
			if i == 2 {
				return errBoom
			}
			return nil
		})
	if err != errBoom {
		t.Errorf("err = %v, want %v", err, errBoom)
	}
	// With one worker, the point after the failure may already be in
	// the channel, but nothing beyond it may be dispatched.
	for i := 4; i < len(ran); i++ {
		if ran[i] {
			t.Errorf("point %d dispatched after failure at point 2", i)
		}
	}
}

// TestRunAllPairedSharesRealization checks the common-random-numbers
// contract: points in one seed group run against the same churn
// realization, while ungrouped points get independent draws.
func TestRunAllPairedSharesRealization(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	o := Options{Scale: 0.01, Seed: 3, Parallelism: 2}.withDefaults()
	s := synthScenario(o, modelSYNTH, 40, 0)
	totalChecks := func(out *outcome) uint64 {
		var sum uint64
		for i := 0; i < out.c.Size(); i++ {
			sum += out.c.Stats(i).HashChecks
		}
		return sum
	}
	two := func(Options) []scenario { return []scenario{s, s} }
	paired, err := runAllPaired(o, &sweep{scens: two, group: oneRealization})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := totalChecks(paired[0]), totalChecks(paired[1]); a != b {
		t.Errorf("paired points diverged: %d vs %d hash checks", a, b)
	}
	unpaired, err := runAllPaired(o, &sweep{scens: two})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := totalChecks(unpaired[0]), totalChecks(unpaired[1]); a == b {
		t.Errorf("unpaired points identical (%d checks); seeds not independent", a)
	}
}

// TestParallelMatchesSerial is the engine's core guarantee: a parallel
// run of an experiment produces output byte-identical to a serial run
// with the same Options, because every sweep point derives its seed
// from (Seed, point index) rather than from scheduling. The shared run
// is the parallel one (parallelism 8).
func TestParallelMatchesSerial(t *testing.T) {
	shared := runTinyAll(t)
	for _, id := range []string{"table1", "figure3", "figure8"} {
		id := id
		t.Run(id, func(t *testing.T) {
			o := tinyOptions()
			o.Parallelism = 1
			if serial, parallel := runOne(t, id, o).String(), shared[id].String(); serial != parallel {
				t.Errorf("%s: parallel output differs from serial\n--- serial ---\n%s\n--- parallel ---\n%s",
					id, serial, parallel)
			}
		})
	}
}

// TestShardedSweepMatchesSerial is the same guarantee one level down:
// sharding a single simulation run across P engine shards
// (Options.Shards, avmon-bench -shards) changes nothing about an
// experiment's rendered output. TestRunAllMatchesSingleRuns holds every
// sweep at two shards; here the paper's headline table and figures and
// the two harnesses with the most random streams run at eight, each
// render held to the serial digest rendered.golden pins. The wan
// experiment covers the heterogeneous latency/loss models, whose
// sharded runs use each model's MinLatency floor as the adaptive
// lookahead; chaos covers the adversarial suite (the collusion
// adversary, zone-outage events, storm shocks) plus its stepped RunFor
// sampling loop.
func TestShardedSweepMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	pinned, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"table1", "figure3", "figure8", "wan", "chaos"} {
		id := id
		t.Run(id, func(t *testing.T) {
			o := tinyOptions()
			o.Shards = 8
			res := runOne(t, id, o)
			if !strings.Contains(string(pinned), goldenLine(id, []byte(res.String()))) {
				t.Errorf("%s: output at shards=8 is not the serial render %s pins:\n%s", id, goldenPath, res)
			}
		})
	}
}

// TestScaleShardedSpeedupColumns checks the scale experiment's sharded
// rerun: the in-sweep serial/sharded equality assertion passes and the
// artifact carries the speedup fields.
func TestScaleShardedSpeedupColumns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	o := tinyOptions()
	o.Shards = 2
	res := runOne(t, "scale", o)
	data, ok := res.Artifacts[ScaleArtifactName]
	if !ok {
		t.Fatal("scale artifact missing")
	}
	var art struct {
		Host struct {
			HostCores int `json:"host_cores"`
		} `json:"host"`
		Points []struct {
			Shards             int     `json:"shards"`
			WallSecondsSharded float64 `json:"wall_seconds_sharded"`
			Speedup            float64 `json:"speedup"`
		} `json:"points"`
	}
	if err := json.Unmarshal(data, &art); err != nil {
		t.Fatalf("artifact not valid JSON: %v", err)
	}
	if art.Host.HostCores < 1 {
		t.Errorf("host_cores = %d", art.Host.HostCores)
	}
	for i, p := range art.Points {
		if p.Shards != 2 {
			t.Errorf("point %d: shards = %d, want 2", i, p.Shards)
		}
		if p.WallSecondsSharded <= 0 || p.Speedup <= 0 {
			t.Errorf("point %d: wall_seconds_sharded = %v, speedup = %v", i, p.WallSecondsSharded, p.Speedup)
		}
	}
}

// TestFingerprintGateCanFail shows the engine's one gate rejecting
// something: a twin that differs from its original by one option fails
// the sweep with both points named, whether the pair runs serially or
// side by side — and the same twin passes once the difference is only
// that it runs in steps, on the seed it inherits.
func TestFingerprintGateCanFail(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	published := synthScenario(Options{Scale: 0.01}, modelSTAT, 40, 0)
	published.label = "as-published"
	twin := published
	twin.twin, twin.samples, twin.label = 1, 5, "stepped-twin"
	pair := func(b scenario) *sweep {
		return &sweep{name: "gate", scens: func(Options) []scenario { return []scenario{published, b} }}
	}
	for _, parallelism := range []int{1, 2} {
		o := Options{Seed: 3, Parallelism: parallelism}.withDefaults()
		outs, err := runAllPaired(o, pair(twin))
		if err != nil {
			t.Fatalf("parallelism %d: an identical twin was rejected: %v", parallelism, err)
		}
		if outs[0].s.seed != outs[1].s.seed || len(outs[1].fill) != 5 {
			t.Errorf("parallelism %d: twin ran on seed %d (original %d) with %d samples",
				parallelism, outs[1].s.seed, outs[0].s.seed, len(outs[1].fill))
		}
		frozen := twin
		frozen.opts.DisableReshuffle = true
		_, err = runAllPaired(o, pair(frozen))
		if err == nil {
			t.Fatalf("parallelism %d: a twin with the reshuffle off passed the gate", parallelism)
		}
		for _, name := range []string{"gate as-published", "gate stepped-twin", "fingerprint"} {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("parallelism %d: gate error %q does not mention %q", parallelism, err, name)
			}
		}
	}
}
