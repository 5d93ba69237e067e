package experiments

import (
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// updateGolden rewrites testdata/rendered.golden from this run instead
// of comparing against it (run TestEveryExperimentRunsAtTinyScale
// unfiltered).
var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from this run")

// tinyOptions keeps every experiment fast enough for CI while still
// exercising the full pipeline.
func tinyOptions() Options {
	return Options{Scale: 0.01, Seed: 7, Ns: []int{60, 120}}
}

// hostBound are the ids whose rendered tables carry host measurements
// (wall clock, RSS, a live deployment): run and smoke-checked like the
// rest, but never compared byte for byte.
var hostBound = map[string]bool{"scale": true, "realnet": true}

// tinyAll is one RunAll of every deterministic id at tinyOptions,
// shared by the tests that read it.
var tinyAll struct {
	once    sync.Once
	results map[string]*Result
	points  int // summed over finished sweeps: how many points ran
	err     error
}

func runTinyAll(t *testing.T) map[string]*Result {
	t.Helper()
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	tinyAll.once.Do(func() {
		var ids []string
		for _, id := range IDs() {
			if !hostBound[id] {
				ids = append(ids, id)
			}
		}
		o := tinyOptions()
		o.Progress = func(done, total int, _ string) {
			if done == total {
				tinyAll.points += total
			}
		}
		tinyAll.results = make(map[string]*Result)
		tinyAll.err = RunAll(ids, o, func(r *Result) error {
			tinyAll.results[r.ID] = r
			return nil
		})
	})
	if tinyAll.err != nil {
		t.Fatal(tinyAll.err)
	}
	return tinyAll.results
}

func TestRegistryComplete(t *testing.T) {
	reg := Registry()
	want := []string{
		"table1", "figure3", "figure4", "figure5", "figure6", "figure7",
		"figure8", "figure9", "figure10", "figure11", "figure12",
		"figure13", "figure14", "figure15", "figure16", "figure17",
		"figure18", "figure19", "figure20",
		"ablation-reshuffle", "ablation-rejoin-weight",
		"ablation-forgetful", "ablation-consistency", "ablation-hash",
		"scale", "wan", "chaos", "realnet",
	}
	if got := IDs(); !reflect.DeepEqual(got, want) {
		t.Errorf("IDs() = %v, want paper order %v", got, want)
	}
	if len(reg) != len(want) {
		t.Errorf("registry has %d entries, want %d", len(reg), len(want))
	}
	for _, id := range want {
		if reg[id] == nil {
			t.Errorf("missing experiment %q", id)
		}
	}
	for _, e := range catalogue {
		if (e.self == nil) == (e.sweep == nil || e.view == nil) {
			t.Errorf("%s: a row either runs itself or reads a sweep through a view", e.id)
		}
	}
	if err := RunAll([]string{"figure99"}, Options{}, nil); err == nil {
		t.Error("unknown experiment id accepted")
	}
}

func TestEveryExperimentRunsAtTinyScale(t *testing.T) {
	shared := runTinyAll(t)
	const goldenPath = "testdata/rendered.golden"
	pinned, _ := os.ReadFile(goldenPath)
	var golden strings.Builder
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			res := shared[id]
			if hostBound[id] {
				var err error
				if res, err = Registry()[id](tinyOptions()); err != nil {
					t.Fatalf("%s failed: %v", id, err)
				}
			}
			if res.ID != id {
				t.Errorf("result ID = %q, want %q", res.ID, id)
			}
			if len(res.Tables) == 0 {
				t.Fatal("no tables produced")
			}
			text := res.String()
			if !strings.Contains(text, res.Title) {
				t.Error("rendered output missing title")
			}
			for _, tb := range res.Tables {
				if len(tb.Header) == 0 || len(tb.Rows) == 0 {
					t.Errorf("table %q empty", tb.Title)
				}
			}
			if hostBound[id] {
				return
			}
			// Every other rendering is a pure function of Options, so
			// its digest is pinned: a PR that moves one says so by
			// rerunning with -update.
			line := fmt.Sprintf("%s %x\n", id, sha256.Sum256([]byte(text)))
			golden.WriteString(line)
			if !*updateGolden && !strings.Contains(string(pinned), line) {
				t.Errorf("rendering is not the one pinned in %s:\n%s", goldenPath, text)
			}
		})
	}
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(golden.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRunAllMatchesSingleRuns is the catalogue's contract: what an id
// renders does not depend on what it is run with — one RunAll of
// everything prints, for every id, the bytes Registry()[id] prints
// alone — and a sweep several ids read is simulated once.
func TestRunAllMatchesSingleRuns(t *testing.T) {
	shared := runTinyAll(t)
	wantPoints := 0
	ran := make(map[*sweep]bool)
	for _, e := range catalogue {
		if hostBound[e.id] {
			continue
		}
		o := tinyOptions()
		points := 0
		o.Progress = func(done, total int, _ string) {
			if done == total {
				points += total
			}
		}
		alone, err := Registry()[e.id](o)
		if err != nil {
			t.Fatalf("%s alone: %v", e.id, err)
		}
		if got, want := shared[e.id].String(), alone.String(); got != want {
			t.Errorf("%s renders differently under RunAll of everything\n--- all ---\n%s\n--- alone ---\n%s",
				e.id, got, want)
		}
		if e.sweep == nil || !ran[e.sweep] {
			wantPoints += points
		}
		if e.sweep != nil {
			ran[e.sweep] = true
		}
	}
	if tinyAll.points != wantPoints {
		t.Errorf("RunAll of everything simulated %d points, the distinct sweeps hold %d", tinyAll.points, wantPoints)
	}
}

// TestSharedViewsReadTheSameRun pins what sharing a sweep is for: at a
// scale where the 45- and 60-minute windows coincide (both at the
// 10-minute floor), Figure 6's L = 1 cells and Figure 3's largest-N row
// are computed from the same first-monitor discovery samples. (With a
// private sweep per figure they were two realizations, printed as 0.12
// and 0.35 minutes for one quantity.)
func TestSharedViewsReadTheSameRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	o := tinyOptions().withDefaults()
	run := func(sw *sweep) []*outcome {
		outs, err := runAllPaired(o, sw.scens(o), sw.group)
		if err != nil {
			t.Fatal(err)
		}
		return outs
	}
	outs45, outs60 := run(synth45), run(synth60)
	fig3 := figure3(o, outs45)[0].Rows
	fig6 := figure6(o, outs60)[0].Rows
	for i, kind := range syntheticKinds {
		a, b := pick(outs45, kind, o.largestN()), pick(outs60, kind, o.largestN())
		samples, _ := a.firstDiscoveries(a.controlOrLateBorn())
		again, _ := b.firstDiscoveries(b.controlOrLateBorn())
		if !reflect.DeepEqual(samples, again) {
			t.Fatalf("%v: the two sweeps' discovery samples differ: %v vs %v", kind, samples, again)
		}
		if len(a.control) > 0 && len(samples) == 0 {
			t.Fatalf("%v: the enrolled control group discovered nothing", kind)
		}
		if got, want := fig6[0][1+i], f2(welford(in(time.Duration.Minutes, samples)).Mean()); got != want {
			t.Errorf("%v: figure6 L = 1 prints %s, the samples' mean is %s", kind, got, want)
		}
		if got, want := fig3[len(fig3)-1][1+i], f2(meanDiscoveryMinutes(samples)); got != want {
			t.Errorf("%v: figure3 prints %s, the samples' outlier-dropped mean is %s", kind, got, want)
		}
	}
}

// TestOptionsValidation: one valid Options, one field broken per
// subtest; every rejection wraps ErrInvalidOptions and happens before
// anything runs.
func TestOptionsValidation(t *testing.T) {
	valid := func() Options {
		return Options{Scale: 0.01, Seed: 7, Ns: []int{60, 120}, Parallelism: 2, Shards: 2,
			Chaos: []string{"collusion"}}
	}
	if err := valid().validate(); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	if err := (Options{}).validate(); err != nil {
		t.Fatalf("zero options (all defaults) rejected: %v", err)
	}
	for name, breakIt := range map[string]func(*Options){
		"negative scale":       func(o *Options) { o.Scale = -1 },
		"NaN scale":            func(o *Options) { o.Scale = math.NaN() },
		"infinite scale":       func(o *Options) { o.Scale = math.Inf(1) },
		"negative parallelism": func(o *Options) { o.Parallelism = -2 },
		"negative shards":      func(o *Options) { o.Shards = -3 },
		"zero N":               func(o *Options) { o.Ns = []int{60, 0} },
		"negative N":           func(o *Options) { o.Ns = []int{-5} },
		"duplicate N":          func(o *Options) { o.Ns = []int{60, 120, 60} },
		"unknown chaos name":   func(o *Options) { o.Chaos = []string{"collusion", "meteor-strike"} },
		"empty chaos name":     func(o *Options) { o.Chaos = []string{""} },
	} {
		breakIt := breakIt
		t.Run(name, func(t *testing.T) {
			o := valid()
			breakIt(&o)
			ran := false
			o.Progress = func(int, int, string) { ran = true }
			err := RunAll([]string{"figure3"}, o, func(*Result) error { ran = true; return nil })
			if !errors.Is(err, ErrInvalidOptions) {
				t.Errorf("err = %v, want one wrapping ErrInvalidOptions", err)
			}
			if ran {
				t.Error("a simulation ran under invalid options")
			}
		})
	}
	// The harnesses with a population floor reject under the same
	// sentinel.
	for _, id := range []string{"chaos", "realnet"} {
		if _, err := Registry()[id](Options{Ns: []int{10}}); !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("%s at N=10: err = %v, want one wrapping ErrInvalidOptions", id, err)
		}
	}
	// An unknown scenario's error is the discovery surface: it lists
	// every valid name.
	_, err := chaosSelect([]string{"meteor-strike"})
	for _, s := range ChaosScenarios() {
		if err == nil || !strings.Contains(err.Error(), s.Name) {
			t.Errorf("unknown-scenario error %v does not list %q", err, s.Name)
		}
	}
}

func TestScaledDurations(t *testing.T) {
	o := Options{Scale: 0.5}.withDefaults()
	if got := o.scaled(2*time.Hour, time.Minute); got != time.Hour {
		t.Errorf("scaled = %v, want 1h", got)
	}
	if got := o.scaled(time.Minute, 10*time.Minute); got != 10*time.Minute {
		t.Errorf("floor not applied: %v", got)
	}
	if def := (Options{}).withDefaults(); def.Scale != 1 || def.Seed != 1 {
		t.Errorf("defaults = %+v", def)
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Title: "demo", Header: []string{"col", "value"}}
	tb.AddRow("a", "1")
	tb.AddRow("longer-cell", "2")
	s := tb.String()
	if !strings.Contains(s, "## demo") || !strings.Contains(s, "longer-cell") {
		t.Errorf("rendered:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 4 {
		t.Errorf("rendered %d lines, want 4", len(lines))
	}
}

func TestMeanDiscoveryDropsOutlier(t *testing.T) {
	times := []time.Duration{time.Minute, time.Minute, 100 * time.Minute}
	if got := meanDiscoveryMinutes(times); got != 1 {
		t.Errorf("mean = %v, want 1 (outlier dropped)", got)
	}
	if got := meanDiscoveryMinutes(nil); got != 0 {
		t.Errorf("empty mean = %v", got)
	}
	// With ≤ 2 samples nothing is dropped.
	two := []time.Duration{time.Minute, 3 * time.Minute}
	if got := meanDiscoveryMinutes(two); got != 2 {
		t.Errorf("two-sample mean = %v, want 2", got)
	}
}

func TestModelKindStrings(t *testing.T) {
	kinds := []modelKind{modelSTAT, modelSYNTH, modelSYNTHBD, modelSYNTHBD2, modelPL, modelOV}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "?" || seen[s] {
			t.Errorf("kind %d stringifies to %q", k, s)
		}
		seen[s] = true
	}
	if modelKind(99).String() != "?" {
		t.Error("unknown kind not ?")
	}
}
