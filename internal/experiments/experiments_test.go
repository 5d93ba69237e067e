package experiments

import (
	"crypto/sha256"
	"encoding/json"
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

	"avmon"
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

// hostBound reports whether a row's rendered tables carry host
// measurements (wall clock, RSS, a live deployment): such ids are run
// and smoke-checked like the rest, but never compared byte for byte.
// The catalogue says which: the host-measured sweep and the artifact
// writer that reads no sweep.
func hostBound(e experiment) bool {
	return e.artifact != "" && (e.sweep == nil || e.sweep.serial)
}

// runOne renders one experiment id alone.
func runOne(t *testing.T, id string, o Options) *Result {
	t.Helper()
	var res *Result
	if err := RunAll([]string{id}, o, func(r *Result) error { res = r; return nil }); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return res
}

// tinyAll is one RunAll of every deterministic id at tinyOptions and
// parallelism 8, shared by the tests that read it: the serial,
// single-shard renders they compare against, each simulated once.
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
		for _, e := range catalogue {
			if !hostBound(e) {
				ids = append(ids, e.id)
			}
		}
		o := tinyOptions()
		o.Parallelism = 8
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
	var selfRunning, artifactRows []string
	for _, e := range catalogue {
		readers := 0
		for _, set := range []bool{e.view != nil, e.report != nil, e.self != nil} {
			if set {
				readers++
			}
		}
		if readers != 1 || (e.self == nil) != (e.sweep != nil) {
			t.Errorf("%s: a row reads a sweep through one view or report, or runs itself", e.id)
		}
		if e.sweep != nil && (e.report != nil) != (e.artifact != "") {
			t.Errorf("%s: a sweep row has a report exactly when it names an artifact", e.id)
		}
		if e.self != nil {
			selfRunning = append(selfRunning, e.id)
		}
		if e.artifact != "" {
			artifactRows = append(artifactRows, e.id)
		}
	}
	// self is for what simulates no cluster through a sweep — and for
	// realnet's wall-clock arms.
	if want := []string{"ablation-consistency", "ablation-hash", "realnet"}; !reflect.DeepEqual(selfRunning, want) {
		t.Errorf("self-running rows = %v, want exactly %v", selfRunning, want)
	}
	// The rows "all" leaves out are read off the same table.
	if want := []string{"scale", "wan", "chaos", "realnet"}; !reflect.DeepEqual(artifactRows, want) {
		t.Errorf("rows that write an artifact = %v, want %v", artifactRows, want)
	}
	if err := RunAll([]string{"figure99"}, Options{}, nil); err == nil {
		t.Error("unknown experiment id accepted")
	}
}

// goldenPath pins the digest of every deterministic render at
// tinyOptions, one goldenLine each.
const goldenPath = "testdata/rendered.golden"

// goldenLine is the line goldenPath pins content under.
func goldenLine(name string, content []byte) string {
	return fmt.Sprintf("%s %x\n", name, sha256.Sum256(content))
}

func TestEveryExperimentRunsAtTinyScale(t *testing.T) {
	shared := runTinyAll(t)
	pinned, _ := os.ReadFile(goldenPath)
	var golden strings.Builder
	pin := func(t *testing.T, name string, content []byte, shown string) {
		line := goldenLine(name, content)
		golden.WriteString(line)
		if !*updateGolden && !strings.Contains(string(pinned), line) {
			t.Errorf("%s is not the one pinned in %s:\n%s", name, goldenPath, shown)
		}
	}
	for _, e := range catalogue {
		e := e
		t.Run(e.id, func(t *testing.T) {
			res := shared[e.id]
			if hostBound(e) {
				res = runOne(t, e.id, tinyOptions())
			}
			if res.ID != e.id {
				t.Errorf("result ID = %q, want %q", res.ID, e.id)
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
			if (e.artifact != "") != (len(res.Artifacts[e.artifact]) > 0) {
				t.Errorf("artifacts %v, the catalogue names %q", len(res.Artifacts), e.artifact)
			}
			if hostBound(e) {
				return
			}
			// Every other rendering is a pure function of Options, so
			// its digest is pinned: a PR that moves one says so by
			// rerunning with -update.
			pin(t, e.id, []byte(text), text)
		})
	}
	// So are the points of the artifacts the deterministic sweeps write,
	// outside the host's wall clock: an envelope or metric drift that
	// leaves the tables alone still moves a line here.
	for _, e := range catalogue {
		if e.artifact == "" || hostBound(e) {
			continue
		}
		e := e
		t.Run(e.artifact, func(t *testing.T) {
			var art struct {
				Points []map[string]any `json:"points"`
			}
			if err := json.Unmarshal(shared[e.id].Artifacts[e.artifact], &art); err != nil || len(art.Points) == 0 {
				t.Fatalf("artifact has no points (%v)", err)
			}
			for _, p := range art.Points {
				p["wall_seconds"], p["shard_busy_ns"] = 0, 0
			}
			points, err := json.Marshal(art.Points) // map keys marshal sorted
			if err != nil {
				t.Fatal(err)
			}
			pin(t, e.artifact+":points", points, "(its points; the tables above are pinned separately)")
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
// everything prints, for every id, the bytes it prints in a RunAll of
// just the ids that read its sweep — and a sweep several ids read is
// simulated once. Each distinct sweep is re-simulated once here, at two
// shards: the shared run is serial, so the same comparison holds every
// sweep to its sharded run (Options.Shards, avmon-bench -shards)
// printing the serial bytes.
func TestRunAllMatchesSingleRuns(t *testing.T) {
	shared := runTinyAll(t)
	wantPoints := 0
	ran := make(map[*sweep]bool)
	for _, e := range catalogue {
		if hostBound(e) || ran[e.sweep] {
			continue
		}
		ids := []string{e.id}
		if e.sweep != nil {
			ran[e.sweep] = true
			ids = ids[:0]
			for _, w := range catalogue {
				if w.sweep == e.sweep {
					ids = append(ids, w.id)
				}
			}
		}
		o := tinyOptions()
		o.Shards = 2
		o.Progress = func(done, total int, _ string) {
			if done == total {
				wantPoints += total
			}
		}
		err := RunAll(ids, o, func(alone *Result) error {
			if got, want := shared[alone.ID].String(), alone.String(); got != want {
				t.Errorf("%s renders differently under RunAll of everything\n--- all, serial ---\n%s\n--- its sweep alone, 2 shards ---\n%s",
					alone.ID, got, want)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%v alone: %v", ids, err)
		}
	}
	if tinyAll.points != wantPoints {
		t.Errorf("RunAll of everything simulated %d points, the distinct sweeps hold %d", tinyAll.points, wantPoints)
	}
}

// TestSharedViewsReadTheSameRun pins what lets Figures 3-5 and 11 share
// the hour-long runs of Figures 6-10 and 12: reading a finished run as of
// an instant inside its window (firstDiscoveriesAsOf) gives the samples
// and the missed count that a run stopped at that instant gives. A STAT
// run (an enrolled control group) and a SYNTH-BD run (late-born nodes,
// born ten times faster than Figure 5's so that a half-hour window has
// some) are stopped at several instants and read there, then finished
// and read as of each stop.
func TestSharedViewsReadTheSameRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	const n = 120
	window := 30 * time.Minute
	stops := []time.Duration{10 * time.Second, time.Minute, window / 4, window / 2, window}
	missedSome := false
	for _, kind := range []modelKind{modelSTAT, modelSYNTHBD} {
		model := avmon.NewSTATModel(n)
		if kind == modelSYNTHBD {
			model = mustModel(avmon.NewSYNTHBDModel(n, 0.2, 2))
		}
		c, err := avmon.NewCluster(avmon.ClusterConfig{N: n, Seed: 7}, model)
		if err != nil {
			t.Fatal(err)
		}
		c.Run(window)
		out := &outcome{c: c, warmupEnd: c.Elapsed()}
		if kind == modelSTAT {
			out.control = c.EnrollControl(n / 10)
		}
		type read struct {
			times  []time.Duration
			missed int
		}
		var atStop []read
		for _, stop := range stops {
			c.Run(out.warmupEnd + stop - c.Elapsed())
			times, missed := out.firstDiscoveries(out.controlOrLateBorn())
			atStop = append(atStop, read{times, missed})
		}
		moved := false
		for i, stop := range stops {
			times, missed := out.firstDiscoveriesAsOf(stop)
			if want := atStop[i]; !reflect.DeepEqual(times, want.times) || missed != want.missed {
				t.Errorf("%v: as of %v the finished run reads %v, %d missed; stopped there it read %v, %d missed",
					kind, stop, times, missed, want.times, want.missed)
			}
			missedSome = missedSome || missed > 0
			moved = moved || !reflect.DeepEqual(atStop[i], atStop[len(stops)-1])
		}
		if !moved {
			t.Errorf("%v: gate measured nothing: every stop read what the finished run reads, %v", kind, atStop)
		}
	}
	if !missedSome {
		t.Error("gate measured nothing: no stop had a node still undiscovered")
	}
}

// TestOptionsValidation: one valid Options, one field broken per
// subtest; every rejection wraps ErrInvalidOptions and happens before
// anything runs.
func TestOptionsValidation(t *testing.T) {
	valid := func() Options {
		return Options{Scale: 0.01, Seed: 7, Ns: []int{60, 120}, Parallelism: 2, Shards: 2}
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
		if err := RunAll([]string{id}, Options{Ns: []int{10}}, func(*Result) error { return nil }); !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("%s at N=10: err = %v, want one wrapping ErrInvalidOptions", id, err)
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
	kinds := []modelKind{modelSTAT, modelSYNTH, modelSYNTHBD, modelSYNTHBD2, modelPL, modelOV,
		modelFlappy, modelZoneOutage, modelStorm}
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
