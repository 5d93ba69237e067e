package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"avmon/internal/experiments"
)

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatalf("-list failed: %v", err)
	}
	// `-run list` is an alias for -list, not an unknown experiment.
	if err := run([]string{"-run", "list"}); err != nil {
		t.Fatalf("-run list failed: %v", err)
	}
}

func TestRunRequiresID(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("missing -run accepted")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-run", "figure99"}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunBadNs(t *testing.T) {
	if err := run([]string{"-run", "figure3", "-ns", "abc"}); err == nil {
		t.Error("bad -ns accepted")
	}
	if err := run([]string{"-run", "figure3", "-ns", "0"}); err == nil {
		t.Error("non-positive -ns accepted")
	}
}

func TestParseChaos(t *testing.T) {
	names := experiments.ChaosScenarioNames()
	for _, arg := range []string{"", "  ", names[0], strings.Join(names, ","),
		" " + names[0] + " , " + names[len(names)-1]} {
		if _, err := parseChaos(arg); err != nil {
			t.Errorf("parseChaos(%q) failed: %v", arg, err)
		}
	}
	if got, _ := parseChaos(""); got != nil {
		t.Error("empty -chaos should select all scenarios (nil)")
	}
}

func TestRunBadChaos(t *testing.T) {
	err := run([]string{"-run", "chaos", "-chaos", "meteor-strike"})
	if err == nil {
		t.Fatal("unknown -chaos scenario accepted")
	}
	// The error is the discovery surface: it must name every valid
	// scenario.
	for _, name := range experiments.ChaosScenarioNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("-chaos error %q does not list valid scenario %q", err, name)
		}
	}
	if err := run([]string{"-run", "chaos", "-chaos", "collusion,,zone-outage"}); err == nil {
		t.Error("empty entry in -chaos list accepted")
	}
}

func TestRunTinyExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	if err := run([]string{"-run", "figure9", "-scale", "0.01", "-ns", "50"}); err != nil {
		t.Fatalf("tiny figure9 run failed: %v", err)
	}
}

func TestRunParallelWithProgress(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	args := []string{"-run", "figure3", "-scale", "0.01", "-ns", "50,60", "-parallel", "4", "-progress"}
	if err := run(args); err != nil {
		t.Fatalf("parallel figure3 run failed: %v", err)
	}
}

func TestRunShardedWithProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	args := []string{"-run", "figure9", "-scale", "0.01", "-ns", "50", "-shards", "2",
		"-cpuprofile", cpu, "-memprofile", mem, "-outdir", dir}
	if err := run(args); err != nil {
		t.Fatalf("sharded figure9 run failed: %v", err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s not written: %v", p, err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

func TestRunBadProfilePath(t *testing.T) {
	if err := run([]string{"-run", "figure9", "-cpuprofile", "/nonexistent/dir/cpu.pprof"}); err == nil {
		t.Error("unwritable -cpuprofile accepted")
	}
}
