package main

import (
	"errors"
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

// TestRunRejectsBadInputBeforeRunning: each of these used to start
// simulating — "40x,5e1" as N = 40 and N = 5, the negative counts as
// given, -scale -1 as paper scale.
func TestRunRejectsBadInputBeforeRunning(t *testing.T) {
	for _, args := range [][]string{
		{"-ns", "40x,5e1"},
		{"-shards", "-3", "-parallel", "-2"},
		{"-scale", "-1"},
		{"-ns", "40,40"},
	} {
		err := run(append([]string{"-run", "figure3", "-scale", "0.01", "-ns", "40"}, args...))
		if err == nil {
			t.Errorf("%v accepted", args)
		} else if args[0] != "-ns" && !errors.Is(err, experiments.ErrInvalidOptions) {
			t.Errorf("%v: err = %v, want one wrapping ErrInvalidOptions", args, err)
		}
	}
}

// TestRunSingleSizeEdgeView: with one swept size the "smallest" and
// "largest" N of a CDF figure are one N, so it prints one table (it
// used to print two same-titled tables from two different runs).
func TestRunSingleSizeEdgeView(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = out
	err = run([]string{"-run", "figure4", "-scale", "0.01", "-ns", "40"})
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}
	printed, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(printed), "## STAT, N = 40"); got != 1 {
		t.Errorf("figure4 at one size printed %d tables, want 1:\n%s", got, printed)
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
