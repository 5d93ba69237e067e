// Command avmon-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	avmon-bench -list               (or: -run list)
//	avmon-bench -run figure3 -scale 1.0 -seed 1
//	avmon-bench -run all -scale 0.1 > results.txt
//	avmon-bench -run all -scale 1.0 -progress -parallel 8
//	avmon-bench -run scale -shards 8 -cpuprofile scale.pprof
//	avmon-bench -run wan -shards 2
//
// Scale 1.0 approximates the paper's methodology (hour-scale warm-up
// and multi-hour measurement windows); smaller scales shrink the
// simulated horizon proportionally, with floors that keep results
// meaningful. The paper reads several figures off one experiment set,
// and so does -run all: it simulates each set (sweep) once, prints
// every table and figure that reads it, in paper order, and a figure
// run alone prints the same bytes as it does under all. Sweep points
// run concurrently (-parallel, default GOMAXPROCS); output is
// byte-identical at any parallelism because every point derives its
// own seed from -seed and its position in its sweep. Invalid options
// (a negative -scale, -parallel or -shards, a malformed, non-positive
// or repeated -ns entry) are rejected before anything runs. The ids
// that write a checked-in BENCH_*.json (scale, wan, chaos, realnet)
// are not part of all: run each by name, deliberately scaled.
// Independently, -shards partitions each single simulation across P
// engine shards (conservative parallel discrete-event simulation);
// output is byte-identical at any shard count, so -shards is purely a
// wall-clock knob — the scale experiment additionally reruns each
// point sharded and records the measured speedup in BENCH_scale.json.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"avmon/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "avmon-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("avmon-bench", flag.ContinueOnError)
	var (
		list     = fs.Bool("list", false, "list experiment IDs and exit")
		runID    = fs.String("run", "", "experiment ID to run, or 'all'")
		scale    = fs.Float64("scale", 1.0, "duration scale factor (1.0 = paper-scale)")
		seed     = fs.Int64("seed", 1, "simulation seed")
		ns       = fs.String("ns", "", "comma-separated N sweep override (e.g. 100,500,1000,2000)")
		parallel = fs.Int("parallel", 0, "concurrent sweep points per experiment (0 = GOMAXPROCS; results are identical at any setting)")
		shards   = fs.Int("shards", 0, "parallel engine shards within each single simulation (0/1 = serial; results are identical at any setting; 'scale' also reruns each point sharded and reports the speedup)")
		progress = fs.Bool("progress", false, "report sweep-point completion on stderr")
		outDir   = fs.String("outdir", ".", "directory for machine-readable artifacts (e.g. BENCH_scale.json)")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile at exit to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "avmon-bench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the retained heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "avmon-bench: memprofile:", err)
			}
		}()
	}
	// `-run list` is the discoverable spelling of -list: users try it
	// before reading the source, so honor it instead of erroring.
	if *list || *runID == "list" {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return nil
	}
	if *runID == "" {
		fs.Usage()
		return fmt.Errorf("missing -run (or -list)")
	}
	// Fail on an unusable artifact directory now, not after a sweep
	// that can take many minutes.
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return fmt.Errorf("outdir: %w", err)
	}
	opts := experiments.Options{Scale: *scale, Seed: *seed, Parallelism: *parallel, Shards: *shards}
	if *ns != "" {
		for _, part := range strings.Split(*ns, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return fmt.Errorf("bad -ns entry %q", part)
			}
			opts.Ns = append(opts.Ns, n)
		}
	}
	if *progress {
		opts.Progress = func(done, total int, label string) {
			fmt.Fprintf(os.Stderr, "%d/%d %s\n", done, total, label)
		}
	}
	// Each footer times what its id added: the sweep for the first id
	// that reads it, nothing for the ids rendered from the same runs.
	start := time.Now()
	return experiments.RunAll([]string{*runID}, opts, func(res *experiments.Result) error {
		fmt.Print(res.String())
		for name, data := range res.Artifacts {
			path := filepath.Join(*outDir, name)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				return fmt.Errorf("%s: write artifact %s: %w", res.ID, path, err)
			}
			fmt.Fprintf(os.Stderr, "%s: wrote %s (%d bytes)\n", res.ID, path, len(data))
		}
		fmt.Printf("(%s completed in %v)\n\n", res.ID, time.Since(start).Round(time.Millisecond))
		start = time.Now()
		return nil
	})
}
