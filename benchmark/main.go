// Command benchmark is the repository's benchmark: four workloads (two
// simulator, two live-fleet), the end-to-end metrics that repeat, and a
// traced per-layer ledger. See README.md in this directory.
//
//	go run ./benchmark --workload sim_churn_md5 --seed 1 --seconds 20 --trace 0
//	go run ./benchmark -workload all -seed 1
//	go run ./benchmark -aa 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// processStart approximates the child-process start: package
// initialisation runs before main.
var processStart = time.Now()

// defaultSeconds is BENCHMARK.json's run_seconds: the measured wall
// time of one run, split evenly between the protocol window and the
// query phase.
const defaultSeconds = 20

// runConfig is one run's command-line input.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	// layers are the isolated replays' results, measured before a traced
	// workload starts: run next to a live cluster or fleet, every
	// collection the allocating replays trigger has to mark it, and they
	// read several times too slow.
	layers map[string]float64
}

// phase is one named stretch of a run's wall time, for the manifest.
type phase struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// result is what one workload run produces.
type result struct {
	metrics    map[string]float64
	attempted  int64
	failed     int64
	violations []string // output-check failures; any makes the run incorrect
	phases     []phase
	notes      []string // sample counts and the like, printed with the metrics
	network    string   // what the traffic crossed
	// fingerprint digests everything about the run that must be a pure
	// function of the seed (tests compare it across runs).
	fingerprint string
	trace       *recorder // the traced pass's spans, for the caller to write out
}

// newResult starts a run's result. The traced pass prints every
// per-layer metric on every workload; a layer that does no work on this
// one keeps the 0 it starts with.
func newResult(cfg runConfig, network string) *result {
	res := &result{metrics: map[string]float64{}, network: network}
	if cfg.trace {
		for _, d := range perLayer {
			res.metrics[d.name] = 0
		}
	}
	return res
}

func (r *result) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

func (r *result) addPhase(name string, d time.Duration) {
	r.phases = append(r.phases, phase{Name: name, Seconds: d.Seconds()})
}

// workloadDef names one workload and why it is in the benchmark.
type workloadDef struct {
	name string
	why  string
	run  func(cfg runConfig) (*result, error)
}

var workloads = []workloadDef{
	{
		name: "sim_churn_md5",
		why:  "Simulated SYNTH-BD churn at N=2000 with the paper's MD5 hash and the cluster's pair memo: consistency checks dominate each event, the event engine does little.",
		run:  func(cfg runConfig) (*result, error) { return runSim(simChurnMD5, cfg) },
	},
	{
		name: "sim_stat_fast",
		why:  "Simulated static N=20000 with the cheap hash and a 3x larger coarse view: event-heap depth, simnet delivery, the CV-RESP sweep and memory footprint dominate; hashing changes predict no movement.",
		run:  func(cfg runConfig) (*result, error) { return runSim(simStatFast, cfg) },
	},
	{
		name: "fleet_wire",
		why:  "96 live Services over memnet answering uncached QueryBatch calls: every answer crosses the codec, a memnet hop, the Service lock and dispatcher and the node's answer path; simulator layers idle.",
		run:  func(cfg runConfig) (*result, error) { return runFleet(fleetWire, cfg) },
	},
	{
		name: "fleet_cached",
		why:  "Same fleet with a 32-entry answer cache under Zipf subjects whose working set exceeds it: epoch flushes keep it miss-dominated, so cache-policy changes show here and predict none on fleet_wire.",
		run:  func(cfg runConfig) (*result, error) { return runFleet(fleetCached, cfg) },
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// manifest records where and how a run was made.
type manifest struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Commit     string  `json:"git_commit"`
	Network    string  `json:"network"`
	Phases     []phase `json:"phases"`
}

// gitCommit is the revision the toolchain stamped into the binary, or
// "unknown" outside a git checkout (the accepting driver's case).
func gitCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload name, or all (each in a fresh child process)")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", defaultSeconds, "measured wall seconds per run (window + query phase)")
	trace := fs.Int("trace", 0, "1 = traced pass: per-layer metrics and a span file instead of end-to-end metrics")
	aa := fs.Int("aa", 0, "run N alternating pairs of full runs of this binary and compare their medians")
	outDir := fs.String("out", "benchmark/out", "directory for trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be at least 1")
		return 2
	}
	if *aa > 0 {
		return runAA(*aa, *workload, *seed, *seconds, stdout, stderr)
	}
	if *workload == "all" {
		return runAll(*seed, *seconds, *trace, *outDir, stdout, stderr)
	}
	w := findWorkload(*workload)
	if w == nil {
		names := make([]string, len(workloads))
		for i, wd := range workloads {
			names[i] = wd.name
		}
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (have: all, %s)\n", *workload, strings.Join(names, ", "))
		return 2
	}

	// One closed-loop client on at most two processors: the numbers are
	// then comparable between a laptop and a 64-core host.
	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)

	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace != 0}
	if cfg.trace {
		cfg.layers = replayLayers(cfg.seed)
	}
	res, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	m := manifest{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: procs,
		Commit: gitCommit(), Network: res.network, Phases: res.phases,
	}
	if res.trace != nil {
		path, err := res.trace.write(*outDir, w.name, m)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		res.notes = append(res.notes, "trace file: "+path)
	}
	return report(w.name, cfg, m, res, stdout, stderr)
}

// outMetric is one metric in the result line.
type outMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outLine is the last line of standard output.
type outLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]outMetric `json:"metrics"`
}

// report prints the manifest, every metric by name and unit, the output
// check verdict, and the result line. It returns the exit code.
func report(name string, cfg runConfig, m manifest, res *result, stdout, stderr io.Writer) int {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	mj, _ := json.Marshal(m) // plain struct of strings and numbers: cannot fail
	fmt.Fprintf(stdout, "manifest %s\n", mj)
	line := outLine{
		Correct:   len(res.violations) == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]outMetric, len(defs)),
	}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok {
			res.violate("metric %s was not produced", d.name)
			line.Correct = false
		}
		line.Metrics[d.name] = outMetric{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "metric %-13s %-36s %16.6f %s\n", name, d.name, v, d.unit)
	}
	if !cfg.trace {
		// The speeds are per-layer metrics (they do not repeat within a
		// tenth on a shared host, so nothing is gated on them), but every
		// run measures them; the untraced pass shows them here.
		for _, d := range perLayer {
			if v, ok := res.metrics[d.name]; ok && demoted[d.name] {
				fmt.Fprintf(stdout, "info   %-13s %-36s %16.6f %s\n", name, d.name, v, d.unit)
			}
		}
	}
	sort.Strings(res.notes)
	for _, n := range res.notes {
		fmt.Fprintf(stdout, "note   %-13s %s\n", name, n)
	}
	for _, v := range res.violations {
		fmt.Fprintf(stderr, "benchmark: %s: output check failed: %s\n", name, v)
	}
	if line.Attempted < 1 {
		line.Attempted = 1
	}
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	if !line.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in a fresh child process of this binary,
// passing its output through; the exit code is the first failure's.
func runAll(seed int64, seconds float64, trace int, outDir string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(exe,
			"-workload", w.name,
			"-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds),
			"-trace", fmt.Sprint(trace),
			"-out", outDir)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			if code == 0 {
				code = 1
			}
		}
	}
	return code
}
