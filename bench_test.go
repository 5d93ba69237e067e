// Benchmarks: BenchmarkExperiment runs every table and figure of the
// paper's evaluation, one sub-benchmark per experiment id. Each executes
// the id at a reduced scale (so `go test -bench=.` completes on a
// laptop). One figure: go test -run '^$' -bench 'Experiment/figure3$' .
// Full paper-scale runs:
//
//	go run ./cmd/avmon-bench -run all -scale 1.0
package avmon_test

import (
	"testing"
	"time"

	"avmon"
	"avmon/internal/experiments"
)

// benchOptions is the reduced scale used by the benchmark harness:
// the same code paths and workloads as the paper-scale runs, with a
// shrunken horizon and sweep. Parallelism is left at 0 so the worker
// count tracks GOMAXPROCS: `go test -bench=. -cpu 1,4` contrasts the
// serial and parallel engine on identical workloads (results are
// byte-identical either way; only wall time changes).
func benchOptions() experiments.Options {
	return experiments.Options{Scale: 0.02, Seed: 1, Ns: []int{100, 200}, Parallelism: 0}
}

// BenchmarkExperiment runs each experiment id alone (its sweep plus its
// view; ids that share a sweep each pay for it here) at benchOptions.
// Ranging over IDs means a new id cannot be left without a benchmark.
// The beyond-paper harnesses run at a reduced size too (benchOptions'
// Ns replaces scale's 10k/30k/100k default); realnet's timings are
// wall-clock deployments, not simulations, so it uses its own scale:
// benchOptions' 60ms-floor period at N=100 saturates a small host and
// trips the timing gate spuriously; the 60-node deployment here matches
// the CI smoke configuration.
func BenchmarkExperiment(b *testing.B) {
	for _, id := range experiments.IDs() {
		id, opts := id, benchOptions()
		if id == "realnet" {
			opts = experiments.Options{Scale: 0.3, Seed: 1, Ns: []int{60}}
		}
		b.Run(id, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				err := experiments.RunAll([]string{id}, opts, func(res *experiments.Result) error {
					if i == 0 && testing.Verbose() {
						b.Log("\n" + res.String())
					}
					return nil
				})
				if err != nil {
					b.Fatalf("%s: %v", id, err)
				}
			}
		})
	}
}

// BenchmarkClusterSetupStat20k is the repository benchmark's
// sim_stat_fast set-up (benchmark/sim.go setupSim) through the public
// API: STAT N = 20000, fast hash, K 14, cvs 48, two simulated minutes,
// then 100 control joiners enrolled. One iteration is one set-up; the
// ns/event metric divides it by the events it executed (1 515 690 at
// seed 1), the cost item 7 of ROADMAP.md tracks against N.
//
//	go test -run '^$' -bench ClusterSetupStat20k -benchtime 5x .
func BenchmarkClusterSetupStat20k(b *testing.B) {
	var events uint64
	for i := 0; i < b.N; i++ {
		c, err := avmon.NewCluster(avmon.ClusterConfig{
			Seed:    1,
			Options: avmon.NodeOptions{K: 14, CVS: 48, Hash: avmon.HashFast},
		}, avmon.NewSTATModel(20000))
		if err != nil {
			b.Fatal(err)
		}
		c.Run(2 * time.Minute)
		c.EnrollControl(100)
		c.ResetTraffic()
		events += c.Steps()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}
