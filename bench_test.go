// Benchmarks: one per table and figure of the paper's evaluation.
// Each benchmark executes the corresponding experiment generator at a
// reduced scale (so `go test -bench=.` completes on a laptop) and
// reports simulated-node-seconds of work. Full paper-scale runs:
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

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	runner := experiments.Registry()[id]
	if runner == nil {
		b.Fatalf("unknown experiment %q", id)
	}
	opts := benchOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := runner(opts)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if i == 0 && testing.Verbose() {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkClusterSetupStat20k is the repository benchmark's
// sim_stat_fast set-up (benchmark/sim.go setupSim) through the public
// API: STAT N = 20000, fast hash, K 14, cvs 48, two simulated minutes,
// then 100 control joiners enrolled. One iteration is one set-up; the
// ns/event metric divides it by the events it executed (1 515 690 at
// seed 1), the cost item 1(b) of ROADMAP.md tracks against N.
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

// BenchmarkTable1 regenerates Table 1 (Broadcast vs AVMON variants:
// memory/bandwidth, discovery time, computation).
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkScale runs the large-N scale sweep at a reduced size (the
// benchOptions Ns override replaces the 10k/30k/100k default), so
// `-bench` covers the scale path like every table and figure. The
// real sweep: go run ./cmd/avmon-bench -run scale
func BenchmarkScale(b *testing.B) { benchExperiment(b, "scale") }

// BenchmarkWan runs the heterogeneous-WAN sweep (lognormal and
// zone-matrix latency × loss regimes) at a reduced size. The real
// sweep: go run ./cmd/avmon-bench -run wan
func BenchmarkWan(b *testing.B) { benchExperiment(b, "wan") }

// BenchmarkChaos runs the adversarial/chaos suite (collusion, zone
// outage, flash crowd, mass leave — each a paired-seed A/B with a
// control-arm gate) at a reduced size. The real sweep:
// go run ./cmd/avmon-bench -run chaos
func BenchmarkChaos(b *testing.B) { benchExperiment(b, "chaos") }

// BenchmarkRealnet boots the real-deployment harness (real Service
// nodes over memnet and 127.0.0.1 UDP, gated against the simulator's
// prediction) at a reduced size. Unlike the other benchmarks its
// timings are wall-clock deployments, not simulations, so it uses its
// own scale: benchOptions' 60ms-floor period at N=100 saturates a
// small host and trips the timing gate spuriously; the 60-node
// deployment here matches the CI smoke configuration. The real run:
// go run ./cmd/avmon-bench -run realnet
func BenchmarkRealnet(b *testing.B) {
	runner := experiments.Registry()["realnet"]
	opts := experiments.Options{Scale: 0.3, Seed: 1, Ns: []int{60}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := runner(opts)
		if err != nil {
			b.Fatalf("realnet: %v", err)
		}
		if i == 0 && testing.Verbose() {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkFigure3 regenerates Figure 3 (average discovery time of
// first monitors vs N, STAT/SYNTH/SYNTH-BD).
func BenchmarkFigure3(b *testing.B) { benchExperiment(b, "figure3") }

// BenchmarkFigure4 regenerates Figure 4 (CDF of STAT discovery times).
func BenchmarkFigure4(b *testing.B) { benchExperiment(b, "figure4") }

// BenchmarkFigure5 regenerates Figure 5 (CDF of SYNTH-BD discovery
// times).
func BenchmarkFigure5(b *testing.B) { benchExperiment(b, "figure5") }

// BenchmarkFigure6 regenerates Figure 6 (time to first L monitors).
func BenchmarkFigure6(b *testing.B) { benchExperiment(b, "figure6") }

// BenchmarkFigure7 regenerates Figure 7 (computations per second vs N).
func BenchmarkFigure7(b *testing.B) { benchExperiment(b, "figure7") }

// BenchmarkFigure8 regenerates Figure 8 (CDF of computations per
// second).
func BenchmarkFigure8(b *testing.B) { benchExperiment(b, "figure8") }

// BenchmarkFigure9 regenerates Figure 9 (memory entries vs N).
func BenchmarkFigure9(b *testing.B) { benchExperiment(b, "figure9") }

// BenchmarkFigure10 regenerates Figure 10 (CDF of memory entries).
func BenchmarkFigure10(b *testing.B) { benchExperiment(b, "figure10") }

// BenchmarkFigure11 regenerates Figure 11 (discovery time vs cvs).
func BenchmarkFigure11(b *testing.B) { benchExperiment(b, "figure11") }

// BenchmarkFigure12 regenerates Figure 12 (memory and computation vs
// cvs).
func BenchmarkFigure12(b *testing.B) { benchExperiment(b, "figure12") }

// BenchmarkFigure13 regenerates Figure 13 (CDF of discovery time under
// the PL and OV traces).
func BenchmarkFigure13(b *testing.B) { benchExperiment(b, "figure13") }

// BenchmarkFigure14 regenerates Figure 14 (CDF of memory entries under
// the PL and OV traces).
func BenchmarkFigure14(b *testing.B) { benchExperiment(b, "figure14") }

// BenchmarkFigure15 regenerates Figure 15 (discovery under doubled
// birth/death churn).
func BenchmarkFigure15(b *testing.B) { benchExperiment(b, "figure15") }

// BenchmarkFigure16 regenerates Figure 16 (memory under doubled
// birth/death churn).
func BenchmarkFigure16(b *testing.B) { benchExperiment(b, "figure16") }

// BenchmarkFigure17 regenerates Figure 17 (estimated vs actual
// availability with forgetful pinging).
func BenchmarkFigure17(b *testing.B) { benchExperiment(b, "figure17") }

// BenchmarkFigure18 regenerates Figure 18 (useless pings saved by
// forgetful pinging).
func BenchmarkFigure18(b *testing.B) { benchExperiment(b, "figure18") }

// BenchmarkFigure19 regenerates Figure 19 (CDF of outgoing bandwidth:
// STAT, STAT-PR2, OV).
func BenchmarkFigure19(b *testing.B) { benchExperiment(b, "figure19") }

// BenchmarkFigure20 regenerates Figure 20 (the overreporting attack).
func BenchmarkFigure20(b *testing.B) { benchExperiment(b, "figure20") }

// BenchmarkAblationReshuffle measures the value of the Figure 2
// coarse-view reshuffle (design-choice ablation).
func BenchmarkAblationReshuffle(b *testing.B) { benchExperiment(b, "ablation-reshuffle") }

// BenchmarkAblationRejoinWeight measures the Figure 1 rejoin-weight
// rule (design-choice ablation).
func BenchmarkAblationRejoinWeight(b *testing.B) { benchExperiment(b, "ablation-rejoin-weight") }

// BenchmarkAblationForgetful sweeps the forgetful-pinging parameters.
func BenchmarkAblationForgetful(b *testing.B) { benchExperiment(b, "ablation-forgetful") }

// BenchmarkAblationConsistency contrasts AVMON selection with the DHT
// replica-set baseline.
func BenchmarkAblationConsistency(b *testing.B) { benchExperiment(b, "ablation-consistency") }

// BenchmarkAblationHash compares the hash functions behind the
// consistency condition.
func BenchmarkAblationHash(b *testing.B) { benchExperiment(b, "ablation-hash") }
