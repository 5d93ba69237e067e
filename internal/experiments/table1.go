package experiments

import (
	"fmt"
	"math"
	"time"

	"avmon"
	"avmon/internal/hashing"
	"avmon/internal/ids"
	"avmon/internal/membership"
)

// table1N is the population Table 1's measured half runs at.
const table1N = 512

// table1Variants are the AVMON rows of Table 1's measured half.
var table1Variants = []struct {
	name    string
	variant avmon.Variant
}{
	{"AVMON generic, cvs=log N", avmon.VariantGeneric},
	{"AVMON Optimal-MD", avmon.VariantMD},
	{"AVMON Optimal-MDC", avmon.VariantMDC},
}

// variantScens is Table 1's measured set: one STAT run per variant, all
// against the same (static) realization, so M/D/C differences isolate
// the cvs policy.
func variantScens(o Options) []scenario {
	scens := make([]scenario, len(table1Variants))
	for i, v := range table1Variants {
		scens[i] = synthScenario(o, modelSTAT, table1N, 45*time.Minute)
		scens[i].opts.Variant = v.variant
	}
	return scens
}

// table1 reproduces the paper's Table 1: memory/bandwidth per round
// (M), expected discovery time (D), and computations per round (C)
// for Broadcast [11] and the AVMON variants. It emits both the
// analytical values at N = 1 million (the paper's running example) and
// measured values from a small live simulation.
func table1(_ Options, outs []*outcome) []*Table {
	analytic := &Table{
		Title:  "Analytical comparison at N = 1,000,000 (Table 1)",
		Header: []string{"approach", "cvs", "M (entries/round)", "E[D] (rounds)", "C (checks/round)"},
	}
	const bigN = 1_000_000
	logN := int(math.Round(math.Log2(bigN)))
	addVariant := func(name string, cvs int) {
		analytic.AddRow(name, itoa(cvs),
			itoa(cvs),
			f2(hashing.ExpectedDiscoveryTime(cvs, bigN)),
			itoa(2*cvs*cvs))
	}
	analytic.AddRow("Broadcast [11]", "-", itoa(bigN), "O(log N), one-time", "2 per join per node")
	addVariant("AVMON generic, cvs=log N", logN)
	addVariant("AVMON Optimal-MD, cvs=(2N)^(1/3)", avmon.VariantMD.CVS(bigN))
	addVariant("AVMON Optimal-MDC/DC, cvs=N^(1/4)", avmon.VariantMDC.CVS(bigN))

	// Measured comparison on a small population.
	const n = table1N
	measured := &Table{
		Title:  fmt.Sprintf("Measured comparison at N = %d", n),
		Header: []string{"approach", "cvs", "bytes/round/node", "mean discovery (rounds)", "checks/round/node"},
	}
	// Broadcast: N joins, each costing N-1 messages of 8 bytes;
	// discovery is immediate. It applies the same consistency condition
	// as the simulated clusters, so it borrows one's scheme.
	b := membership.NewBroadcastDiscovery(outs[0].c.Scheme())
	for i := 0; i < n; i++ {
		b.Join(ids.Sim(i))
	}
	measured.AddRow("Broadcast [11]", "-",
		fmt.Sprintf("%.0f (join burst)", float64(b.BytesSent)/float64(n)),
		"0 (immediate)",
		f2(float64(b.HashChecks)/float64(n)))

	for i, v := range table1Variants {
		out := outs[i]
		// Rounds are the default one-minute protocol period.
		inRounds := func(d time.Duration) float64 { return float64(d) / float64(time.Minute) }
		rounds := out.s.measure.Minutes()
		alive := out.aliveIndexes()
		var checksPer []float64
		for _, idx := range alive {
			checksPer = append(checksPer, float64(out.c.Stats(idx).HashChecks-out.checksAtW[idx])/rounds)
		}
		times, _ := out.firstDiscoveries(out.controlOrLateBorn())
		measured.AddRow(v.name, itoa(out.c.CVS()),
			f2(welford(out.bytesOutPer(rounds, alive)).Mean()),
			f2(welford(in(inRounds, times)).Mean()),
			f2(welford(checksPer).Mean()))
	}
	return []*Table{analytic, measured}
}
