package experiments

import (
	"fmt"
	"time"
)

// traceScenario builds the Section 5.3 trace-driven scenario: no
// explicit control group (every node born during the run is measured),
// protocol parameters derived from the trace's stable size.
func traceScenario(o Options, kind modelKind, n int) scenario {
	return scenario{
		kind:    kind,
		n:       n,
		warmup:  0,
		measure: o.scaled(48*time.Hour, 2*time.Hour),
	}
}

// The two trace workloads at the paper's sizes: PL with N = 239 (K = 8,
// cvs = 16) and OV with N = 550 (K = 9, cvs = 19).
const (
	traceNPL = 239
	traceNOV = 550
)

// traceScens is the Section 5.3 trace set: PL, then OV.
func traceScens(o Options) []scenario {
	return []scenario{traceScenario(o, modelPL, traceNPL), traceScenario(o, modelOV, traceNOV)}
}

// figure13 reproduces "CDF of discovery time of first monitors, PL and
// OV traces".
func figure13(_ Options, outs []*outcome) []*Table {
	var tables []*Table
	for _, out := range outs {
		born := out.allBorn()
		times, missed := out.firstDiscoveries(born)
		c := cdfOf(in(time.Duration.Minutes, times))
		t := cdfTable(
			fmt.Sprintf("%v (N=%d, Nlongterm=%d, %d undiscovered)", out.s.kind, out.s.n, len(born), missed),
			"discovery time (min)", c, 13)
		t.AddRow("fraction within 63s", f4(c.FractionBelow(63.0/60)))
		tables = append(tables, t)
	}
	return tables
}

// figure14 reproduces "CDF of number of memory entries per node, PL
// and OV traces".
func figure14(_ Options, outs []*outcome) []*Table {
	var tables []*Table
	for _, out := range outs {
		c := cdfOf(out.memoryEntries(out.aliveIndexes()))
		t := cdfTable(
			fmt.Sprintf("%v (N=%d, expected %d entries)", out.s.kind, out.s.n, out.expectedEntries()),
			"|PS|+|TS|+|CV|", c, 11)
		t.AddRow("max entries", f2(c.Max()))
		tables = append(tables, t)
	}
	return tables
}

// bdKinds are the birth/death rates Section 5.3 contrasts: SYNTH-BD
// and, at double the rate, SYNTH-BD2.
var bdKinds = []modelKind{modelSYNTHBD, modelSYNTHBD2}

// bdScens is the doubled-churn set: a (BD, BD2) pair per swept N. The
// pair shares a seed, so each comparison is of one realization.
func bdScens(o Options) []scenario {
	var scens []scenario
	for _, n := range o.ns() {
		for _, kind := range bdKinds {
			scens = append(scens, synthScenario(o, kind, n, 2*time.Hour))
		}
	}
	return scens
}

// figure15 reproduces "CDFs of discovery time of first monitors,
// SYNTH-BD vs SYNTH-BD2" at the largest swept N: doubling the
// birth/death rate must not noticeably change discovery.
func figure15(_ Options, outs []*outcome) []*Table {
	var tables []*Table
	for _, out := range outs[len(outs)-len(bdKinds):] {
		times, missed := out.firstDiscoveries(out.controlOrLateBorn())
		tables = append(tables, cdfTable(
			fmt.Sprintf("%v, N = %d (Nlongterm = %d, %d undiscovered)",
				out.s.kind, out.s.n, out.c.Size(), missed),
			"discovery time (min)", cdfOf(in(time.Duration.Minutes, times)), 11))
	}
	return tables
}

// figure16 reproduces "Average number of memory entries, SYNTH-BD vs
// SYNTH-BD2" across the N sweep: doubling births/deaths adds under 10%
// of garbage entries.
func figure16(_ Options, outs []*outcome) []*Table {
	table := &Table{
		Title:  "Average memory entries per node",
		Header: []string{"N", "SYNTH-BD", "SYNTH-BD stddev", "SYNTH-BD2", "SYNTH-BD2 stddev", "increase %"},
	}
	for _, pair := range chunks(outs, len(bdKinds)) {
		bd := welford(pair[0].memoryEntries(pair[0].aliveIndexes()))
		bd2 := welford(pair[1].memoryEntries(pair[1].aliveIndexes()))
		inc := 0.0
		if bd.Mean() > 0 {
			inc = (bd2.Mean() - bd.Mean()) / bd.Mean() * 100
		}
		table.AddRow(itoa(pair[0].s.n), f2(bd.Mean()), f2(bd.Stddev()), f2(bd2.Mean()), f2(bd2.Stddev()), f2(inc))
	}
	return []*Table{table}
}
