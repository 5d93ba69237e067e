package experiments

import (
	"fmt"
	"time"

	"avmon/internal/stats"
)

// synthetic model kinds swept by Figures 3-10.
var syntheticKinds = []modelKind{modelSTAT, modelSYNTH, modelSYNTHBD}

// synthScenario builds the standard Section 5.1 scenario: default
// parameters (T = 1 min, cvs = 4·N^(1/4), K = log2 N), one hour of
// warm-up, then a 10% control group joining simultaneously (explicit
// for STAT and SYNTH, implicit late-born nodes for SYNTH-BD).
func synthScenario(o Options, kind modelKind, n int, measure time.Duration) scenario {
	s := scenario{
		kind:    kind,
		n:       n,
		warmup:  o.scaled(time.Hour, 10*time.Minute),
		measure: o.scaled(measure, 10*time.Minute),
	}
	if kind == modelSTAT || kind == modelSYNTH {
		s.controlFrac = 0.10
	}
	return s
}

// synthScens is the Section 5.1 set: every swept N under each of the
// three synthetic models, size-major, measured for an hour.
func synthScens(o Options) []scenario {
	var scens []scenario
	for _, n := range o.ns() {
		for _, kind := range syntheticKinds {
			scens = append(scens, synthScenario(o, kind, n, time.Hour))
		}
	}
	return scens
}

// discoveryCut is how far into an hour's measurement window Figures
// 3-5 and 11 read first discoveries: the paper's 45 minutes, scaled as
// synthScenario scales the window.
func discoveryCut(o Options) time.Duration { return o.scaled(45*time.Minute, 10*time.Minute) }

// chunks cuts a sweep's outcomes into consecutive rows of per: one row
// per swept N in a size-major sweep.
func chunks(outs []*outcome, per int) [][]*outcome {
	var rows [][]*outcome
	for ; len(outs) >= per; outs = outs[per:] {
		rows = append(rows, outs[:per])
	}
	return rows
}

// pick returns the sweep's outcome for (kind, n).
func pick(outs []*outcome, kind modelKind, n int) *outcome {
	for _, out := range outs {
		if out.s.kind == kind && out.s.n == n {
			return out
		}
	}
	panic(fmt.Sprintf("experiments: sweep has no %v N=%d point", kind, n))
}

// figure3 reproduces "Average discovery times of first monitors for
// the control group nodes" across STAT, SYNTH, and SYNTH-BD for N in
// 100..2000.
func figure3(o Options, outs []*outcome) []*Table {
	table := &Table{
		Title:  "Average discovery time of first monitor (minutes)",
		Header: []string{"N", "STAT", "SYNTH", "SYNTH-BD"},
	}
	for _, row := range chunks(outs, len(syntheticKinds)) {
		cells := []string{itoa(row[0].s.n)}
		for _, out := range row {
			times, _ := out.firstDiscoveriesAsOf(discoveryCut(o))
			cells = append(cells, f2(meanDiscoveryMinutes(times)))
		}
		table.AddRow(cells...)
	}
	return []*Table{table}
}

// discoveryCDFs reproduces the CDF of one model's first-monitor
// discovery times at the smallest and largest swept N (Figure 4: STAT,
// Figure 5: SYNTH-BD).
func discoveryCDFs(kind modelKind) view {
	return func(o Options, outs []*outcome) []*Table {
		var tables []*Table
		for _, n := range edgeNs(o.ns()) {
			out := pick(outs, kind, n)
			times, missed := out.firstDiscoveriesAsOf(discoveryCut(o))
			cdf := cdfOf(in(time.Duration.Seconds, times))
			t := cdfTable(
				fmt.Sprintf("%v, N = %d (%d samples, %d undiscovered)", kind, n, cdf.N(), missed),
				"discovery time (s)", cdf, 13)
			t.AddRow("p93 (s)", f2(cdf.Percentile(93)))
			tables = append(tables, t)
		}
		return tables
	}
}

// figure6 reproduces "Average discovery times of first L monitors",
// L = 1..3, for the largest swept N across the three models.
func figure6(o Options, outs []*outcome) []*Table {
	n := o.largestN()
	table := &Table{
		Title:  fmt.Sprintf("Average time to discover first L monitors, N = %d (minutes)", n),
		Header: []string{"L", "STAT", "SYNTH", "SYNTH-BD"},
	}
	for l := 1; l <= 3; l++ {
		cells := []string{itoa(l)}
		for _, kind := range syntheticKinds {
			out := pick(outs, kind, n)
			var w stats.Welford
			for _, idx := range out.controlOrLateBorn() {
				if dts := out.c.Stats(idx).DiscoveryTimes; len(dts) >= l {
					w.Add(dts[l-1].Minutes())
				}
			}
			cells = append(cells, f2(w.Mean()))
		}
		table.AddRow(cells...)
	}
	return []*Table{table}
}

// figure7 reproduces "Average computations per second per node" vs N.
func figure7(_ Options, outs []*outcome) []*Table {
	table := &Table{
		Title:  "Average consistency-condition computations per second per node",
		Header: []string{"N", "STAT", "STAT stddev", "SYNTH", "SYNTH stddev", "SYNTH-BD", "SYNTH-BD stddev"},
	}
	for _, row := range chunks(outs, len(syntheticKinds)) {
		cells := []string{itoa(row[0].s.n)}
		for _, out := range row {
			group := out.controlOrLateBorn()
			if len(group) == 0 {
				group = out.aliveIndexes()
			}
			w := welford(out.compsPerSecond(group))
			cells = append(cells, f2(w.Mean()), f2(w.Stddev()))
		}
		table.AddRow(cells...)
	}
	return []*Table{table}
}

// edgeCDFs reproduces a per-node CDF over every alive node, for each
// synthetic model at the smallest and largest swept N (Figure 8:
// computations per second, Figure 10: memory entries).
func edgeCDFs(xLabel string, measure func(*outcome, []int) []float64) view {
	return func(o Options, outs []*outcome) []*Table {
		var tables []*Table
		for _, kind := range syntheticKinds {
			for _, n := range edgeNs(o.ns()) {
				out := pick(outs, kind, n)
				tables = append(tables, cdfTable(fmt.Sprintf("%v, N = %d", kind, n),
					xLabel, cdfOf(measure(out, out.aliveIndexes())), 9))
			}
		}
		return tables
	}
}

// figure9 reproduces "Average number of memory entries per node" vs N.
func figure9(_ Options, outs []*outcome) []*Table {
	table := &Table{
		Title:  "Average memory entries per node (|PS|+|TS|+|CV|)",
		Header: []string{"N", "expected (2K+cvs)", "STAT", "SYNTH", "SYNTH-BD"},
	}
	for _, row := range chunks(outs, len(syntheticKinds)) {
		cells := []string{itoa(row[0].s.n), itoa(row[0].expectedEntries())}
		for _, out := range row {
			w := welford(out.memoryEntries(out.aliveIndexes()))
			cells = append(cells, f2(w.Mean()))
		}
		table.AddRow(cells...)
	}
	return []*Table{table}
}
