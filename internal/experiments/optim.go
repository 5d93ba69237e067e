package experiments

import (
	"fmt"
	"time"
)

// forgetfulScens is the Section 5.4 forgetful-pinging set: SYNTH at
// each swept N with the optimization on, then off. The pair shares a
// seed — both observe the same churn — so accuracy and useless-ping
// deltas isolate the optimization.
func forgetfulScens(o Options) []scenario {
	var scens []scenario
	for _, n := range o.ns() {
		for _, forgetful := range []bool{true, false} {
			s := synthScenario(o, modelSYNTH, n, 4*time.Hour)
			s.opts.Forgetful = forgetful
			scens = append(scens, s)
		}
	}
	return scens
}

// figure17 reproduces "Ratio of estimated availability to actual
// availability, with and without forgetful pinging" on SYNTH at the
// largest swept N.
func figure17(o Options, outs []*outcome) []*Table {
	table := &Table{
		Title:  fmt.Sprintf("Estimated/actual availability ratio, SYNTH N = %d", o.largestN()),
		Header: []string{"variant", "nodes", "mean ratio", "mean |rel err|", "max |rel err|"},
	}
	for _, out := range outs[len(outs)-2:] {
		ratios := out.estimateRatios()
		meanErr, maxErr := absRelErr(ratios)
		name := "NON-Forgetful ping"
		if out.s.opts.Forgetful {
			name = "Forgetful ping"
		}
		table.AddRow(name, itoa(len(ratios)), f4(welford(ratios).Mean()), f4(meanErr), f4(maxErr))
	}
	return []*Table{table}
}

// figure18 reproduces "Forgetful pinging reduces useless pings sent to
// absent nodes" across the N sweep on SYNTH.
func figure18(_ Options, outs []*outcome) []*Table {
	table := &Table{
		Title:  "Average useless monitoring pings per node per minute (SYNTH)",
		Header: []string{"N", "Forgetful", "NON-Forgetful", "reduction factor"},
	}
	for _, pair := range chunks(outs, 2) {
		var rates [2]float64
		for i, out := range pair {
			rates[i] = welford(out.uselessPerMinute(out.aliveIndexes())).Mean()
		}
		factor := 0.0
		if rates[0] > 0 {
			factor = rates[1] / rates[0]
		}
		table.AddRow(itoa(pair[0].s.n), f4(rates[0]), f4(rates[1]), f2(factor))
	}
	return []*Table{table}
}

// bandwidthScens is Figure 19's set: STAT and STAT-PR2 at the largest
// swept N (an A/B pair on one seed), then the OV trace.
func bandwidthScens(o Options) []scenario {
	stat := synthScenario(o, modelSTAT, o.largestN(), 2*time.Hour)
	stat.controlFrac = 0
	pr2 := stat
	pr2.opts.PR2 = true
	// For OV, measure bandwidth over the post-warm-up half of the run.
	ov := traceScenario(o, modelOV, traceNOV)
	ov.warmup = ov.measure / 2
	ov.measure = ov.measure / 2
	return []scenario{stat, pr2, ov}
}

// figure19 reproduces the "CDF of per-node outgoing bandwidth" for
// STAT, STAT-PR2, and OV.
func figure19(_ Options, outs []*outcome) []*Table {
	var tables []*Table
	for _, out := range outs {
		label := "OV"
		if out.s.kind == modelSTAT {
			label = fmt.Sprintf("STAT, N=%d", out.s.n)
			if out.s.opts.PR2 {
				label = fmt.Sprintf("STAT-PR2, N=%d", out.s.n)
			}
		}
		c := cdfOf(out.bytesOutPer(out.s.measure.Seconds(), out.aliveIndexes()))
		t := cdfTable(label, "outgoing Bps", c, 13)
		t.AddRow("fraction below 10 Bps", f4(c.FractionBelow(10)))
		t.AddRow("p99.85 (Bps)", f2(c.Percentile(99.85)))
		tables = append(tables, t)
	}
	return tables
}
