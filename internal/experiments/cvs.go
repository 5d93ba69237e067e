package experiments

import (
	"math"
	"slices"
	"time"
)

// cvsMultipliers are the coarse-view sizes swept by Section 5.2:
// 4, 6, 8, 10 × N^(1/4).
var cvsMultipliers = []int{4, 6, 8, 10}

func cvsFor(mult, n int) int {
	return int(math.Round(float64(mult) * math.Pow(float64(n), 0.25)))
}

// cvsSweepNs picks the system sizes for the cvs sweep (paper: 500,
// 1000, 2000).
func cvsSweepNs(o Options) []int {
	ns := o.ns()
	if len(ns) > 3 {
		ns = ns[len(ns)-3:]
	}
	return ns
}

// cvsScens is the Section 5.2 set: STAT at each cvsSweepNs size under
// the four coarse-view sizes, measured for an hour. Points differ only
// in cvs within each N; pairing their seeds per N isolates the
// coarse-view size.
func cvsScens(o Options) []scenario {
	var scens []scenario
	for _, n := range cvsSweepNs(o) {
		for _, mult := range cvsMultipliers {
			s := synthScenario(o, modelSTAT, n, time.Hour)
			s.opts.CVS = cvsFor(mult, n)
			scens = append(scens, s)
		}
	}
	return scens
}

// figure11 reproduces "Average discovery time vs cvs" on the STAT
// model, 45 minutes into the window.
func figure11(o Options, outs []*outcome) []*Table {
	table := &Table{
		Title:  "Average discovery time vs cvs (STAT)",
		Header: []string{"N", "cvs", "mean discovery (s)", "stddev (s)"},
	}
	for _, out := range outs {
		times, _ := out.firstDiscoveriesAsOf(discoveryCut(o))
		w := welford(in(time.Duration.Seconds, times))
		table.AddRow(itoa(out.s.n), itoa(out.s.opts.CVS), f2(w.Mean()), f2(w.Stddev()))
	}
	return []*Table{table}
}

// figure12 reproduces "Memory entries vs cvs, and computations per
// second vs cvs" on the STAT model. The paper plots N = 500 and
// N = 2000 to show N has no influence at fixed cvs; this reads the
// first and last sizes of the sweep.
func figure12(o Options, outs []*outcome) []*Table {
	table := &Table{
		Title:  "Memory and computations vs cvs (STAT)",
		Header: []string{"N", "cvs", "mean memory entries", "mean computations/s"},
	}
	edges := edgeNs(cvsSweepNs(o))
	for _, out := range outs {
		if !slices.Contains(edges, out.s.n) {
			continue
		}
		alive := out.aliveIndexes()
		mem, comps := welford(out.memoryEntries(alive)), welford(out.compsPerSecond(alive))
		table.AddRow(itoa(out.s.n), itoa(out.s.opts.CVS), f2(mem.Mean()), f2(comps.Mean()))
	}
	note := &Table{
		Title:  "Reference points (Section 5.2)",
		Header: []string{"quantity", "value"},
	}
	note.AddRow("paper: memory varies linearly with cvs", "yes")
	note.AddRow("paper: N has no influence at fixed cvs", "compare rows above")
	note.AddRow("knee of discovery curve", "cvs = 8·N^(1/4) (see figure11)")
	return []*Table{table, note}
}
