package experiments

import "time"

// overreportFractions are the x-axis of Figure 20.
var overreportFractions = []float64{0, 0.05, 0.10, 0.15, 0.20}

// overreportScens are Figure 20's columns, one run per workload, each
// at the largest swept N (the traces at their own sizes). A monitor
// lies only when asked (Cluster.Availability), so every misreporting
// fraction is read from the same finished run: the dose-response trend
// isolates the attack, and the misreporting sets nest as the fraction
// grows.
func overreportScens(o Options) []scenario {
	return []scenario{
		synthScenario(o, modelSYNTH, o.largestN(), 3*time.Hour),
		synthScenario(o, modelSYNTHBD, o.largestN(), 3*time.Hour),
		traceScenario(o, modelPL, traceNPL),
		traceScenario(o, modelOV, traceNOV),
	}
}

// figure20 reproduces the overreporting attack: a fraction of nodes
// report 100% availability for all their targets; the y-axis is the
// fraction of nodes whose measured availability is off by > 0.2.
func figure20(_ Options, outs []*outcome) []*Table {
	table := &Table{
		Title:  "Fraction of nodes negatively affected by overreporting monitors",
		Header: []string{"fraction misreporting", "SYNTH", "SYNTH-BD", "PL", "OV"},
	}
	for _, frac := range overreportFractions {
		cells := []string{f2(frac)}
		for _, out := range outs {
			cells = append(cells, f4(affectedFraction(out.c, frac)))
		}
		table.AddRow(cells...)
	}
	return []*Table{table}
}
