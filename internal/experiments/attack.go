package experiments

import "time"

// overreportFractions are the x-axis of Figure 20.
var overreportFractions = []float64{0, 0.05, 0.10, 0.15, 0.20}

// overreportWorkloads are Figure 20's columns: each builds its workload
// at the largest swept N (the traces at their own sizes).
var overreportWorkloads = []func(Options) scenario{
	func(o Options) scenario { return synthScenario(o, modelSYNTH, o.largestN(), 3*time.Hour) },
	func(o Options) scenario { return synthScenario(o, modelSYNTHBD, o.largestN(), 3*time.Hour) },
	func(o Options) scenario { return traceScenario(o, modelPL, traceNPL) },
	func(o Options) scenario { return traceScenario(o, modelOV, traceNOV) },
}

// overreportScens is Figure 20's set: every workload under every
// misreporting fraction, fraction-major. Seeds pair per workload
// column: each column sweeps the fraction over one fixed realization
// (the misreporting sets even nest as the fraction grows), so the
// dose-response trend isolates the attack.
func overreportScens(o Options) []scenario {
	var scens []scenario
	for _, frac := range overreportFractions {
		for _, mk := range overreportWorkloads {
			s := mk(o)
			s.overreport = frac
			scens = append(scens, s)
		}
	}
	return scens
}

// figure20 reproduces the overreporting attack: a fraction of nodes
// report 100% availability for all their targets; the y-axis is the
// fraction of nodes whose measured availability is off by > 0.2.
func figure20(_ Options, outs []*outcome) []*Table {
	table := &Table{
		Title:  "Fraction of nodes negatively affected by overreporting monitors",
		Header: []string{"fraction misreporting", "SYNTH", "SYNTH-BD", "PL", "OV"},
	}
	for _, row := range chunks(outs, len(overreportWorkloads)) {
		cells := []string{f2(row[0].s.overreport)}
		for _, out := range row {
			cells = append(cells, f4(affectedFraction(out.c)))
		}
		table.AddRow(cells...)
	}
	return []*Table{table}
}
