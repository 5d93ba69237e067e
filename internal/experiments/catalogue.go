package experiments

// The catalogue: which simulations each experiment id reads. The
// paper's evaluation is a handful of experiment sets — one run per
// (availability model, N) in Section 5.1, from which Figures 3-10 are
// all read, and likewise for Sections 5.2-5.4 — so a set is data here
// (a sweep), a table or figure is a function of a finished set (a
// view), and RunAll simulates each set once however many of its views
// are asked for.

import "fmt"

// sweep is one experiment set: the simulations to run and the rules
// runAllPaired applies to them. Point i runs on a seed derived from
// Options.Seed and its seed position, so a sweep's output depends on its
// own layout only — never on which views read it or what ran before it.
type sweep struct {
	name  string // progress-line prefix
	scens func(Options) []scenario
	// group maps a point to its seed position. Points sharing one run
	// against the same churn realization (common random numbers), so
	// an A/B delta isolates the variant; nil gives every point its own
	// (and a twin its twin's).
	group func(i int) int
	minN  int // smallest population the sweep's cohorts mean anything at
	// serial marks a host-measured sweep: one point at a time, each at
	// the shard count its scenario names, a memory reading around each.
	serial bool
	// reduce, when set, turns each finished run into the row the sweep's
	// report reads, inside the worker; the cluster is released there.
	reduce func(*outcome) any
}

// view renders one experiment's tables from its sweep's outcomes, which
// arrive in scens order.
type view func(Options, []*outcome) []*Table

// report is the view of a row that also writes an artifact: its tables,
// and the params and points of the artifact's envelope (host.go).
type report func(Options, []*outcome) (tables []*Table, params, points any)

// experiment is one catalogue row. An id reads a sweep through a view,
// or through a report when it writes the artifact named beside it; self
// is for the few that simulate no cluster through a sweep. `-run all`,
// the paper-reproduction flow, is every row without an artifact: those
// files are checked in and regenerated only by an explicit,
// deliberately scaled run of their id.
type experiment struct {
	id, title string
	sweep     *sweep
	view      view
	report    report
	artifact  string
	self      func(Options) (*Result, error)
}

// Seed pairings of the A/B sweeps.
func oneRealization(int) int { return 0 }
func pairs(i int) int        { return i / 2 }
func perCVSSet(i int) int    { return i / len(cvsMultipliers) }

var (
	// Section 5.1: each (N, model) once, measured for an hour; Figures
	// 3-5 read it as of 45 minutes in (firstDiscoveriesAsOf).
	synthSweep = &sweep{name: "synthetic", scens: synthScens}
	// Section 5.2: four coarse-view sizes per N on one realization,
	// likewise an hour, Figure 11 reading it as of 45 minutes.
	cvsSweep = &sweep{name: "cvs", scens: cvsScens, group: perCVSSet}
	// Section 5.3: the two traces, then (BD, BD2) pairs per N.
	traces   = &sweep{name: "traces", scens: traceScens}
	bdVsBD2  = &sweep{name: "bd-vs-bd2", scens: bdScens, group: pairs}
	forgetAB = &sweep{name: "forgetful-ab", scens: forgetfulScens, group: pairs}
	// Section 5.4 and the sets only one id reads.
	bandwidth       = &sweep{name: "bandwidth", scens: bandwidthScens, group: pairs}
	overreport      = &sweep{name: "overreport", scens: overreportScens}
	variants        = &sweep{name: "table1", scens: variantScens, group: oneRealization}
	reshuffleAB     = &sweep{name: "ablation-reshuffle", scens: reshuffleScens, group: oneRealization}
	rejoinAB        = &sweep{name: "ablation-rejoin-weight", scens: rejoinScens, group: oneRealization}
	forgetfulParams = &sweep{name: "ablation-forgetful", scens: forgetfulParamScens, group: oneRealization}
	// Beyond the paper: each N serial then sharded, host-measured and
	// reduced in the worker; nine network regimes on one realization;
	// four faults, three arms each on one realization per fault.
	scaleSweep = &sweep{name: "scale", scens: scaleScens, serial: true, reduce: scalePoint}
	wanSweep   = &sweep{name: "wan", scens: wanScens, group: oneRealization}
	chaosSweep = &sweep{name: "chaos", scens: chaosScens, minN: 20,
		group: func(i int) int { return i / len(chaosArms) }}
)

// catalogue lists every experiment in paper order: Table 1 and
// Figures 3-20, the design-choice ablations, then the beyond-paper
// harnesses.
var catalogue = []experiment{
	{id: "table1", title: "AVMON variants vs Broadcast: M, D, C", sweep: variants, view: table1},
	{id: "figure3", title: "Discovery time of first monitors vs N (synthetic models)", sweep: synthSweep, view: figure3},
	{id: "figure4", title: "CDF of first-monitor discovery time, STAT", sweep: synthSweep, view: discoveryCDFs(modelSTAT)},
	{id: "figure5", title: "CDF of first-monitor discovery time, SYNTH-BD", sweep: synthSweep, view: discoveryCDFs(modelSYNTHBD)},
	{id: "figure6", title: "Time to discovery of first L monitors", sweep: synthSweep, view: figure6},
	{id: "figure7", title: "Computational overhead vs N (synthetic models)", sweep: synthSweep, view: figure7},
	{id: "figure8", title: "CDF of per-node computations per second", sweep: synthSweep,
		view: edgeCDFs("computations/s", (*outcome).compsPerSecond)},
	{id: "figure9", title: "Memory overhead vs N (synthetic models)", sweep: synthSweep, view: figure9},
	{id: "figure10", title: "CDF of per-node memory entries", sweep: synthSweep,
		view: edgeCDFs("|PS|+|TS|+|CV|", (*outcome).memoryEntries)},
	{id: "figure11", title: "Discovery time vs coarse-view size", sweep: cvsSweep, view: figure11},
	{id: "figure12", title: "Memory and computation vs coarse-view size", sweep: cvsSweep, view: figure12},
	{id: "figure13", title: "CDF of first-monitor discovery time, PL and OV", sweep: traces, view: figure13},
	{id: "figure14", title: "CDF of per-node memory entries, PL and OV", sweep: traces, view: figure14},
	{id: "figure15", title: "Discovery under doubled birth/death churn", sweep: bdVsBD2, view: figure15},
	{id: "figure16", title: "Memory entries under doubled birth/death churn", sweep: bdVsBD2, view: figure16},
	{id: "figure17", title: "Availability estimation accuracy under forgetful pinging", sweep: forgetAB, view: figure17},
	{id: "figure18", title: "Useless-ping reduction from forgetful pinging", sweep: forgetAB, view: figure18},
	{id: "figure19", title: "CDF of per-node outgoing bandwidth (Bps)", sweep: bandwidth, view: figure19},
	{id: "figure20", title: "Effect of the overreporting attack (Section 5.4)", sweep: overreport, view: figure20},

	// Ablations of the design choices DESIGN.md calls out (not in the
	// paper; they justify its mechanisms quantitatively).
	{id: "ablation-reshuffle", title: "Why the coarse view is re-randomized every round",
		sweep: reshuffleAB, view: ablationReshuffle},
	{id: "ablation-rejoin-weight", title: "Why rejoin weight is capped by downtime",
		sweep: rejoinAB, view: ablationRejoinWeight},
	{id: "ablation-forgetful", title: "Forgetful pinging: accuracy vs wasted bandwidth",
		sweep: forgetfulParams, view: ablationForgetful},
	{id: "ablation-consistency", self: ablationConsistency},
	{id: "ablation-hash", self: ablationHash},

	{id: "scale", title: "Scalability of discovery, bandwidth, and simulation cost to N = 1,000,000",
		sweep: scaleSweep, report: scaleReport, artifact: ScaleArtifactName},
	{id: "wan", title: "Heterogeneous WAN latency and loss vs discovery and monitoring coverage",
		sweep: wanSweep, report: wanReport, artifact: WanArtifactName},
	{id: "chaos", title: "Adversarial & chaos scenario suite (paired-seed A/B with a control-arm gate)",
		sweep: chaosSweep, report: chaosReport, artifact: ChaosArtifactName},
	{id: "realnet", self: realnet, artifact: RealnetArtifactName},
}

// IDs returns the experiment ids in catalogue (paper) order.
func IDs() []string {
	out := make([]string, len(catalogue))
	for i, e := range catalogue {
		out[i] = e.id
	}
	return out
}

// RunAll runs the named experiments and hands each Result to emit in
// the order asked; the id "all" stands for every row that writes no
// artifact, in catalogue order. Options are validated once, before
// anything runs (ErrInvalidOptions). Each distinct sweep is simulated
// once, every requested view of it is rendered, and its outcomes are
// released before the next sweep starts, so ids that share a sweep
// report the same runs and peak memory stays one sweep's. Nothing is
// kept between calls.
func RunAll(ids []string, o Options, emit func(*Result) error) error {
	if err := o.validate(); err != nil {
		return err
	}
	o = o.withDefaults()
	var rows []*experiment
	for _, id := range ids {
		found := false
		for j := range catalogue {
			if e := &catalogue[j]; e.id == id || (id == "all" && e.artifact == "") {
				rows, found = append(rows, e), true
			}
		}
		if !found {
			return fmt.Errorf("experiments: unknown experiment %q", id)
		}
	}
	rendered := make(map[string]*Result, len(rows))
	for _, e := range rows {
		if rendered[e.id] == nil {
			if err := e.render(o, rows, rendered); err != nil {
				return fmt.Errorf("%s: %w", e.id, err)
			}
		}
		if err := emit(rendered[e.id]); err != nil {
			return err
		}
	}
	return nil
}

// render produces e's Result into rendered — and, when e reads a
// sweep, the Result of every other wanted row reading the same one,
// while its outcomes are at hand.
func (e *experiment) render(o Options, wanted []*experiment, rendered map[string]*Result) error {
	if e.sweep == nil {
		res, err := e.self(o)
		rendered[e.id] = res
		return err
	}
	outs, err := runAllPaired(o, e.sweep)
	if err != nil {
		return err
	}
	for _, w := range wanted {
		if w.sweep != e.sweep {
			continue
		}
		res := &Result{ID: w.id, Title: w.title}
		if w.report == nil {
			res.Tables = w.view(o, outs)
		} else {
			var params, points any
			res.Tables, params, points = w.report(o, outs)
			var ns []int
			for _, out := range outs {
				if len(ns) == 0 || ns[len(ns)-1] != out.s.n {
					ns = append(ns, out.s.n)
				}
			}
			if res.Artifacts, err = artifact(o, w.id, w.artifact, ns, params, points); err != nil {
				return err
			}
		}
		rendered[w.id] = res
	}
	return nil
}
