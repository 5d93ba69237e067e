package experiments

import (
	"fmt"
	"time"

	"avmon"
	"avmon/internal/hashing"
	"avmon/internal/ids"
	"avmon/internal/membership"
	"avmon/internal/stats"
)

// The ablations quantify the design choices DESIGN.md calls out. They
// go beyond the paper's figures: each switches off (or swaps) one
// mechanism and measures what degrades.

// reshuffleScens is the reshuffle ablation's set: STAT at the largest
// swept N with the coarse-view reshuffle on, then off. Both variants
// see the same realization, so the delta is the reshuffle step alone.
func reshuffleScens(o Options) []scenario {
	on := synthScenario(o, modelSTAT, o.largestN(), 45*time.Minute)
	off := on
	off.opts.DisableReshuffle = true
	return []scenario{on, off}
}

// ablationReshuffle measures the coarse-view reshuffle step of
// Figure 2: without it, coarse views freeze and discovery of monitors
// for late-joining nodes slows dramatically.
func ablationReshuffle(o Options, outs []*outcome) []*Table {
	table := &Table{
		Title:  fmt.Sprintf("Coarse-view reshuffle ablation (STAT, N = %d)", o.largestN()),
		Header: []string{"variant", "discovered", "missed", "mean discovery (s)"},
	}
	for _, out := range outs {
		times, missed := out.firstDiscoveries(out.controlOrLateBorn())
		name := "reshuffle (paper)"
		if out.s.opts.DisableReshuffle {
			name = "no reshuffle"
		}
		table.AddRow(name, itoa(len(times)), itoa(missed),
			f2(welford(in(time.Duration.Seconds, times)).Mean()))
	}
	return []*Table{table}
}

// rejoinN is the population of the rejoin-weight ablation.
const rejoinN = 600

// rejoinScens is the rejoin-weight ablation's set: flappy SYNTH with
// the paper's min(cvs, downtime) rejoin weight, then with the full cvs
// every time. Both variants see the identical flap pattern, so the
// indegree and traffic deltas isolate the rule. It only bites when
// downtimes are SHORT relative to cvs protocol periods (otherwise
// min(cvs, downtime) = cvs), hence the frequent 3-minute outages.
func rejoinScens(o Options) []scenario {
	capped := scenario{kind: modelFlappy, n: rejoinN, measure: o.scaled(3*time.Hour, 45*time.Minute)}
	full := capped
	full.opts.RejoinFullWeight = true
	return []scenario{capped, full}
}

// ablationRejoinWeight measures the rejoin-weight rule of Figure 1:
// rejoining with the full cvs weight (instead of min(cvs, downtime))
// inflates the rejoining node's coarse-view indegree beyond cvs,
// breaking the load-balance invariant.
func ablationRejoinWeight(_ Options, outs []*outcome) []*Table {
	table := &Table{
		Title: fmt.Sprintf(
			"Rejoin-weight ablation (flappy SYNTH: 3-minute downtimes, N = %d)", rejoinN),
		Header: []string{"variant", "mean CV size", "mean indegree", "p99 indegree", "msgs/node/min"},
	}
	for _, out := range outs {
		c := out.c
		// Aggregate message volume: the rejoin cascade costs ≈weight
		// JOIN forwards, so capping the weight cuts system traffic.
		var totalMsgs uint64
		for i := 0; i < c.Size(); i++ {
			totalMsgs += c.Stats(i).Traffic.MsgsOut
		}
		msgsPerNodeMin := float64(totalMsgs) / float64(c.Size()) / out.s.measure.Minutes()
		// Indegree: how many alive coarse views contain each node.
		indegree := make(map[avmon.ID]int)
		alive := out.aliveIndexes()
		var cvSize stats.Welford
		for _, idx := range alive {
			cvSize.Add(float64(c.Stats(idx).CVSize))
			for _, member := range c.CoarseViewOf(idx) {
				indegree[member]++
			}
		}
		var deg stats.CDF
		for _, idx := range alive {
			deg.Add(float64(indegree[c.IDOf(idx)]))
		}
		name := "min(cvs, downtime) (paper)"
		if out.s.opts.RejoinFullWeight {
			name = "always cvs"
		}
		table.AddRow(name, f2(cvSize.Mean()), f2(deg.Mean()), f2(deg.Percentile(99)), f2(msgsPerNodeMin))
	}
	return []*Table{table}
}

// forgetfulParamScens is the (c, τ) set: SYNTH at the largest swept N
// under four forgetful-pinging settings. Every setting observes the
// same churn, so the sweep isolates the parameters.
func forgetfulParamScens(o Options) []scenario {
	var scens []scenario
	for _, p := range []struct {
		c   float64
		tau time.Duration
	}{
		{1, 2 * time.Minute},  // paper default
		{1, 10 * time.Minute}, // lazier threshold
		{3, 2 * time.Minute},  // more persistent pinging
		{0.25, 2 * time.Minute},
	} {
		s := synthScenario(o, modelSYNTH, o.largestN(), 3*time.Hour)
		s.opts.Forgetful = true
		s.opts.ForgetfulC = p.c
		s.opts.ForgetfulTau = p.tau
		scens = append(scens, s)
	}
	return scens
}

// ablationForgetful sweeps the forgetful-pinging parameters c and τ:
// the accuracy / useless-ping tradeoff of Section 3.3.
func ablationForgetful(o Options, outs []*outcome) []*Table {
	table := &Table{
		Title:  fmt.Sprintf("Forgetful-pinging parameter sweep (SYNTH, N = %d)", o.largestN()),
		Header: []string{"c", "tau", "useless pings/min/node", "mean |rel err|"},
	}
	for _, out := range outs {
		meanErr, _ := absRelErr(out.estimateRatios())
		table.AddRow(f2(out.s.opts.ForgetfulC), out.s.opts.ForgetfulTau.String(),
			f4(welford(out.uselessPerMinute(out.aliveIndexes())).Mean()), f4(meanErr))
	}
	return []*Table{table}
}

// ablationConsistency contrasts AVMON's churn-proof selection with the
// DHT replica-set approach: monitor-set damage per join/leave and the
// monitor-pair correlation statistic (randomness condition 3(b)).
func ablationConsistency(Options) (*Result, error) {
	const (
		n = 500
		k = 8
	)
	ring := membership.NewRing(hashing.FastHasher{}, k)
	pop := make([]ids.ID, n)
	for i := range pop {
		pop[i] = ids.Sim(i)
		ring.Add(pop[i])
	}
	// DHT: damage from 20 joins and 20 leaves.
	var joinDamage, leaveDamage stats.Welford
	for i := 0; i < 20; i++ {
		newcomer := ids.Sim(10000 + i)
		joinDamage.Add(float64(ring.ConsistencyDamage(newcomer, ring.Add, pop)))
		leaveDamage.Add(float64(ring.ConsistencyDamage(pop[i], ring.Remove, pop)))
		ring.Add(pop[i]) // restore
	}
	// Correlation statistic for both schemes.
	dhtSets := make(map[ids.ID][]ids.ID, n)
	for _, x := range pop {
		dhtSets[x] = ring.MonitorsOf(x)
	}
	sel, err := hashing.NewSelector(hashing.FastHasher{}, k, n)
	if err != nil {
		return nil, err
	}
	avmonSets := make(map[ids.ID][]ids.ID, n)
	for _, x := range pop {
		var set []ids.ID
		for _, y := range pop {
			if sel.Related(y, x) {
				set = append(set, y)
			}
		}
		avmonSets[x] = set
	}
	table := &Table{
		Title:  fmt.Sprintf("Selection-scheme comparison (N = %d, K = %d)", n, k),
		Header: []string{"property", "AVMON hash condition", "DHT replica set"},
	}
	table.AddRow("monitor sets changed per join", "0 (consistent)", f2(joinDamage.Mean()))
	table.AddRow("monitor sets changed per leave", "0 (consistent)", f2(leaveDamage.Mean()))
	table.AddRow("monitor-pair correlation (1 = uncorrelated)",
		f2(membership.PairCorrelation(avmonSets)),
		f2(membership.PairCorrelation(dhtSets)))
	return &Result{
		ID:     "ablation-consistency",
		Title:  "AVMON vs DHT-based monitor selection",
		Tables: []*Table{table},
	}, nil
}

// ablationHash compares the hash functions behind the consistency
// condition: all must yield the same expected PS sizes. (What they
// cost per evaluation is the repository benchmark's
// hashing.related_*_ns.)
func ablationHash(Options) (*Result, error) {
	const (
		n = 2000
		k = 11
	)
	table := &Table{
		Title:  fmt.Sprintf("Hash function comparison (N = %d, K = %d)", n, k),
		Header: []string{"hash", "mean |PS|", "max |PS|"},
	}
	for _, h := range []hashing.Hasher{hashing.MD5Hasher{}, hashing.SHA1Hasher{}, hashing.FastHasher{}} {
		sel, err := hashing.NewSelector(h, k, n)
		if err != nil {
			return nil, err
		}
		var sizes stats.Welford
		for xi := 0; xi < 300; xi++ {
			x := ids.Sim(xi)
			count := 0
			for yi := 0; yi < n; yi++ {
				if sel.Related(ids.Sim(yi), x) {
					count++
				}
			}
			sizes.Add(float64(count))
		}
		table.AddRow(h.Name(), f2(sizes.Mean()), itoa(int(sizes.Max())))
	}
	return &Result{
		ID:     "ablation-hash",
		Title:  "MD5 vs SHA-1 vs fast mixer for the consistency condition",
		Tables: []*Table{table},
	}, nil
}
