package experiments

// What views and reports read off a run.
// Each quantity is computed here once, in one floating-point order, so
// two tables that print "the same quantity" cannot disagree.

import (
	"math"
	"time"

	"avmon"
	"avmon/internal/stats"
)

// in converts durations with one of time.Duration's unit methods
// (time.Duration.Seconds, time.Duration.Minutes).
func in(unit func(time.Duration) float64, times []time.Duration) []float64 {
	out := make([]float64, len(times))
	for i, d := range times {
		out[i] = unit(d)
	}
	return out
}

// welford folds xs into a streaming mean/stddev accumulator.
func welford(xs []float64) *stats.Welford {
	var w stats.Welford
	for _, x := range xs {
		w.Add(x)
	}
	return &w
}

// cdfOf builds the empirical CDF of xs.
func cdfOf(xs []float64) *stats.CDF {
	var c stats.CDF
	c.AddAll(xs)
	return &c
}

// discoverySummary is first-monitor discovery over a run's measurement
// population, as the scale, wan and realnet artifacts report it.
type discoverySummary struct {
	control    int     // measured nodes
	discovered int     // of which found a first monitor
	meanMin    float64 // mean time to it, largest outlier dropped
	p93Sec     float64
}

func (o *outcome) discovery() discoverySummary {
	control := o.controlOrLateBorn()
	times, missed := o.firstDiscoveries(control)
	return discoverySummary{
		control:    len(control),
		discovered: len(control) - missed,
		p93Sec:     cdfOf(in(time.Duration.Seconds, times)).Percentile(93),
		meanMin:    meanDiscoveryMinutes(times),
	}
}

// shardCost is what a sharded run's scheduler reports: windows executed
// (deterministic) and per-shard busy wall-clock (a host metric). Both
// are zero after a serial run.
func shardCost(c *avmon.Cluster) (windows uint64, busyNS []int64) {
	st, _ := c.SchedStats()
	for _, sh := range st.PerShard {
		busyNS = append(busyNS, sh.BusyNS)
	}
	return st.Windows, busyNS
}

// allBorn returns every node that was ever born (the Nlongterm
// population of Section 5.3).
func (o *outcome) allBorn() []int {
	var out []int
	for i := 0; i < o.c.Size(); i++ {
		if o.c.Stats(i).EverBorn {
			out = append(out, i)
		}
	}
	return out
}

// compsPerSecond returns each group node's consistency-condition
// evaluations per second over the measurement window. Nodes born
// during the window are rated over their own lifetime, not the whole
// window, so late-born nodes are not under-counted.
func (o *outcome) compsPerSecond(group []int) []float64 {
	windowEnd := o.warmupEnd + o.s.measure
	out := make([]float64, 0, len(group))
	for _, idx := range group {
		st := o.c.Stats(idx)
		secs := o.s.measure.Seconds()
		if st.BornAtOffset > o.warmupEnd {
			secs = (windowEnd - st.BornAtOffset).Seconds()
		}
		if secs <= 0 {
			continue
		}
		delta := st.HashChecks - o.checksAtW[idx]
		out = append(out, float64(delta)/secs)
	}
	return out
}

// memoryEntries returns |PS|+|TS|+|CV| for each node in group.
func (o *outcome) memoryEntries(group []int) []float64 {
	out := make([]float64, 0, len(group))
	for _, idx := range group {
		out = append(out, float64(o.c.Stats(idx).MemoryEntries))
	}
	return out
}

// expectedEntries is the memory the paper predicts per node, 2K + cvs.
func (o *outcome) expectedEntries() int { return 2*o.c.K() + o.c.CVS() }

// psFill returns |PS|/K for each node in group: how much of its target
// monitor count it has discovered.
func (o *outcome) psFill(group []int) []float64 {
	out := make([]float64, 0, len(group))
	for _, idx := range group {
		out = append(out, float64(o.c.Stats(idx).PSSize)/float64(o.c.K()))
	}
	return out
}

// bytesOutPer returns each group node's bytes sent since warm-up,
// divided by window (the measurement window in the caller's unit).
func (o *outcome) bytesOutPer(window float64, group []int) []float64 {
	out := make([]float64, 0, len(group))
	for _, idx := range group {
		out = append(out, float64(o.c.Stats(idx).Traffic.BytesOut)/window)
	}
	return out
}

// uselessPerMinute returns each group node's monitoring pings per
// minute of the measurement window that found their target down.
func (o *outcome) uselessPerMinute(group []int) []float64 {
	minutes := o.s.measure.Minutes()
	out := make([]float64, 0, len(group))
	for _, idx := range group {
		delta := o.c.Stats(idx).UselessMonPings - o.uselessAtW[idx]
		out = append(out, float64(delta)/minutes)
	}
	return out
}

// monitorEstimate returns node idx's availability as the system sees it
// (Cluster.Availability, overreport the misreporting fraction) beside
// the truth. ok is false for a node that was never up or that no
// monitor has an estimate for yet.
func monitorEstimate(c *avmon.Cluster, idx int, overreport float64) (est, truth float64, ok bool) {
	truth = c.Stats(idx).TrueAvailability()
	if truth <= 0 {
		return 0, 0, false
	}
	if est, ok = c.Availability(idx, overreport); !ok {
		return 0, 0, false
	}
	return est, truth, true
}

// estimateRatios returns estimated/actual availability for every
// measured node of the run's control population.
func (o *outcome) estimateRatios() []float64 {
	var out []float64
	for _, idx := range o.controlOrLateBorn() {
		if est, truth, ok := monitorEstimate(o.c, idx, 0); ok {
			out = append(out, est/truth)
		}
	}
	return out
}

// absRelErr returns the mean and the maximum of |ratio − 1|.
func absRelErr(ratios []float64) (mean, worst float64) {
	if len(ratios) == 0 {
		return 0, 0
	}
	var sum float64
	for _, r := range ratios {
		e := math.Abs(r - 1)
		sum += e
		worst = math.Max(worst, e)
	}
	return sum / float64(len(ratios)), worst
}

// affectedFraction is Figure 20's criterion: the fraction of measured
// alive honest nodes whose estimated availability is off from the truth
// by more than 0.2.
func affectedFraction(c *avmon.Cluster, overreport float64) float64 {
	affected, measured := 0, 0
	for i := 0; i < c.Size(); i++ {
		if c.IsColluder(i) || !c.Stats(i).Alive {
			continue
		}
		est, truth, ok := monitorEstimate(c, i, overreport)
		if !ok {
			continue
		}
		measured++
		if math.Abs(est-truth) > 0.2 {
			affected++
		}
	}
	if measured == 0 {
		return 0
	}
	return float64(affected) / float64(measured)
}

// coverage measures the system's useful monitoring capacity over alive
// honest nodes, the quantity a stepped run samples: fill is the mean of
// (alive honest monitors discovered) / K, eclipsed the fraction with
// none — nobody trustworthy measures them. Fill dips when monitors die
// (zone outage), when they defect (collusion), and when newcomers have
// not been discovered yet (flash crowd), and climbs back as the
// protocol self-repairs.
func coverage(c *avmon.Cluster) (fill, eclipsed float64) {
	trusted := func(i int) bool { return !c.IsColluder(i) && c.Stats(i).Alive }
	honest, dark := 0, 0
	k := float64(c.K())
	for i := 0; i < c.Size(); i++ {
		if !trusted(i) {
			continue
		}
		honest++
		useful := 0
		for _, mon := range c.MonitorsOf(i) {
			if mi, ok := c.IndexOf(mon); ok && trusted(mi) {
				useful++
			}
		}
		fill += float64(useful) / k
		if useful == 0 {
			dark++
		}
	}
	if honest == 0 {
		return 0, 0
	}
	return fill / float64(honest), float64(dark) / float64(honest)
}
