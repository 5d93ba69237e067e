package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"avmon"
	"avmon/internal/hashing"
)

// simSpec sizes one simulator workload: set-up (build + warm-up +
// control enrolment), a protocol window of a fixed stretch of simulated
// time, and a read-out query phase.
type simSpec struct {
	name    string
	n       int
	churn   bool // SYNTH-BD(0.2/h, 0.2/day) instead of STAT
	hash    avmon.HashName
	k, cvs  int
	warmup  time.Duration // simulated
	joiners int           // control group enrolled at the window's start
	// window is the simulated length of the protocol window at the
	// default --seconds, sized to take about half of them; it scales with
	// --seconds. A fixed amount of simulated work, so every count read at
	// its end is a pure function of the seed.
	window time.Duration
	setups int // how many times a run sets the cluster up (setup_s is the median)
}

var simChurnMD5 = simSpec{
	name: "sim_churn_md5", n: 2000, churn: true, hash: avmon.HashMD5, k: 11, cvs: 27,
	warmup: 3 * time.Minute, joiners: 100, window: 6 * time.Minute, setups: 2,
}

var simStatFast = simSpec{
	name: "sim_stat_fast", n: 20000, hash: avmon.HashFast, k: 14, cvs: 48,
	warmup: 2 * time.Minute, joiners: 100, window: 7 * time.Minute, setups: 2,
}

const (
	// querySubjects is how many subjects one read-out or QueryBatch call
	// resolves.
	querySubjects = 16
	// simPeriod is the simulated protocol period (the clusters run with
	// the paper's default, one minute).
	simPeriod = time.Minute
)

// simTotals is one quiescent sweep over every member.
type simTotals struct {
	bytesOut   uint64
	msgsOut    uint64
	hashChecks uint64
	memEntries int
	alive      int
}

func sweepSim(c *avmon.Cluster) simTotals {
	var t simTotals
	for idx := 0; idx < c.Size(); idx++ {
		st := c.Stats(idx)
		t.bytesOut += st.Traffic.BytesOut
		t.msgsOut += st.Traffic.MsgsOut
		t.hashChecks += st.HashChecks
		if st.Alive {
			t.alive++
			t.memEntries += st.MemoryEntries
		}
	}
	return t
}

// simSetup is one built and warmed cluster with its control group
// enrolled, ready for the window.
type simSetup struct {
	c       *avmon.Cluster
	control []int
	newDur  time.Duration // NewCluster plus the first simulated minute, in which every node is born
	dur     time.Duration // the whole set-up
}

// setupSim builds and warms one cluster.
func setupSim(spec simSpec, seed int64, rec *recorder) (*simSetup, error) {
	start := time.Now()
	var model avmon.ChurnModel
	if spec.churn {
		var err error
		if model, err = avmon.NewSYNTHBDModel(spec.n, 0.2, 0.2); err != nil {
			return nil, err
		}
	} else {
		model = avmon.NewSTATModel(spec.n)
	}
	c, err := avmon.NewCluster(avmon.ClusterConfig{
		Seed:    seed,
		Options: avmon.NodeOptions{K: spec.k, CVS: spec.cvs, Hash: spec.hash},
	}, model)
	if err != nil {
		return nil, err
	}
	birth := simPeriod
	if birth > spec.warmup {
		birth = spec.warmup
	}
	c.Run(birth)
	born := time.Now()
	rec.record("cluster.new", 0, 0, start, born, map[string]int64{"nodes": int64(c.Size()), "events": int64(c.Steps())})
	c.Run(spec.warmup - birth)
	rec.record("cluster.warmup", 0, 0, born, time.Now(), map[string]int64{"events": int64(c.Steps())})
	control := c.EnrollControl(spec.joiners)
	c.ResetTraffic()
	return &simSetup{c: c, control: control, newDur: born.Sub(start), dur: time.Since(start)}, nil
}

// runSim runs one simulator workload.
func runSim(spec simSpec, cfg runConfig) (*result, error) {
	res := newResult(cfg, "simulated (simnet, no sockets)")
	var rec *recorder
	repeats := spec.setups
	if cfg.trace {
		rec = newRecorder()
		repeats = 1
	}

	// Set-up. A user starting the program pays process start too (first
	// set-up only).
	var su *simSetup
	var setups []float64
	for i := 0; i < repeats; i++ {
		startup := time.Duration(0)
		if i == 0 {
			startup = time.Since(processStart)
		} else {
			su = nil
			runtime.GC() // the previous cluster is garbage; do not make this build mark it
		}
		var err error
		if su, err = setupSim(spec, cfg.seed, rec); err != nil {
			return nil, err
		}
		setups = append(setups, (startup + su.dur).Seconds())
	}
	res.metrics["setup_s"] = median(setups)
	res.addPhase("setup", time.Since(processStart))
	c := su.c

	// Protocol window: phaseSlices slices of whole simulated seconds.
	slice := (time.Duration(float64(spec.window)*cfg.seconds/defaultSeconds) / phaseSlices).Truncate(time.Second)
	if slice < time.Second {
		slice = time.Second
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	base := sweepSim(c)
	events0 := c.Steps()
	memo, _ := c.Scheme().(*hashing.MemoSelector)
	var memo0, memo1 hashing.MemoStats
	if memo != nil {
		memo0 = memo.Stats()
	}
	windowStart := time.Now()
	var rates []float64     // per slice: node-periods per second
	var nodePeriods float64 // alive-node × periods simulated in the window
	var runWall time.Duration
	for s := 0; s < phaseSlices; s++ {
		alive, stepsBefore := c.AliveCount(), c.Steps()
		t0 := time.Now()
		c.Run(slice)
		t1 := time.Now()
		np := float64(alive+c.AliveCount()) / 2 * float64(slice) / float64(simPeriod)
		rates = append(rates, np/t1.Sub(t0).Seconds())
		nodePeriods += np
		runWall += t1.Sub(t0)
		rec.record("cluster.run", 0, 0, t0, t1, map[string]int64{
			"events": int64(c.Steps() - stepsBefore), "alive": int64(c.AliveCount()),
		})
	}
	runtime.ReadMemStats(&ms1)
	if memo != nil {
		memo1 = memo.Stats()
	}
	events := c.Steps() - events0
	simulated := phaseSlices * slice
	t0 := time.Now()
	totals := sweepSim(c)
	statsDur := time.Since(t0)
	rec.record("cluster.stats", 0, 0, t0, t0.Add(statsDur), map[string]int64{"nodes": int64(c.Size())})
	var discovered []float64
	for _, idx := range su.control {
		res.attempted++
		if dt := c.Stats(idx).DiscoveryTimes; len(dt) > 0 {
			discovered = append(discovered, float64(dt[0])/float64(simPeriod))
		} else {
			res.failed++
		}
	}
	res.addPhase("window", time.Since(windowStart))

	hashChecks := totals.hashChecks - base.hashChecks
	res.metrics["cluster.node_periods_per_s"] = median(rates)
	res.metrics["core.discovery_median_periods"] = median(discovered)
	res.metrics["bytes_per_node_period"] = float64(totals.bytesOut) / nodePeriods
	res.metrics["hash_checks_per_node_period"] = float64(hashChecks) / nodePeriods
	res.notes = append(res.notes,
		fmt.Sprintf("window: %d slices of %v simulated (%d events, %.0f node-periods)",
			phaseSlices, slice, events, nodePeriods),
		fmt.Sprintf("discovery: %d of %d control joiners within %v simulated, median %.3f periods",
			len(discovered), len(su.control), simulated, median(discovered)))
	res.fingerprint = fmt.Sprintf("events=%d bytes=%d hash=%d disc=%v alive=%d",
		events, totals.bytesOut, hashChecks, discovered, totals.alive)

	// Output checks on the overlay the window built.
	if float64(len(discovered)) < 0.95*float64(len(su.control)) {
		res.violate("only %d of %d control joiners discovered a monitor", len(discovered), len(su.control))
	}
	pairs := 0
	for idx := 0; idx < c.Size(); idx++ {
		target := c.IDOf(idx)
		for _, mon := range c.MonitorsOf(idx) {
			pairs++
			if !c.Scheme().Related(mon, target) {
				res.violate("discovered pair (%v monitors %v) fails the consistency condition", mon, target)
			}
		}
	}
	res.notes = append(res.notes, fmt.Sprintf("checked %d discovered (monitor, target) pairs against Scheme().Related", pairs))

	// Query phase: the harness read-out path, one closed-loop client.
	budget := time.Duration(cfg.seconds / 2 * float64(time.Second))
	simQueryPhase(c, spec, cfg.seed, budget, rec, res)
	queryEnd := time.Now()

	// The live heap, read after every timed phase: nothing the benchmark
	// measured is still referenced, and the simulation has not moved since
	// the window ended. The pair memo's size is a sawtooth between epoch
	// flushes, anywhere from nothing to 50 MB at a given instant depending
	// on the seed, so it is read apart: the heap with the memo emptied is
	// the metric, what emptying it freed is hashing.memo_live_mb.
	heapWithMemo := liveHeapMB()
	if memo != nil {
		memo.Reset()
	}
	res.metrics["heap_live_mb"] = liveHeapMB()

	if cfg.trace {
		lm := res.metrics
		lm["sim.events_per_node_period"] = float64(events) / nodePeriods
		lm["simnet.msgs_per_event"] = float64(totals.msgsOut) / float64(events)
		lm["core.hash_checks_per_event"] = float64(hashChecks) / float64(events)
		lm["core.memory_entries_mean"] = float64(totals.memEntries) / float64(totals.alive)
		lm["cluster.new_us_per_node"] = float64(su.newDur.Microseconds()) / float64(spec.n)
		lm["cluster.run_ns_per_event"] = float64(runWall.Nanoseconds()) / float64(events)
		lm["cluster.stats_ns_per_node"] = float64(statsDur.Nanoseconds()) / float64(c.Size())
		lm["cluster.alloc_bytes_per_event"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(events)
		lm["cluster.gc_count"] = float64(ms1.NumGC - ms0.NumGC)
		// A simulator pass is traced from outside, one span per slice and
		// per 256th read-out call; its overhead is the time spent inside
		// the recorder.
		lm["trace.overhead_pct"] = float64(rec.busy.Load()) / float64(queryEnd.Sub(windowStart)) * 100
		layers := cfg.layers
		for k, v := range layers {
			lm[k] = v
		}
		// What one event costs beyond the layers the replays price: the
		// hash checks it makes, the messages it sends, and its own trip
		// through the event heap.
		hashNS := layers["hashing.related_fast_ns"]
		if memo != nil {
			// The memo as the window's events saw it.
			hits, misses := memo1.Hits-memo0.Hits, memo1.Misses-memo0.Misses
			r := float64(hits) / float64(hits+misses)
			lm["hashing.memo_hit_ratio"] = r
			lm["hashing.memo_live_mb"] = heapWithMemo - lm["heap_live_mb"]
			hashNS = r*layers["hashing.memo_hit_ns"] + (1-r)*layers["hashing.memo_miss_ns"]
		}
		lm["cluster.unattributed_ns_per_event"] = lm["cluster.run_ns_per_event"] -
			(lm["core.hash_checks_per_event"]*hashNS +
				lm["simnet.msgs_per_event"]*layers["simnet.send_deliver_ns"] +
				layers["sim.post_pop_ns_depth1e5"])
		res.trace = rec
	}
	return res, nil
}

// liveHeapMB is MemStats.HeapAlloc after a collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// simQueryPhase runs the simulator's read-out path for dur of time
// inside calls: per call, 16 subjects each resolved ReportMonitors →
// VerifyReport → EstimateBy per verified monitor → mean.
func simQueryPhase(c *avmon.Cluster, spec simSpec, seed int64, dur time.Duration, rec *recorder, res *result) {
	start := time.Now()
	scheme := c.Scheme()
	// Subjects: the base population still alive and answerable, so every
	// one has had the whole run to be discovered and sampled (one node in
	// a thousand has no monitor with an estimate of it yet).
	var pool []int
	for idx := 0; idx < spec.n && idx < c.Size(); idx++ {
		if c.Stats(idx).Alive {
			if _, ok := readOut(c, scheme, idx); ok {
				pool = append(pool, idx)
			}
		}
	}
	if len(pool) == 0 {
		res.violate("no alive node of the base population can be read out")
		return
	}
	rng := rand.New(rand.NewSource(seed ^ 0x51ED270B))
	means := make([]float64, querySubjects)
	subjects := make([]int, querySubjects)
	q := closedLoop(dur, nil, func(call int64) (time.Duration, int) {
		for i := range subjects {
			subjects[i] = pool[rng.Intn(len(pool))]
		}
		t0 := time.Now()
		answered := 0
		for i, idx := range subjects {
			var ok bool
			if means[i], ok = readOut(c, scheme, idx); ok {
				answered++
			}
		}
		t1 := time.Now()
		if call%256 == 0 {
			rec.record("cluster.readout", 0, call, t0, t1, map[string]int64{"answers": int64(answered)})
		}
		res.attempted += querySubjects
		res.failed += int64(querySubjects - answered)
		for _, m := range means {
			if !(m >= 0 && m <= 1) {
				res.violate("read-out mean %v outside [0, 1]", m)
			}
		}
		return t1.Sub(t0), answered
	})
	res.addPhase("query", time.Since(start))
	res.metrics["cluster.readout_answers_per_s"] = median(q.rates)
	res.metrics["cluster.readout_p50_us"] = quantile(q.latUS, 0.5)
	res.metrics["cluster.readout_p90_us"] = quantile(q.latUS, 0.9)
	res.notes = append(res.notes, fmt.Sprintf("query: %d read-out calls of %d subjects in %d slices; p99 %.6g us",
		len(q.latUS), querySubjects, len(q.rates), quantile(q.latUS, 0.99)))
}

// readOut resolves one subject the way the harness does: the monitors it
// reports, verified against the scheme, each asked for its estimate; the
// answer is their mean. It fails when no verified monitor has one.
func readOut(c *avmon.Cluster, scheme avmon.SelectionScheme, idx int) (float64, bool) {
	subject := c.IDOf(idx)
	reported := c.ReportMonitors(idx, 0)
	verified, err := avmon.VerifyReport(scheme, subject, reported, len(reported))
	if err != nil {
		return 0, false
	}
	sum, n := 0.0, 0
	for _, mon := range verified {
		mi, ok := c.IndexOf(mon)
		if !ok {
			continue
		}
		if est, known := c.EstimateBy(mi, subject); known {
			sum += est
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}
