package experiments

// The parallel experiment engine. A sweep is a list of independent
// points — one isolated simulation per N × scheme × seed combination —
// handed whole to runAllPaired, which fans the points across a bounded
// worker pool. Determinism is preserved by construction: a point's seed
// is deriveSeed(o.Seed, its seed position in the sweep), and outcomes
// are returned in input order, so serial (Parallelism: 1) and parallel
// runs produce byte-identical tables and figures.

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
)

// ProgressFunc receives a completion update each time a sweep point
// finishes: done points so far, the total for the current sweep, and a
// short label naming the sweep and the finished point. Calls are
// serialized and done increases by one per call; it reaches total
// only on success (a failing sweep aborts without running its
// remaining points).
type ProgressFunc func(done, total int, label string)

// deriveSeed maps (base seed, sweep-point index) to the point's
// simulation seed with a splitmix64 finalizer. Every point gets an
// independent, well-mixed stream, and the mapping depends only on the
// base seed and the point's position in the sweep — never on worker
// count or completion order.
func deriveSeed(base int64, idx int) int64 {
	z := uint64(base) + uint64(idx+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// parallelism resolves the worker count: Options.Parallelism if set,
// otherwise GOMAXPROCS.
func (o Options) parallelism() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// forEachPoint runs fn(0) .. fn(total-1) across the option-configured
// worker pool and blocks until every dispatched point has finished.
// Once any point fails, no further points are dispatched or started
// (at paper scale a point is hours of simulated time; finishing the
// sweep just to report an error would be hostile). The returned error
// is the lowest-index recorded failure; when several points fail
// near-simultaneously, which of the in-flight points still ran can
// vary, but an error return is guaranteed and the whole sweep is
// discarded either way. label names a point for progress reporting.
func forEachPoint(o Options, total int, label func(int) string, fn func(int) error) error {
	if total == 0 {
		return nil
	}
	workers := o.parallelism()
	if workers > total {
		workers = total
	}
	errs := make([]error, total)
	idxCh := make(chan int)
	var (
		wg       sync.WaitGroup
		failed   atomic.Bool
		progMu   sync.Mutex
		progDone int
	)
	report := func(i int) {
		if o.Progress == nil {
			return
		}
		progMu.Lock()
		progDone++
		o.Progress(progDone, total, label(i))
		progMu.Unlock()
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idxCh {
				if failed.Load() {
					continue // sweep already failed; skip pending points
				}
				if errs[i] = fn(i); errs[i] != nil {
					failed.Store(true)
					continue // a failed point is not a completion
				}
				report(i)
			}
		}()
	}
	for i := 0; i < total && !failed.Load(); i++ {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// pointLabel names one scenario within its sweep.
func pointLabel(s scenario) string {
	if s.label != "" {
		return s.label
	}
	return fmt.Sprintf("%v N=%d", s.kind, s.n)
}

// hugeN and hugeMemLimit: a host-measured point of hugeN nodes or more
// runs under a Go soft memory limit of 7.5 GiB, leaving headroom under
// the 8 GiB peak-RSS budget the 10^6 point is held to. The limit turns
// "heap grows to 2× live" into "GC runs harder near the ceiling" — the
// right trade where doubling the live set would cost more RSS than the
// extra GC cycles cost wall-clock.
const (
	hugeN        = 300_000
	hugeMemLimit = int64(7680) << 20
)

// runAllPaired executes a sweep's scenarios as independent points and
// returns their outcomes in input order. It is the one place a sweep's
// rules are applied:
//
//   - Seeds. Point i runs with deriveSeed(o.Seed, its seed position),
//     overriding whatever seed the scenario carried. The position is
//     sw.group(i) when the sweep pairs its points — those sharing one
//     run against the same churn realization (common random numbers), so
//     their delta isolates the variant rather than seed-to-seed noise —
//     and otherwise the point's rank among the sweep's non-twin points,
//     a twin taking its twin's.
//   - The fingerprint gate. A point with scenario.twin set must end
//     with the Cluster.Fingerprint of the point that many places before
//     it, or the sweep fails naming both. scale's sharded rerun against
//     its serial run, the chaos suite's stepped zero-magnitude
//     control against its uninterrupted baseline and its collusion
//     attack against that control are this one rule.
//   - Host-measured sweeps (sw.serial) run one point at a time whatever
//     Options.Parallelism says — wall, heap and peak RSS are process-wide
//     and concurrent clusters would cross-contaminate them — keep the
//     shard count each scenario names instead of Options.Shards, and
//     take a memory reading around every point.
//   - Reduction. sw.reduce, when set, runs in the worker as soon as the
//     point finishes and only its row is kept, so a sweep of 10^5–10^6-
//     node clusters holds one at a time. Otherwise every outcome is held
//     until the sweep completes (views read them afterwards): at most 24
//     points of a few thousand nodes.
func runAllPaired(o Options, sw *sweep) ([]*outcome, error) {
	scens := sw.scens(o)
	pos := make([]int, len(scens))
	gated := make([]bool, len(scens))
	ranked := 0
	for i, s := range scens {
		if s.n < sw.minN {
			return nil, fmt.Errorf("%w: %s needs N ≥ %d, got %d", ErrInvalidOptions, sw.name, sw.minN, s.n)
		}
		switch {
		case sw.group != nil:
			pos[i] = sw.group(i)
		case s.twin > 0:
			pos[i] = pos[i-s.twin]
		default:
			pos[i] = ranked
			ranked++
		}
		if s.twin > 0 {
			gated[i], gated[i-s.twin] = true, true
		}
	}
	if sw.serial {
		o.Parallelism = 1
	}
	label := func(i int) string { return strings.TrimSpace(sw.name + " " + pointLabel(scens[i])) }
	var mu sync.Mutex
	prints := make([]string, len(scens))
	// settle records point i's fingerprint and fails once both ends of a
	// twin pair it belongs to are in and differ.
	settle := func(i int, print string) error {
		mu.Lock()
		defer mu.Unlock()
		prints[i] = print
		for k, s := range scens {
			j := k - s.twin
			if s.twin > 0 && (k == i || j == i) && prints[j] != "" && prints[k] != "" && prints[j] != prints[k] {
				return fmt.Errorf("%s ended with fingerprint %s, its twin %s with %s: they must be identical",
					label(k), prints[k], label(j), prints[j])
			}
		}
		return nil
	}
	outs := make([]*outcome, len(scens))
	err := forEachPoint(o, len(scens), label, func(i int) error {
		s := scens[i]
		s.seed = deriveSeed(o.Seed, pos[i])
		var before memUsage
		if sw.serial {
			if s.n >= hugeN {
				defer debug.SetMemoryLimit(debug.SetMemoryLimit(hugeMemLimit))
			}
			before = readMemUsage()
		} else {
			s.shards = o.Shards // byte-identical at any value
		}
		out, err := run(s)
		if err != nil {
			return err
		}
		if sw.serial {
			out.mem = readMemUsage()
			out.mem.TotalAllocMB -= before.TotalAllocMB
			out.mem.NumGC -= before.NumGC
		}
		if gated[i] {
			if err := settle(i, out.c.Fingerprint()); err != nil {
				return err
			}
		}
		if sw.reduce != nil {
			out = &outcome{s: s, row: sw.reduce(out)} // the cluster goes unreferenced here
		}
		outs[i] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	return outs, nil
}
