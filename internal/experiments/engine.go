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

// pointLabel names one scenario for progress output.
func pointLabel(s scenario) string {
	if s.label != "" {
		return s.label
	}
	return fmt.Sprintf("%v N=%d", s.kind, s.n)
}

// runAllPaired executes the scenarios as independent sweep points and
// returns their outcomes in input order. Point i runs with seed
// deriveSeed(o.Seed, groupOf(i)), overriding whatever seed the scenario
// carried, so the full sweep is reproducible from Options.Seed alone.
// Points in the same group share a derived seed: variants of one
// workload then run against the same churn realization (common random
// numbers), so their reported delta isolates the variant rather than
// seed-to-seed noise. nil groupOf gives every point its own seed, an
// independent replication.
//
// All outcomes are held until the sweep completes (views read them
// serially in sweep order afterwards); peak memory is therefore
// proportional to the sweep size rather than Parallelism. Sweeps top
// out at ~24 points, which keeps this bounded; a harness that needed
// more should reduce points to rows inside the worker, as
// ablation-rejoin-weight does with forEachPoint directly.
func runAllPaired(o Options, scens []scenario, groupOf func(int) int) ([]*outcome, error) {
	seedIdx := func(i int) int {
		if groupOf != nil {
			return groupOf(i)
		}
		return i
	}
	outs := make([]*outcome, len(scens))
	err := forEachPoint(o, len(scens),
		func(i int) string { return pointLabel(scens[i]) },
		func(i int) error {
			s := scens[i]
			s.seed = deriveSeed(o.Seed, seedIdx(i))
			s.shards = o.Shards // byte-identical at any value
			out, err := run(s)
			if err != nil {
				return err
			}
			outs[i] = out
			return nil
		})
	if err != nil {
		return nil, err
	}
	return outs, nil
}
