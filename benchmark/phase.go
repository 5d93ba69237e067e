package main

import "time"

const (
	// phaseSlices is how many equal slices a closed-loop phase is cut
	// into; a rate is the median slice's, so a short stall costs one
	// slice, not the run. windowSlices is the same for the fleets'
	// wall-paced window.
	phaseSlices  = 20
	windowSlices = 10
)

// queryPhase is what a closed-loop query phase measured.
type queryPhase struct {
	rates []float64 // per slice: verified answers per second of time inside calls
	latUS []float64 // every call's latency
}

// closedLoop runs call back to back, one at a time, until phaseSlices
// slices, each of dur/phaseSlices of time spent inside calls, are full
// (or, on a host that has all but stopped, three times dur has passed).
// call gets the 1-based call number and returns the call's latency and
// how many answers it verified; whatever it does outside that interval
// (drawing subjects, checking answers) is not on the clock. onSlice, if
// not nil, is told each slice's index before the slice starts.
func closedLoop(dur time.Duration, onSlice func(int), call func(n int64) (time.Duration, int)) *queryPhase {
	q := &queryPhase{}
	sliceLen := dur / phaseSlices
	deadline := time.Now().Add(3 * dur)
	var n int64
	for s := 0; s < phaseSlices && time.Now().Before(deadline); s++ {
		if onSlice != nil {
			onSlice(s)
		}
		var inSlice time.Duration
		answers := 0
		for inSlice < sliceLen && time.Now().Before(deadline) {
			n++
			d, ok := call(n)
			inSlice += d
			answers += ok
			q.latUS = append(q.latUS, float64(d.Nanoseconds())/1e3)
		}
		if inSlice > 0 {
			q.rates = append(q.rates, float64(answers)/inSlice.Seconds())
		}
	}
	return q
}

// overheadPct is how much slower the traced slices of a phase ran than
// the untraced ones, in percent of the untraced median rate.
func overheadPct(untraced, traced []float64) float64 {
	if len(untraced) == 0 || len(traced) == 0 {
		return 0
	}
	u := median(untraced)
	return (u - median(traced)) / u * 100
}
