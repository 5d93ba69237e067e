package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"avmon"
	"avmon/internal/core"
	"avmon/internal/ids"
	"avmon/internal/memnet"
	"avmon/internal/observer"
)

// fleetSpec sizes one live-fleet workload: real Services over one
// memnet network (no modelled latency or loss), a control group that
// joins at the start of the protocol window, and a closed-loop
// QueryBatch phase from node 0.
type fleetSpec struct {
	name          string
	base, joiners int
	n, k, cvs     int // protocol parameters
	period        time.Duration
	warmup        int // protocol periods between booting the base fleet and the window
	setups        int // how many times a run sets the fleet up (setup_s is the median)
	timeout       time.Duration
	// cacheEntries > 0 gives node 0 an answer cache of that size (TTL one
	// hour, so nothing expires) and draws subjects Zipf(zipfS) instead of
	// uniformly.
	cacheEntries int
	zipfS        float64
}

var fleetWire = fleetSpec{
	name: "fleet_wire", base: 64, joiners: 32, n: 64, k: 6, cvs: 11,
	period: 50 * time.Millisecond, warmup: 30, setups: 3, timeout: 500 * time.Millisecond,
}

var fleetCached = fleetSpec{
	name: "fleet_cached", base: 64, joiners: 32, n: 64, k: 6, cvs: 11,
	period: 50 * time.Millisecond, warmup: 30, setups: 3, timeout: 500 * time.Millisecond,
	cacheEntries: 32, zipfS: 1.1,
}

// countingClock is the wall clock, counting every protocol tick a
// Service actually consumes. A tick is offered on an unbuffered channel,
// so a Service that is still busy with the previous one lets the
// underlying time.Ticker drop ticks: the count falls below
// nodes × 2 tickers / period exactly when the fleet cannot keep up.
type countingClock struct {
	ticks atomic.Int64
	wg    sync.WaitGroup
}

func (c *countingClock) Now() time.Time { return time.Now() }

func (c *countingClock) Ticker(period time.Duration) (<-chan time.Time, func()) {
	t := time.NewTicker(period)
	out := make(chan time.Time)
	stop := make(chan struct{})
	var once sync.Once
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		defer t.Stop()
		for {
			select {
			case now := <-t.C:
				select {
				case out <- now:
					c.ticks.Add(1)
				case <-stop:
					return
				}
			case <-stop:
				return
			}
		}
	}()
	return out, func() { once.Do(func() { close(stop) }) }
}

// msgTypes is one more than the highest core.MsgType.
const msgTypes = int(core.MsgAvailBatchResp) + 1

// fleetTracer is the traced pass's view of every Service's transport:
// per-message-type handler and send time (counted at the boundary where
// the work happens), plus spans for the messages of sampled queries,
// matched to their query by nonce.
type fleetTracer struct {
	rec     *recorder
	querier ids.ID

	handleNS, handleN [msgTypes]atomic.Int64
	sendNS, sendN     atomic.Int64

	// The sampled query in flight (one closed-loop client, so at most
	// one): its ID and span, and the nonces node 0 sent on its behalf.
	mu      sync.Mutex
	query   int64
	parent  int64
	byNonce map[uint64]struct{}
}

func (t *fleetTracer) beginQuery(query, parent int64) {
	t.mu.Lock()
	t.query, t.parent = query, parent
	t.byNonce = make(map[uint64]struct{})
	t.mu.Unlock()
}

func (t *fleetTracer) endQuery() {
	t.mu.Lock()
	t.query, t.parent, t.byNonce = 0, 0, nil
	t.mu.Unlock()
}

// span records one transport-level span if the message belongs to the
// sampled query in flight.
func (t *fleetTracer) span(name string, at ids.ID, typ core.MsgType, nonce uint64, t0, t1 time.Time) {
	if nonce == 0 {
		return // protocol traffic: counted, not traced
	}
	t.mu.Lock()
	query, parent := t.query, t.parent
	if query != 0 {
		if at == t.querier && name == "transport.send" {
			t.byNonce[nonce] = struct{}{}
		} else if _, ok := t.byNonce[nonce]; !ok {
			query = 0
		}
	}
	t.mu.Unlock()
	if query != 0 {
		t.rec.record(name, parent, query, t0, t1, map[string]int64{"msg_type": int64(typ), "node": nodeIndex(at)})
	}
}

// nodeIndex is a fleet member's boot index (its identity is ids.Sim of
// that index plus one).
func nodeIndex(id ids.ID) int64 {
	i, _ := ids.SimIndex(id)
	return int64(i - 1)
}

// tracingTransport wraps a Service's Transport at the two public
// boundaries: Send and the handler Serve invokes.
type tracingTransport struct {
	inner *memnet.Transport
	tr    *fleetTracer
}

func (t *tracingTransport) ID() ids.ID   { return t.inner.ID() }
func (t *tracingTransport) Close() error { return t.inner.Close() }

func (t *tracingTransport) Send(to ids.ID, m *core.Message) {
	if !t.tr.rec.enabled() {
		t.inner.Send(to, m)
		return
	}
	typ, nonce := m.Type, m.Nonce
	t0 := time.Now()
	t.inner.Send(to, m)
	t1 := time.Now()
	t.tr.sendNS.Add(int64(t1.Sub(t0)))
	t.tr.sendN.Add(1)
	t.tr.span("transport.send", t.inner.ID(), typ, nonce, t0, t1)
}

func (t *tracingTransport) Serve(handle func(from ids.ID, m *core.Message)) error {
	return t.inner.Serve(func(from ids.ID, m *core.Message) {
		if !t.tr.rec.enabled() {
			handle(from, m)
			return
		}
		typ, nonce := m.Type, m.Nonce
		t0 := time.Now()
		handle(from, m)
		t1 := time.Now()
		if int(typ) < msgTypes {
			t.tr.handleNS[typ].Add(int64(t1.Sub(t0)))
			t.tr.handleN[typ].Add(1)
		}
		t.tr.span("transport.handle", t.inner.ID(), typ, nonce, t0, t1)
	})
}

// meanHandleNS is the mean handler time of the given message types (all
// of them when none is given), lock wait included.
func (t *fleetTracer) meanHandleNS(types ...core.MsgType) float64 {
	var ns, n int64
	if len(types) == 0 {
		for i := 0; i < msgTypes; i++ {
			ns += t.handleNS[i].Load()
			n += t.handleN[i].Load()
		}
	}
	for _, typ := range types {
		ns += t.handleNS[typ].Load()
		n += t.handleN[typ].Load()
	}
	if n == 0 {
		return 0
	}
	return float64(ns) / float64(n)
}

// fleet is a set of running Services on one memnet network.
type fleet struct {
	spec   fleetSpec
	seed   int64
	net    *memnet.Network
	clock  *countingClock
	tracer *fleetTracer // nil in the untraced pass
	svcs   []*avmon.Service
	trs    []*memnet.Transport
	ids    []ids.ID
}

func newFleet(spec fleetSpec, seed int64, rec *recorder) *fleet {
	f := &fleet{
		spec:  spec,
		seed:  seed,
		net:   memnet.New(memnet.Config{Seed: seed*2 + 1, InboxDepth: 8192}),
		clock: &countingClock{},
	}
	if rec != nil {
		f.tracer = &fleetTracer{rec: rec, querier: ids.Sim(1)}
	}
	return f
}

// boot starts Service i, joining through bootstrap ("" for the first).
func (f *fleet) boot(i int, bootstrap string, cacheEntries int) (*avmon.Service, error) {
	start := time.Now()
	id := ids.Sim(i + 1)
	mt, err := f.net.Listen(id)
	if err != nil {
		return nil, err
	}
	var tr avmon.Transport = mt
	if f.tracer != nil {
		tr = &tracingTransport{inner: mt, tr: f.tracer}
	}
	cfg := avmon.ServiceConfig{
		Addr:      id.String(),
		Bootstrap: bootstrap,
		N:         f.spec.n,
		Options: avmon.NodeOptions{
			K: f.spec.k, CVS: f.spec.cvs, Period: f.spec.period, MonitorPeriod: f.spec.period,
		},
		Seed:      f.seed*1000 + int64(i) + 1,
		Transport: tr,
		Clock:     f.clock,
	}
	if cacheEntries > 0 {
		cfg.QueryCache, cfg.QueryCacheTTL, cfg.QueryCacheEntries = true, time.Hour, cacheEntries
	}
	svc, err := avmon.NewService(cfg)
	if err != nil {
		_ = mt.Close() // NewService failed: the transport is still ours
		return nil, fmt.Errorf("NewService %d: %w", i, err)
	}
	if err := svc.Start(); err != nil {
		svc.Stop()
		return nil, fmt.Errorf("Start %d: %w", i, err)
	}
	f.svcs = append(f.svcs, svc)
	f.trs = append(f.trs, mt)
	f.ids = append(f.ids, id)
	if f.tracer != nil {
		f.tracer.rec.record("service.new/start", 0, 0, start, time.Now(), map[string]int64{"node": int64(i)})
	}
	return svc, nil
}

// close stops every Service, then the network, then waits for the
// clock's ticker goroutines.
func (f *fleet) close() {
	for _, s := range f.svcs {
		s.Stop()
	}
	f.net.Close()
	f.clock.wg.Wait()
}

// setupFleet boots the base fleet in a binary bootstrap tree and lets it
// run the warm-up periods.
func setupFleet(spec fleetSpec, seed int64, rec *recorder) (*fleet, error) {
	f := newFleet(spec, seed, rec)
	for i := 0; i < spec.base; i++ {
		bootstrap, cache := "", 0
		if i > 0 {
			bootstrap = f.ids[i/2].String()
		} else {
			cache = spec.cacheEntries
		}
		if _, err := f.boot(i, bootstrap, cache); err != nil {
			f.close()
			return nil, err
		}
		// Boots are spread over one period so the nodes' tickers are out
		// of phase, as independently started nodes' are; booted back to
		// back, all tick in the same instant.
		time.Sleep(spec.period / time.Duration(spec.base))
	}
	time.Sleep(time.Duration(spec.warmup) * spec.period)
	return f, nil
}

// fleetTotals is one sweep over every Service and transport.
type fleetTotals struct {
	wireBytes, datagrams, hashChecks uint64
}

func (f *fleet) totals() fleetTotals {
	var t fleetTotals
	for i, s := range f.svcs {
		_, _, _, checks := s.Stats()
		t.hashChecks += checks
		t.wireBytes += f.trs[i].WireBytesSent()
		t.datagrams += f.trs[i].DatagramsSent()
	}
	return t
}

// subjectStream draws the query phase's subjects: uniform over the other
// nodes, or Zipf-ranked over them for the cached workload. It is a pure
// function of (spec, seed).
type subjectStream struct {
	others []ids.ID
	rng    *rand.Rand
	zipf   *rand.Zipf
}

func newSubjectStream(spec fleetSpec, seed int64) *subjectStream {
	s := &subjectStream{rng: rand.New(rand.NewSource(seed ^ 0x5AB1EC75))}
	for i := 1; i < spec.base+spec.joiners; i++ {
		s.others = append(s.others, ids.Sim(i+1))
	}
	if spec.cacheEntries > 0 {
		s.zipf = rand.NewZipf(s.rng, spec.zipfS, 1, uint64(len(s.others)-1))
	}
	return s
}

func (s *subjectStream) next(batch []ids.ID) {
	for i := range batch {
		if s.zipf != nil {
			batch[i] = s.others[s.zipf.Uint64()]
		} else {
			batch[i] = s.others[s.rng.Intn(len(s.others))]
		}
	}
}

// runFleet runs one live-fleet workload.
func runFleet(spec fleetSpec, cfg runConfig) (*result, error) {
	res := newResult(cfg, "memnet (in-process loopback, real codec, no sockets)")
	var rec *recorder
	repeats := spec.setups
	if cfg.trace {
		rec = newRecorder()
		repeats = 1
	}

	var f *fleet
	var setups []float64
	for i := 0; i < repeats; i++ {
		if f != nil {
			f.close()
		}
		began := time.Now()
		if i == 0 {
			began = processStart // a user starting the program pays process start too
		}
		var err error
		if f, err = setupFleet(spec, cfg.seed, rec); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(began).Seconds())
	}
	defer f.close()
	res.metrics["setup_s"] = median(setups)
	res.addPhase("setup", time.Since(processStart))

	// Protocol window: the control group joins at its start.
	budget := time.Duration(cfg.seconds / 2 * float64(time.Second))
	windowStart := time.Now()
	base := f.totals()
	ticks0 := f.clock.ticks.Load()
	cpu0 := processCPU()
	joinRNG := rand.New(rand.NewSource(cfg.seed ^ 0x10117E25))
	joiners := make(chan joiner, spec.joiners)
	discovery := watchDiscovery(joiners, spec.period, windowStart.Add(budget), rec)
	for j := 0; j < spec.joiners; j++ {
		bootstrap := f.ids[joinRNG.Intn(spec.base)].String()
		at := time.Now()
		svc, err := f.boot(spec.base+j, bootstrap, 0)
		if err != nil {
			close(joiners)
			<-discovery
			return nil, err
		}
		joiners <- joiner{svc: svc, index: spec.base + j, at: at}
		time.Sleep(spec.period / time.Duration(spec.joiners)) // out of phase, as in set-up
	}
	close(joiners)

	var rates []float64
	lastTicks, lastAt := ticks0, windowStart
	for s := 1; s <= windowSlices; s++ {
		time.Sleep(time.Until(windowStart.Add(time.Duration(s) * budget / windowSlices)))
		now, ticks := time.Now(), f.clock.ticks.Load()
		// Two tickers per node (protocol and monitoring period).
		rates = append(rates, float64(ticks-lastTicks)/2/now.Sub(lastAt).Seconds())
		lastTicks, lastAt = ticks, now
	}
	windowEnd := time.Now()
	end := f.totals()
	nodePeriods := float64(f.clock.ticks.Load()-ticks0) / 2
	cpuWindow := processCPU() - cpu0
	discovered := <-discovery
	// The live heap of a running fleet moves with what is in flight at the
	// instant of the collection (19.7 to 25.7 MB within one run), so it is
	// read several times, out of step with the protocol period, and the
	// median counts.
	heap := make([]float64, 9)
	for i := range heap {
		heap[i] = liveHeapMB()
		time.Sleep(spec.period * 3 / 4)
	}
	res.addPhase("window", windowEnd.Sub(windowStart))

	res.metrics["service.node_periods_per_s"] = median(rates)
	res.metrics["core.discovery_median_periods"] = median(discovered)
	res.metrics["heap_live_mb"] = median(heap)
	res.metrics["bytes_per_node_period"] = float64(end.wireBytes-base.wireBytes) / nodePeriods
	res.metrics["hash_checks_per_node_period"] = float64(end.hashChecks-base.hashChecks) / nodePeriods
	res.attempted += int64(spec.joiners)
	res.failed += int64(spec.joiners - len(discovered))
	if float64(len(discovered)) < 0.95*float64(spec.joiners) {
		res.violate("only %d of %d control joiners discovered a monitor", len(discovered), spec.joiners)
	}
	res.notes = append(res.notes,
		fmt.Sprintf("window: %d slices of %v, %.0f node-periods consumed (nominal %.0f/s)",
			len(rates), budget/windowSlices, nodePeriods, float64(len(f.svcs))/spec.period.Seconds()),
		fmt.Sprintf("discovery: %d of %d control joiners, median %.3f periods (polled every %v)",
			len(discovered), spec.joiners, median(discovered), spec.period/50))

	// Query phase: one closed-loop client on node 0.
	q, qs := f.queryPhase(cfg.seed, budget, rec, res)

	// Nothing may have been dropped anywhere.
	st := f.net.Stats()
	var malformed, sent uint64
	for _, tr := range f.trs {
		malformed += tr.DroppedDatagrams()
		sent += tr.DatagramsSent()
	}
	res.attempted += int64(sent)
	res.failed += int64(st.LossDrops + st.UnroutableDrops + st.InboxOverflows + malformed)
	if st.LossDrops+st.UnroutableDrops+st.InboxOverflows+malformed > 0 {
		res.violate("memnet dropped datagrams: loss %d, unroutable %d, inbox overflow %d, malformed %d",
			st.LossDrops, st.UnroutableDrops, st.InboxOverflows, malformed)
	}
	res.fingerprint = fmt.Sprintf("subjects=%x", qs.subjectDigest)

	if cfg.trace {
		lm := res.metrics
		lm["memnet.datagrams_per_node_period"] = float64(end.datagrams-base.datagrams) / nodePeriods
		lm["memnet.loss_drops"] = float64(st.LossDrops)
		lm["memnet.unroutable_drops"] = float64(st.UnroutableDrops)
		lm["memnet.inbox_overflows"] = float64(st.InboxOverflows)
		lm["service.cpu_us_per_node_period"] = float64(cpuWindow.Microseconds()) / nodePeriods
		lm["service.handle_ns"] = f.tracer.meanHandleNS()
		lm["service.handle_availbatch_ns"] = f.tracer.meanHandleNS(core.MsgAvailBatchReq)
		lm["service.handle_report_ns"] = f.tracer.meanHandleNS(core.MsgReportReq)
		if n := f.tracer.sendN.Load(); n > 0 {
			lm["service.send_ns"] = float64(f.tracer.sendNS.Load()) / float64(n)
		}
		// Protocol traffic keeps flowing during the query phase; take it
		// out at the window's rate.
		protoBytes := float64(end.wireBytes-base.wireBytes) / windowEnd.Sub(windowStart).Seconds() * qs.wall.Seconds()
		lm["service.wire_bytes_per_answer"] = (float64(qs.wireBytes) - protoBytes) / float64(qs.answers)
		lm["service.allocs_per_answer"] = float64(qs.mallocs) / float64(qs.answers)
		var dropped uint64
		for _, s := range f.svcs {
			dropped += s.DroppedResponses()
		}
		lm["service.dropped_responses"] = float64(dropped)
		if cs, ok := f.svcs[0].QueryCacheStats(); ok {
			lm["querycache.hit_ratio"] = float64(cs.Hits) / float64(cs.Hits+cs.Misses)
			lm["querycache.flushes"] = float64(cs.Flushes)
		}
		// The query phase's slices alternate tracing on (even) and off.
		var on, off []float64
		for i, r := range q.rates {
			if i%2 == 0 {
				on = append(on, r)
			} else {
				off = append(off, r)
			}
		}
		lm["trace.overhead_pct"] = overheadPct(off, on)
		lm["service.answers_per_s"] = median(off)
		if err := f.liveLayers(lm); err != nil {
			return nil, err
		}
		for k, v := range cfg.layers {
			lm[k] = v
		}
		res.trace = rec
	}
	return res, nil
}

// joiner is one control-group Service and when it was started.
type joiner struct {
	svc   *avmon.Service
	index int
	at    time.Time
}

// watchDiscovery polls every joiner handed to it, each period/50, until
// each has a monitor or the deadline passes, and delivers the discovery
// times (in periods) of those that did. The caller closes joiners after
// the last one.
func watchDiscovery(joiners <-chan joiner, period time.Duration, deadline time.Time, rec *recorder) <-chan []float64 {
	out := make(chan []float64, 1)
	go func() {
		var found []float64
		var pending []joiner
		open := true
		for (open || len(pending) > 0) && time.Now().Before(deadline) {
			for more := open; more; {
				select {
				case j, ok := <-joiners:
					if ok {
						pending = append(pending, j)
					} else {
						open, more = false, false
					}
				default:
					more = false
				}
			}
			keep := pending[:0]
			for _, j := range pending {
				if ps, _, _, _ := j.svc.Stats(); ps > 0 {
					now := time.Now()
					found = append(found, float64(now.Sub(j.at))/float64(period))
					rec.record("joiner.discovery", 0, 0, j.at, now, map[string]int64{"node": int64(j.index)})
				} else {
					keep = append(keep, j)
				}
			}
			pending = keep
			time.Sleep(period / 50)
		}
		out <- found
	}()
	return out
}

// queryStats is what the query phase counted besides its latencies.
type queryStats struct {
	answers       int64
	wall          time.Duration
	wireBytes     uint64
	mallocs       uint64
	subjectDigest uint64
}

// queryPhase runs QueryBatch calls of 16 subjects from node 0, one at a
// time, for dur of time inside calls, and checks every answer.
func (f *fleet) queryPhase(seed int64, dur time.Duration, rec *recorder, res *result) (*queryPhase, queryStats) {
	start := time.Now()
	scheme, err := avmon.NewSelector(avmon.HashMD5, f.spec.k, f.spec.n)
	if err != nil {
		res.violate("selector: %v", err)
		return &queryPhase{}, queryStats{}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	bytes0 := f.totals().wireBytes
	stream := newSubjectStream(f.spec, seed)
	var qs queryStats
	qs.subjectDigest = 14695981039346656037
	batch := make([]ids.ID, querySubjects)
	querier := f.svcs[0]
	// The traced pass records on alternate slices only; the difference
	// between the two kinds of slice is the tracing overhead.
	onSlice := func(index int) { rec.setEnabled(index%2 == 0) }
	q := closedLoop(dur, onSlice, func(call int64) (time.Duration, int) {
		stream.next(batch)
		for _, s := range batch {
			qs.subjectDigest = (qs.subjectDigest ^ uint64(s)) * 1099511628211
		}
		// One query in 64 is traced span by span; the rest only count.
		var spanID int64
		if f.tracer != nil && call%64 == 1 {
			if spanID = rec.reserve(); spanID != 0 {
				f.tracer.beginQuery(call, spanID)
			}
		}
		t0 := time.Now()
		answers := querier.QueryBatch(batch, 0, f.spec.timeout)
		t1 := time.Now()
		ok := 0
		for _, a := range answers {
			if a.Err == nil {
				ok++
			}
		}
		if spanID != 0 {
			f.tracer.endQuery()
			rec.recordAs(spanID, "service.query_batch", 0, call, t0, t1, map[string]int64{"answers": int64(ok)})
		}
		qs.answers += int64(ok)
		res.attempted += int64(len(answers))
		res.failed += int64(len(answers) - ok)
		checkAnswers(scheme, answers, res)
		return t1.Sub(t0), ok
	})
	rec.setEnabled(true)
	runtime.ReadMemStats(&ms1)
	qs.wall = time.Since(start)
	qs.wireBytes = f.totals().wireBytes - bytes0
	qs.mallocs = ms1.Mallocs - ms0.Mallocs
	res.addPhase("query", qs.wall)
	res.metrics["service.answers_per_s"] = median(q.rates)
	res.metrics["service.query_p50_us"] = quantile(q.latUS, 0.5)
	res.metrics["service.query_p90_us"] = quantile(q.latUS, 0.9)
	res.metrics["service.query_p99_us"] = quantile(q.latUS, 0.99)
	res.notes = append(res.notes, fmt.Sprintf("query: %d QueryBatch calls of %d subjects in %d slices", len(q.latUS), querySubjects, len(q.rates)))
	return q, qs
}

// checkAnswers re-verifies every answered report: its monitors must pass
// the consistency condition for its subject and its mean must be an
// availability.
func checkAnswers(scheme avmon.SelectionScheme, answers []avmon.BatchAnswer, res *result) {
	for _, a := range answers {
		if a.Err != nil {
			continue
		}
		r := a.Report
		if r == nil || r.Subject != a.Subject || len(r.Monitors) == 0 || len(r.Monitors) != len(r.Estimates) {
			res.violate("malformed answer for %v", a.Subject)
			continue
		}
		if _, err := avmon.VerifyReport(scheme, r.Subject, r.Monitors, 1); err != nil {
			res.violate("answer for %v does not re-verify: %v", r.Subject, err)
		}
		if !(r.Mean >= 0 && r.Mean <= 1) {
			res.violate("answer for %v has mean %v outside [0, 1]", r.Subject, r.Mean)
		}
	}
}

// liveLayers measures, on the running fleet, the per-layer numbers that
// need live Services: a single uncached query, a Stats call, an observer
// scrape, and the all-hit cache regime through an extra cached querier.
func (f *fleet) liveLayers(lm map[string]float64) error {
	// service.query_single_us: QueryAvailability from node 1 (never
	// cached), subjects round-robin over the base fleet.
	var single []float64
	for i := 0; i < 200; i++ {
		subject := f.ids[2+i%(f.spec.base-2)]
		t0 := time.Now()
		if _, err := f.svcs[1].QueryAvailability(subject, 0, f.spec.timeout); err == nil {
			single = append(single, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	if len(single) > 0 {
		lm["service.query_single_us"] = median(single)
	}

	const sweeps = 20
	t0 := time.Now()
	for r := 0; r < sweeps; r++ {
		for _, s := range f.svcs {
			s.Stats()
		}
	}
	lm["service.stats_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(sweeps*len(f.svcs))

	obs := observer.New(time.Hour) // never started: scraped by hand
	for i, s := range f.svcs {
		obs.Add(observer.Target{Node: s, Traffic: f.trs[i]})
	}
	t0 = time.Now()
	for r := 0; r < sweeps; r++ {
		obs.ScrapeOnce()
	}
	lm["observer.scrape_ns_per_target"] = float64(time.Since(t0).Nanoseconds()) / float64(sweeps*len(f.svcs))

	// querycache.hit_answers_per_s: an extra querier whose cache holds
	// the whole batch, asked the same 16 subjects over and over.
	aux, err := f.boot(len(f.svcs), f.ids[0].String(), 4*querySubjects)
	if err != nil {
		return err
	}
	batch := append([]ids.ID(nil), f.ids[1:1+querySubjects]...)
	for try := 0; try < 50; try++ { // until every subject is answered and cached
		filled := 0
		for _, a := range aux.QueryBatch(batch, 0, f.spec.timeout) {
			if a.Err == nil {
				filled++
			}
		}
		if filled == len(batch) {
			break
		}
	}
	var rates []float64
	for block := 0; block < 8; block++ {
		const calls = 4096
		t0 := time.Now()
		hits := 0
		for i := 0; i < calls; i++ {
			for _, a := range aux.QueryBatch(batch, 0, f.spec.timeout) {
				if a.Err == nil {
					hits++
				}
			}
		}
		rates = append(rates, float64(hits)/time.Since(t0).Seconds())
	}
	lm["querycache.hit_answers_per_s"] = median(rates)
	return nil
}
