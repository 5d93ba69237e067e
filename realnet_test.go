package avmon

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"avmon/internal/ids"
	"avmon/internal/memnet"
	"avmon/internal/observer"
	"avmon/internal/simnet"
)

// newMemnetServices boots n real Service instances on the wall clock
// over an in-process memnet loopback, bootstrapped in a chain, and
// returns them with the network. Cleanup stops every service and
// closes the network.
func newMemnetServices(t *testing.T, n int, opts NodeOptions, netCfg memnet.Config) ([]*Service, *memnet.Network) {
	t.Helper()
	return newMemnetServicesOn(t, nil, n, opts, netCfg)
}

// newMemnetServicesOn is newMemnetServices with an injected protocol
// clock (nil = wall clock).
func newMemnetServicesOn(t *testing.T, clock Clock, n int, opts NodeOptions, netCfg memnet.Config) ([]*Service, *memnet.Network) {
	t.Helper()
	net := memnet.New(netCfg)
	t.Cleanup(net.Close)
	services := make([]*Service, 0, n)
	for i := 0; i < n; i++ {
		id := ids.Sim(i + 1)
		tr, err := net.Listen(id)
		if err != nil {
			t.Fatalf("memnet.Listen %d: %v", i, err)
		}
		cfg := ServiceConfig{
			Addr:      id.String(),
			N:         n,
			Options:   opts,
			Seed:      int64(i + 1),
			Transport: tr,
			Clock:     clock,
		}
		if i > 0 {
			cfg.Bootstrap = ids.Sim(1 + i/2).String() // binary-ish bootstrap tree
		}
		s, err := NewService(cfg)
		if err != nil {
			t.Fatalf("NewService %d: %v", i, err)
		}
		services = append(services, s)
		t.Cleanup(s.Stop)
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
	}
	return services, net
}

// TestServiceIdleBytes pins what a started, idle Service holds on the
// heap beside its transport: the node, its selector and generator, the
// query dispatcher and two tickers. The node's generator is the 32-byte
// xoshiro source the simulator uses; the stdlib's lagged Fibonacci table
// would add ≈ 4.9 KB to every Service.
func TestServiceIdleBytes(t *testing.T) {
	const services = 200
	const bound = 4608 // bytes per Service: measured ≈ 3.7 KB, plus 25 %
	net := memnet.New(memnet.Config{Seed: 1})
	defer net.Close()
	trs := make([]*memnet.Transport, services)
	for i := range trs {
		var err error
		if trs[i], err = net.Listen(ids.Sim(i + 1)); err != nil {
			t.Fatal(err)
		}
	}
	svcs := make([]*Service, 0, services)
	defer func() {
		for _, s := range svcs {
			s.Stop()
		}
	}()
	liveHeap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := liveHeap()
	for i, tr := range trs {
		s, err := NewService(ServiceConfig{
			Addr:      tr.ID().String(),
			N:         services,
			Options:   NodeOptions{Period: time.Hour, MonitorPeriod: time.Hour},
			Seed:      int64(i + 1),
			Transport: tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		svcs = append(svcs, s)
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
	}
	per := float64(liveHeap()-before) / services
	t.Logf("idle started Service: %.0f B", per)
	if per > bound {
		t.Errorf("an idle started Service holds %.0f B of live heap, want ≤ %d", per, bound)
	}
}

// waitDiscovered polls until at least want services report a non-empty
// pinging set, failing the test at the deadline.
func waitDiscovered(t *testing.T, services []*Service, want int, deadline time.Duration) {
	t.Helper()
	end := time.Now().Add(deadline)
	for {
		discovered := 0
		for _, s := range services {
			if ps, _, _, _ := s.Stats(); ps > 0 {
				discovered++
			}
		}
		if discovered >= want {
			return
		}
		if time.Now().After(end) {
			t.Fatalf("after %v only %d of %d services discovered monitors (want ≥ %d)",
				deadline, discovered, len(services), want)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestServiceMemnetLifecycleScale boots 200 real Service nodes over
// memnet, runs an observer concurrently with the protocol, issues
// queries, and stops everything — the start→query→stop lifecycle edge
// the realnet harness depends on, exercised under -race in CI.
func TestServiceMemnetLifecycleScale(t *testing.T) {
	if testing.Short() {
		t.Skip("large realnet test")
	}
	const n = 200
	lat, err := simnet.NewConstantLatency(2 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// Periods are deliberately modest: 200 nodes under the race
	// detector saturate the loopback if driven at sim-benchmark rates.
	opts := NodeOptions{
		K:             5,
		CVS:           10,
		Period:        250 * time.Millisecond,
		MonitorPeriod: 250 * time.Millisecond,
		Hash:          HashFast,
	}
	services, net := newMemnetServices(t, n, opts,
		memnet.Config{Latency: lat, Seed: 7, InboxDepth: 8192})

	// Observe every node while the protocol runs.
	obs := observer.New(50 * time.Millisecond)
	for _, s := range services {
		obs.Add(observer.Target{Node: s})
	}
	obs.Start()
	defer obs.Stop()

	waitDiscovered(t, services, n*6/10, 60*time.Second)

	// Query subjects end to end through the running mesh until one
	// resolves (individual attempts may race monitor churn).
	answered := 0
	for i := 0; i < 20 && answered == 0; i++ {
		subject := services[(i*17+3)%n]
		if ps, _, _, _ := subject.Stats(); ps == 0 {
			continue
		}
		querier := services[(i*29+11)%n]
		if querier == subject {
			continue
		}
		if r, err := querier.QueryAvailability(subject.ID(), 0, 3*time.Second); err == nil {
			answered++
			if r.Mean < 0 || r.Mean > 1 {
				t.Errorf("availability estimate %v out of [0,1]", r.Mean)
			}
		}
	}
	if answered == 0 {
		t.Error("no query against the live mesh succeeded")
	}

	obs.Stop()
	if obs.Scrapes() == 0 {
		t.Error("observer never completed a scrape")
	}
	// Observed discovery must be visible for most nodes. One scrape
	// after the loop has stopped reads the fleet's state, not how often
	// a loaded host let the 50 ms loop run.
	obs.ScrapeOnce()
	found := 0
	for i := 0; i < obs.Size(); i++ {
		if _, ok := obs.DiscoveryTime(i); ok {
			found++
		}
	}
	if found < n/2 {
		t.Errorf("observer recorded discovery for only %d/%d nodes", found, n)
	}

	// Orderly stop of all 200 nodes; Cleanup re-stops idempotently.
	for _, s := range services {
		s.Stop()
	}
	if st := net.Stats(); st.InboxOverflows > 0 {
		t.Logf("memnet inbox overflows: %d", st.InboxOverflows)
	}
}

// TestServiceObserverInvariance proves scraping is side-effect free:
// with protocol tickers effectively frozen, hammering the observer
// concurrently must leave every node's protocol fingerprint untouched.
func TestServiceObserverInvariance(t *testing.T) {
	const n = 20
	opts := NodeOptions{
		K:             4,
		CVS:           6,
		Period:        50 * time.Millisecond,
		MonitorPeriod: 50 * time.Millisecond,
		Hash:          HashFast,
	}
	services, _ := newMemnetServices(t, n, opts, memnet.Config{Seed: 11})
	waitDiscovered(t, services, n/2, 30*time.Second)

	// Freeze the protocol by stopping every service's tickers — the
	// scrape surface stays readable after Stop.
	for _, s := range services {
		s.Stop()
	}

	fingerprint := func() []string {
		fps := make([]string, n)
		for i, s := range services {
			ps, ts, cv, checks := s.Stats()
			fps[i] = fmt.Sprintf("%d/%d/%d/%d/%v/%v", ps, ts, cv, checks, s.Monitors(), s.Targets())
		}
		return fps
	}
	before := fingerprint()

	obs := observer.New(time.Millisecond)
	for _, s := range services {
		obs.Add(observer.Target{Node: s})
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				obs.ScrapeOnce()
			}
		}()
	}
	wg.Wait()

	after := fingerprint()
	for i := range before {
		if before[i] != after[i] {
			t.Errorf("node %d fingerprint changed under scraping:\n before %s\n after  %s",
				i, before[i], after[i])
		}
	}
	if obs.Scrapes() != 400 {
		t.Errorf("Scrapes = %d, want 400", obs.Scrapes())
	}
}

// TestServiceQueryBatchMemnetLoss runs QueryBatch against live memnet
// nodes under bursty Gilbert-Elliott loss: live subjects may answer,
// a stopped subject must fail with its own error without starving the
// rest (the per-phase timeout isolation property).
func TestServiceQueryBatchMemnetLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-dependent realnet test")
	}
	const n = 10
	lat, err := simnet.NewConstantLatency(2 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// Mild bursty loss: ~9% of time in a bad state dropping 30%.
	loss, err := simnet.NewGilbertElliottLoss(0.05, 0.5, 0.01, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	opts := NodeOptions{
		K:             4,
		CVS:           6,
		Period:        50 * time.Millisecond,
		MonitorPeriod: 50 * time.Millisecond,
		Hash:          HashFast,
	}
	services, _ := newMemnetServices(t, n, opts, memnet.Config{Latency: lat, Loss: loss, Seed: 3})
	waitDiscovered(t, services, n-2, 30*time.Second)

	dead := services[n-1]
	dead.Stop()

	querier := services[0]
	subjects := []ID{services[2].ID(), services[4].ID(), dead.ID()}
	deadline := time.Now().Add(20 * time.Second)
	for {
		answers := querier.QueryBatch(subjects, 0, 2*time.Second)
		if len(answers) != len(subjects) {
			t.Fatalf("QueryBatch returned %d answers for %d subjects", len(answers), len(subjects))
		}
		if answers[2].Err == nil {
			t.Fatalf("stopped subject resolved: %+v", answers[2].Report)
		}
		live := 0
		for _, a := range answers[:2] {
			if a.Err == nil && a.Report != nil {
				live++
			}
		}
		if live >= 1 {
			return // dead subject isolated, live subjects answered
		}
		if time.Now().After(deadline) {
			t.Fatalf("no live subject ever resolved under loss: %v / %v", answers[0].Err, answers[1].Err)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// TestServiceQueryBatchCachesInSubjectOrder pins which answers of one
// batch survive when the answer cache is smaller than the batch: the
// reports are stored in subject order, so the epoch flushes fall at
// fixed positions and the survivors are the batch's tail — on every
// repeat, not whichever a map iteration stored last.
func TestServiceQueryBatchCachesInSubjectOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("realnet test")
	}
	const n, batch, capacity, repeats = 12, 8, 3, 20
	opts := NodeOptions{
		K:             4,
		CVS:           6,
		Period:        50 * time.Millisecond,
		MonitorPeriod: 50 * time.Millisecond,
		Hash:          HashFast,
	}
	services, _ := newMemnetServices(t, n, opts, memnet.Config{Seed: 5})
	waitDiscovered(t, services, n, 30*time.Second)
	querier := services[0]
	subjects := make([]ID, batch)
	for i := range subjects {
		subjects[i] = services[i+1].ID()
	}
	// Stored 0,1,2 | flush, 3,4,5 | flush, 6,7.
	want := fmt.Sprint(subjects[6:])
	deadline := time.Now().Add(60 * time.Second)
	for good := 0; good < repeats; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d batches resolved every subject", good, repeats)
		}
		querier.answers = NewAnswerCache(time.Hour, capacity)
		resolved := 0
		for _, a := range querier.QueryBatch(subjects, 0, 2*time.Second) {
			if a.Err == nil {
				resolved++
			}
		}
		if resolved < batch {
			time.Sleep(50 * time.Millisecond) // a subject without an estimate yet
			continue
		}
		good++
		var cached []ID
		for _, subject := range subjects {
			if _, ok := querier.answers.entries[subject]; ok {
				cached = append(cached, subject)
			}
		}
		if got := fmt.Sprint(cached); got != want {
			t.Fatalf("batch %d left %s in a %d-entry cache, want %s", good, got, capacity, want)
		}
	}
}

// TestServiceQueryAvailabilitySkipsDeadMonitor is the regression test
// for the serial resolver's shared deadline: asking the monitors one
// after another let a dead first monitor eat the whole timeout, and the
// live ones then failed on an already-expired deadline. The one
// resolver asks every verified monitor at once, so a dead monitor costs
// its own estimate and nothing else.
func TestServiceQueryAvailabilitySkipsDeadMonitor(t *testing.T) {
	if testing.Short() {
		t.Skip("realnet test")
	}
	const n = 12
	opts := NodeOptions{
		K:             4,
		CVS:           6,
		Period:        50 * time.Millisecond,
		MonitorPeriod: 50 * time.Millisecond,
		Hash:          HashFast,
	}
	services, _ := newMemnetServices(t, n, opts, memnet.Config{Seed: 13})
	byID := make(map[ID]*Service, n)
	for _, s := range services {
		byID[s.ID()] = s
	}
	scheme, err := NewSelector(opts.Hash, opts.K, n)
	if err != nil {
		t.Fatal(err)
	}
	// A subject is ready once it has discovered its whole hash-defined
	// pinging set (so the set cannot grow under the test), that set has
	// at least three members, and each of them has an estimate of it.
	ready := func(s *Service) bool {
		want := 0
		for _, o := range services {
			if o != s && scheme.Related(o.ID(), s.ID()) {
				want++
			}
		}
		mons := s.Monitors()
		if want < 3 || len(mons) != want {
			return false
		}
		for _, mon := range mons {
			if _, known := byID[mon].EstimateOf(s.ID()); !known {
				return false
			}
		}
		return true
	}
	var subject *Service
	for deadline := time.Now().Add(30 * time.Second); subject == nil; {
		for _, s := range services {
			if ready(s) {
				subject = s
				break
			}
		}
		if subject == nil {
			if time.Now().After(deadline) {
				t.Fatal("no subject discovered its full pinging set of ≥ 3 monitors")
			}
			time.Sleep(25 * time.Millisecond)
		}
	}

	ps := subject.ReportMonitors(0)
	dead := byID[ps[0]]
	dead.Stop()
	var querier *Service
	for _, s := range services {
		if s != subject && !scheme.Related(s.ID(), subject.ID()) {
			querier = s // neither the subject nor any of its monitors
			break
		}
	}

	start := time.Now()
	r, err := querier.QueryAvailability(subject.ID(), 0, 400*time.Millisecond)
	if err != nil {
		t.Fatalf("query with first-reported monitor %v dead failed after %v: %v",
			dead.ID(), time.Since(start), err)
	}
	if len(r.Monitors) != len(ps)-1 {
		t.Errorf("report has %d monitors %v, want the %d live ones of %v",
			len(r.Monitors), r.Monitors, len(ps)-1, ps)
	}
	for i, mon := range r.Monitors {
		if mon == dead.ID() {
			t.Errorf("dead monitor %v answered", mon)
		}
		if est := r.Estimates[i]; est < 0 || est > 1 {
			t.Errorf("estimate %v from %v out of [0,1]", est, mon)
		}
	}
}

// TestServiceQueryNoMonitors pins the error for a subject that answers
// with an empty pinging set: ErrNoMonitors at once, not a timeout.
func TestServiceQueryNoMonitors(t *testing.T) {
	// Two nodes that were never introduced (no bootstrap) and never
	// tick (hour-long periods): neither can discover a monitor.
	net := memnet.New(memnet.Config{Seed: 1})
	t.Cleanup(net.Close)
	var services [2]*Service
	for i := range services {
		id := ids.Sim(i + 1)
		tr, err := net.Listen(id)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewService(ServiceConfig{
			Addr:      id.String(),
			N:         2,
			Options:   NodeOptions{K: 2, CVS: 4, Period: time.Hour, MonitorPeriod: time.Hour, Hash: HashFast},
			Seed:      int64(i + 1),
			Transport: tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Stop)
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		services[i] = s
	}
	const timeout = 5 * time.Second
	start := time.Now()
	r, err := services[0].QueryAvailability(services[1].ID(), 0, timeout)
	if r != nil || !errors.Is(err, ErrNoMonitors) || errors.Is(err, ErrQueryTimeout) {
		t.Fatalf("query of a monitor-less subject = (%v, %v), want ErrNoMonitors only", r, err)
	}
	if took := time.Since(start); took > timeout/5 {
		t.Errorf("empty report took %v to fail, want well under the %v timeout", took, timeout)
	}
}

// freezeClock is the wall clock until freeze stops every ticker it
// handed out: the fleet's protocol state then stands still while its
// transports stay open and keep answering queries (Stop would close
// them).
type freezeClock struct {
	mu      sync.Mutex
	tickers []*time.Ticker
}

func (c *freezeClock) Now() time.Time { return time.Now() }

func (c *freezeClock) Ticker(period time.Duration) (<-chan time.Time, func()) {
	t := time.NewTicker(period)
	c.mu.Lock()
	c.tickers = append(c.tickers, t)
	c.mu.Unlock()
	return t.C, t.Stop
}

func (c *freezeClock) freeze() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, t := range c.tickers {
		t.Stop()
	}
}

// TestServiceQueryAnswerInvariance resolves one fixed workload against
// a frozen live fleet six ways — with and without the answer cache,
// one subject at a time through QueryAvailability and batched 16 and
// 64 at a time through QueryBatch — and requires the six answer
// sequences to be identical and every report to re-verify: neither
// the cache nor the batching may change what a caller is told.
func TestServiceQueryAnswerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("realnet test")
	}
	const n, draws = 24, 240
	opts := NodeOptions{
		K:             5,
		CVS:           8,
		Period:        50 * time.Millisecond,
		MonitorPeriod: 50 * time.Millisecond,
		Hash:          HashFast,
	}
	clock := &freezeClock{}
	services, _ := newMemnetServicesOn(t, clock, n, opts, memnet.Config{Seed: 17})
	byID := make(map[ID]*Service, n)
	for _, s := range services {
		byID[s.ID()] = s
	}

	// Warm up until every node has a monitor that knows its estimate.
	answerable := func(s *Service) bool {
		for _, mon := range s.Monitors() {
			if _, known := byID[mon].EstimateOf(s.ID()); known {
				return true
			}
		}
		return false
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(25 * time.Millisecond) {
		pending := 0
		for _, s := range services {
			if !answerable(s) {
				pending++
			}
		}
		if pending == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d nodes never got a monitor with an estimate", pending, n)
		}
	}

	// Freeze, then drain: wait until everything an answer is made of —
	// each node's pinging set and each monitor's estimates — has stood
	// still for ten polls, so no tick or datagram is still in flight.
	clock.freeze()
	state := func() string {
		var sb strings.Builder
		for _, s := range services {
			fmt.Fprintf(&sb, "%v:%v", s.ID(), s.Monitors())
			for _, target := range s.Targets() {
				est, known := s.EstimateOf(target)
				fmt.Fprintf(&sb, " %v=%v/%v", target, est, known)
			}
			sb.WriteByte('\n')
		}
		return sb.String()
	}
	for last, still := state(), 0; still < 10; {
		time.Sleep(10 * time.Millisecond)
		if now := state(); now == last {
			still++
		} else {
			last, still = now, 0
		}
	}

	// One seeded workload with repeats, drawn from every node but the
	// querier. l = 0: each subject reports its whole pinging set, in
	// table order, so the sequence of monitors is part of the answer.
	querier := services[0]
	scheme := querier.scheme()
	rng := rand.New(rand.NewSource(18))
	workload := make([]ID, draws)
	for i := range workload {
		workload[i] = services[1+rng.Intn(n-1)].ID()
	}
	resolve := func(cache *AnswerCache, batch int) string {
		querier.answers = cache
		var sb strings.Builder
		record := func(subject ID, r *AvailabilityReport, err error) {
			if err != nil {
				t.Fatalf("cache=%v batch=%d: %v failed: %v", cache != nil, batch, subject, err)
			}
			if _, err := VerifyReport(scheme, subject, r.Monitors, len(r.Monitors)); err != nil {
				t.Errorf("cache=%v batch=%d: report for %v does not re-verify: %v", cache != nil, batch, subject, err)
			}
			fmt.Fprintf(&sb, "%v %v %v %v\n", r.Subject, r.Monitors, r.Estimates, r.Mean)
		}
		for lo := 0; lo < draws; lo += batch {
			hi := lo + batch
			if hi > draws {
				hi = draws
			}
			if batch == 1 {
				r, err := querier.QueryAvailability(workload[lo], 0, 5*time.Second)
				record(workload[lo], r, err)
				continue
			}
			for _, a := range querier.QueryBatch(workload[lo:hi], 0, 5*time.Second) {
				record(a.Subject, a.Report, a.Err)
			}
		}
		if cache != nil {
			if st := cache.Stats(); st.Hits == 0 {
				t.Errorf("batch=%d: cached arm recorded no hits: %+v", batch, st)
			}
		}
		return sb.String()
	}
	var want string
	for _, cached := range []bool{false, true} {
		for _, batch := range []int{1, 16, 64} {
			var cache *AnswerCache
			if cached {
				cache = NewAnswerCache(time.Hour, 0)
			}
			got := resolve(cache, batch)
			if want == "" {
				want = got // uncached, one by one
			} else if got != want {
				t.Errorf("cache=%v batch=%d answers differ from uncached one-by-one:\n got %s\nwant %s",
					cached, batch, got, want)
			}
		}
	}
}

// TestServiceDroppedResponsesOverMemnet forces a response to arrive
// after its query timed out — 40ms of modeled latency against a 1ms
// query timeout — and asserts the stale answer is accounted.
func TestServiceDroppedResponsesOverMemnet(t *testing.T) {
	const n = 4
	lat, err := simnet.NewConstantLatency(40 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	opts := NodeOptions{
		K:             2,
		CVS:           4,
		Period:        50 * time.Millisecond,
		MonitorPeriod: 50 * time.Millisecond,
		Hash:          HashFast,
	}
	services, _ := newMemnetServices(t, n, opts, memnet.Config{Latency: lat, Seed: 5})
	waitDiscovered(t, services, 1, 30*time.Second)

	querier, subject := services[0], services[1]
	deadline := time.Now().Add(15 * time.Second)
	for querier.DroppedResponses() == 0 {
		_, err := querier.QueryAvailability(subject.ID(), 0, time.Millisecond)
		if err == nil {
			t.Fatal("1ms query beat 80ms of round-trip latency")
		}
		if !errors.Is(err, ErrQueryTimeout) {
			t.Fatalf("unexpected query error: %v", err)
		}
		// The REPORT-RESP lands ~80ms after the request; give it time
		// to reach the dispatcher and be counted stale.
		time.Sleep(120 * time.Millisecond)
		if time.Now().After(deadline) {
			t.Fatal("stale response never counted in DroppedResponses")
		}
	}
}

// TestServiceNewServiceClosesSocketOnError asserts the UDP socket is
// released when validation fails after the bind: rebinding the same
// address must succeed immediately.
func TestServiceNewServiceClosesSocketOnError(t *testing.T) {
	addr := fmt.Sprintf("127.0.0.1:%d", 30000+rand.Intn(20000))
	bad := ServiceConfig{
		Addr: addr,
		N:    16,
		// CVS 1 fails core validation strictly after the socket bind.
		Options: NodeOptions{CVS: 1, Hash: HashFast},
	}
	if _, err := NewService(bad); err == nil {
		t.Fatal("NewService accepted CVS=1")
	}
	good := bad
	good.Options.CVS = 4
	s, err := NewService(good)
	if err != nil {
		t.Fatalf("rebind after failed NewService: %v", err)
	}
	s.Stop()
}

// TestServiceInjectedTransportIdentity rejects a transport bound to a
// different identity than Addr, and leaves it open for the caller.
func TestServiceInjectedTransportIdentity(t *testing.T) {
	net := memnet.New(memnet.Config{Seed: 1})
	defer net.Close()
	tr, err := net.Listen(ids.Sim(1))
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewService(ServiceConfig{
		Addr:      ids.Sim(2).String(),
		N:         8,
		Options:   NodeOptions{CVS: 4, Hash: HashFast},
		Transport: tr,
	})
	if err == nil {
		t.Fatal("NewService accepted a transport bound to a different identity")
	}
	// The caller still owns the transport after the failure.
	s, err := NewService(ServiceConfig{
		Addr:      ids.Sim(1).String(),
		N:         8,
		Options:   NodeOptions{CVS: 4, Hash: HashFast},
		Transport: tr,
	})
	if err != nil {
		t.Fatalf("reusing the transport with the matching Addr: %v", err)
	}
	s.Stop()
}

// warpClock compresses protocol time by an integer factor: tickers
// fire factor× faster and Now advances factor seconds per wall second.
type warpClock struct {
	start  time.Time
	factor int
}

func (w warpClock) Now() time.Time {
	return w.start.Add(time.Since(w.start) * time.Duration(w.factor))
}

func (w warpClock) Ticker(period time.Duration) (<-chan time.Time, func()) {
	t := time.NewTicker(period / time.Duration(w.factor))
	return t.C, t.Stop
}

// TestServiceAcceleratedClock proves clock injection compresses the
// protocol: nodes configured with a 2s period discover each other in
// well under 2s of wall time because the injected clock runs 50×.
func TestServiceAcceleratedClock(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-dependent realnet test")
	}
	const n = 6
	opts := NodeOptions{
		K:             3,
		CVS:           4,
		Period:        2 * time.Second, // 40ms of wall time at 50×
		MonitorPeriod: 2 * time.Second,
		Hash:          HashFast,
	}
	services, _ := newMemnetServicesOn(t, warpClock{start: time.Now(), factor: 50},
		n, opts, memnet.Config{Seed: 9})
	// 10s of wall time is 500s ≈ 250 protocol periods at 50× — far
	// more than discovery needs; without acceleration, 10s of wall
	// time would cover only 5 periods.
	waitDiscovered(t, services, n*2/3, 10*time.Second)
}
