package experiments

// The query experiment (beyond the paper): a load test of the
// production query plane — the report-verify-estimate flow that
// Service.QueryAvailability and Service.QueryBatch run over UDP —
// driven to millions of answers per second against a frozen simulated
// cluster. The cluster is warmed up under churn, then snapshotted:
// every monitor list and every (monitor, subject) estimate becomes a
// read-only serving table. The load generator then executes the real
// client pipeline against that table:
//
//   - every request and response passes through netstack.Encode and
//     netstack.Decode, so the wire codec is load-bearing;
//   - every monitor report is checked with avmon.VerifyReport, so the
//     paper's consistency verification is on the hot path;
//   - the cache-on arm runs the real avmon.AnswerCache.
//
// Two arms (cache-off, cache-on) are built from the SAME derived seed
// and warmed up independently; the experiment FAILS unless their
// protocol fingerprints are byte-identical (the paired-seed gate: the
// query plane is a pure reader and cluster construction is
// deterministic). Within each arm, batch regimes {1, 16, 64} resolve
// the identical query workload; the experiment also FAILS unless all
// six (arm, batch) regimes produce the identical answer fingerprint —
// proving the cache and the batching are result-invariant within one
// TTL window. Latency percentiles and answers/sec/core are the
// measured (non-gated) outputs, written to BENCH_query.json.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sync"
	"time"

	"avmon"
	"avmon/internal/core"
	"avmon/internal/ids"
	"avmon/internal/netstack"
	"avmon/internal/stats"
)

// QueryArtifactName is the machine-readable output of the query
// experiment (written next to the tables by avmon-bench, checked into
// the repo like BENCH_chaos.json).
const QueryArtifactName = "BENCH_query.json"

// queryDefaultN is the cluster population when Options.Ns is not set.
const queryDefaultN = 240

// queryBatchSizes are the batched-frontend regimes swept per arm:
// one-subject round trips versus amortized AVAIL-BATCH payloads.
var queryBatchSizes = []int{1, 16, 64}

// queryBaseCount is the per-regime query volume at Scale 1.0;
// queryMinCount floors it so smoke runs still exercise every regime
// past the cold-cache transient.
const (
	queryBaseCount = 2_000_000
	queryMinCount  = 20_000
)

// queryEstimate is one serving-table cell: what a monitor would answer
// about a subject.
type queryEstimate struct {
	avail float64
	known bool
}

// querySnapshot is the frozen cluster's read-only serving table plus
// the shared verification scheme. It stands in for the network: serve
// answers a client datagram exactly as the addressed node would, with
// the codec round trip included.
type querySnapshot struct {
	scheme   avmon.SelectionScheme
	subjects []ids.ID                            // all member IDs, by index
	monitors map[ids.ID][]ids.ID                 // subject → its monitor report
	ests     map[ids.ID]map[ids.ID]queryEstimate // monitor → subject → estimate
}

// snapshotCluster freezes c into a serving table.
func snapshotCluster(c *avmon.Cluster) *querySnapshot {
	s := &querySnapshot{
		scheme:   c.Scheme(),
		subjects: make([]ids.ID, c.Size()),
		monitors: make(map[ids.ID][]ids.ID, c.Size()),
		ests:     make(map[ids.ID]map[ids.ID]queryEstimate),
	}
	for i := 0; i < c.Size(); i++ {
		subject := c.IDOf(i)
		s.subjects[i] = subject
		mons := c.MonitorsOf(i)
		s.monitors[subject] = mons
		for _, mon := range mons {
			mi, ok := c.IndexOf(mon)
			if !ok {
				continue
			}
			byMon := s.ests[mon]
			if byMon == nil {
				byMon = make(map[ids.ID]queryEstimate)
				s.ests[mon] = byMon
			}
			av, known := c.EstimateBy(mi, subject)
			byMon[subject] = queryEstimate{avail: av, known: known}
		}
	}
	return s
}

// serve plays the addressed node: it decodes the client's datagram,
// computes the answer from the frozen tables, and encodes the
// response — the same codec path a UDP deployment pays.
func (s *querySnapshot) serve(to ids.ID, datagram []byte) ([]byte, error) {
	req, err := netstack.Decode(datagram)
	if err != nil {
		return nil, fmt.Errorf("query: server decode: %w", err)
	}
	var resp *core.Message
	switch req.Type {
	case core.MsgReportReq:
		// Count ≤ 0 semantics: report every monitor (deterministic; the
		// live node randomizes subsets, which a load test must not).
		resp = &core.Message{
			Type: core.MsgReportResp, From: to, Seq: req.Seq, Nonce: req.Nonce,
			View: s.monitors[to],
		}
	case core.MsgAvailBatchReq:
		resp = &core.Message{
			Type: core.MsgAvailBatchResp, From: to, Seq: req.Seq, Nonce: req.Nonce,
			View:   req.View,
			Avails: make([]float64, len(req.View)),
			Knowns: make([]bool, len(req.View)),
		}
		byMon := s.ests[to]
		for i, subject := range req.View {
			e := byMon[subject]
			resp.Avails[i], resp.Knowns[i] = e.avail, e.known
		}
	default:
		return nil, fmt.Errorf("query: server got unexpected %v", req.Type)
	}
	out, err := netstack.Encode(resp)
	if err != nil {
		return nil, fmt.Errorf("query: server encode: %w", err)
	}
	return out, nil
}

// roundTrip encodes req, serves it at to, and decodes the response,
// checking nonce correlation — the full client-side wire cost.
func (s *querySnapshot) roundTrip(to ids.ID, req *core.Message) (*core.Message, error) {
	wire, err := netstack.Encode(req)
	if err != nil {
		return nil, fmt.Errorf("query: client encode: %w", err)
	}
	respWire, err := s.serve(to, wire)
	if err != nil {
		return nil, err
	}
	resp, err := netstack.Decode(respWire)
	if err != nil {
		return nil, fmt.Errorf("query: client decode: %w", err)
	}
	if resp.Nonce != req.Nonce {
		return nil, fmt.Errorf("query: response nonce %d does not correlate with request %d",
			resp.Nonce, req.Nonce)
	}
	return resp, nil
}

// queryAnswer is one resolved lookup. known is false when the subject
// has no monitors to vouch for it.
type queryAnswer struct {
	mean  float64
	known bool
}

// queryClient resolves batches against a snapshot, mirroring
// Service.QueryBatch: per-subject report fetch and verification, then
// one AVAIL-BATCH-REQ per distinct monitor. Each worker owns one
// client (the nonce counter is not shared).
type queryClient struct {
	snap  *querySnapshot
	from  ids.ID
	cache *avmon.AnswerCache // nil in the cache-off arm
	nonce uint64
}

// lookup resolves one batch of subject indexes, returning answers
// aligned with the batch.
func (q *queryClient) lookup(batch []int, now time.Time) ([]queryAnswer, error) {
	out := make([]queryAnswer, len(batch))
	type miss struct {
		pos     int
		subject ids.ID
		mons    []ids.ID
	}
	var misses []miss
	for pos, idx := range batch {
		subject := q.snap.subjects[idx]
		if q.cache != nil {
			if r, ok := q.cache.Get(subject, now); ok {
				out[pos] = queryAnswer{mean: r.Mean, known: true}
				continue
			}
		}
		misses = append(misses, miss{pos: pos, subject: subject})
	}

	// Phase 1: fetch and verify each missing subject's monitor report.
	for mi := range misses {
		m := &misses[mi]
		q.nonce++
		resp, err := q.roundTripReport(m.subject)
		if err != nil {
			return nil, err
		}
		if len(resp.View) == 0 {
			continue // unmonitored subject: answer stays unknown
		}
		verified, err := avmon.VerifyReport(q.snap.scheme, m.subject, resp.View, len(resp.View))
		if err != nil {
			return nil, fmt.Errorf("query: frozen cluster produced an unverifiable report: %w", err)
		}
		m.mons = verified
	}

	// Phase 2: one batched availability request per distinct monitor,
	// in first-seen order (determinism of the serving sequence).
	perMonitor := make(map[ids.ID][]int) // monitor → miss indexes
	var monOrder []ids.ID
	for mi := range misses {
		for _, mon := range misses[mi].mons {
			if _, seen := perMonitor[mon]; !seen {
				monOrder = append(monOrder, mon)
			}
			perMonitor[mon] = append(perMonitor[mon], mi)
		}
	}
	type estKey struct {
		mi  int
		mon ids.ID
	}
	ests := make(map[estKey]float64)
	for _, mon := range monOrder {
		idxs := perMonitor[mon]
		subjects := make([]ids.ID, len(idxs))
		for j, mi := range idxs {
			subjects[j] = misses[mi].subject
		}
		q.nonce++
		resp, err := q.snap.roundTrip(mon, &core.Message{
			Type: core.MsgAvailBatchReq, From: q.from, Nonce: q.nonce, View: subjects,
		})
		if err != nil {
			return nil, err
		}
		if len(resp.View) != len(subjects) || len(resp.Avails) != len(subjects) {
			return nil, fmt.Errorf("query: batch response shape %d/%d, want %d",
				len(resp.View), len(resp.Avails), len(subjects))
		}
		for j, mi := range idxs {
			if resp.Knowns[j] {
				ests[estKey{mi: mi, mon: mon}] = resp.Avails[j]
			}
		}
	}

	// Phase 3: aggregate per subject in verified-monitor order and
	// populate the cache with the assembled reports.
	for mi := range misses {
		m := &misses[mi]
		report := &avmon.AvailabilityReport{Subject: m.subject}
		var sum float64
		for _, mon := range m.mons {
			est, ok := ests[estKey{mi: mi, mon: mon}]
			if !ok {
				continue
			}
			report.Monitors = append(report.Monitors, mon)
			report.Estimates = append(report.Estimates, est)
			sum += est
		}
		if len(report.Monitors) == 0 {
			continue
		}
		report.Mean = sum / float64(len(report.Monitors))
		out[m.pos] = queryAnswer{mean: report.Mean, known: true}
		if q.cache != nil {
			q.cache.Put(report, now)
		}
	}
	return out, nil
}

// roundTripReport fetches one subject's monitor report over the wire.
func (q *queryClient) roundTripReport(subject ids.ID) (*core.Message, error) {
	return q.snap.roundTrip(subject, &core.Message{
		Type: core.MsgReportReq, From: q.from, Nonce: q.nonce,
	})
}

// QueryPoint is one (arm, batch) regime as serialized into
// BENCH_query.json. Latency and throughput are wall-clock measurements
// (they vary run to run); Fingerprint is the deterministic FNV-64a of
// every answer in workload order, identical across all regimes by the
// experiment's gate.
type QueryPoint struct {
	Arm     string `json:"arm"`
	Batch   int    `json:"batch"`
	Queries int    `json:"queries"`
	Workers int    `json:"workers"`

	P50Micros            float64 `json:"p50_micros"`
	P99Micros            float64 `json:"p99_micros"`
	AnswersPerSec        float64 `json:"answers_per_sec"`
	AnswersPerSecPerCore float64 `json:"answers_per_sec_per_core"`
	// CacheHitRate is hits/(hits+misses) over the regime; zero in the
	// cache-off arm.
	CacheHitRate float64 `json:"cache_hit_rate"`
	// Fingerprint hashes (subject, mean, known) for every query in
	// workload order.
	Fingerprint string `json:"answer_fingerprint"`
}

// queryRunRegime drives one (arm, batch) regime: the full workload,
// split into contiguous chunks across workers, each resolving
// batch-sized lookups against the snapshot.
func queryRunRegime(snap *querySnapshot, arm string, batchSize, queryCount, workers int, seed int64) (*QueryPoint, error) {
	var cache *avmon.AnswerCache
	if arm == "cache-on" {
		// One TTL window covers the whole regime: the monitoring period
		// of a frozen cluster is effectively infinite, so answers must
		// be byte-identical with the cache on.
		cache = avmon.NewAnswerCache(time.Hour, 0)
	}
	n := len(snap.subjects)
	subjectOf := func(qi int) int {
		return int(uint64(deriveSeed(seed, qi)) % uint64(n))
	}
	answers := make([]queryAnswer, queryCount)
	latencies := make([][]float64, workers)
	errs := make([]error, workers)
	chunk := (queryCount + workers - 1) / workers
	clientBase := ids.Sim(n) // an identity outside the cluster

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lo, hi := w*chunk, (w+1)*chunk
			if hi > queryCount {
				hi = queryCount
			}
			if lo >= hi {
				return
			}
			client := &queryClient{snap: snap, from: clientBase, cache: cache,
				nonce: uint64(w) << 32}
			lats := make([]float64, 0, (hi-lo+batchSize-1)/batchSize)
			batch := make([]int, 0, batchSize)
			for qi := lo; qi < hi; qi += batchSize {
				batch = batch[:0]
				for j := qi; j < qi+batchSize && j < hi; j++ {
					batch = append(batch, subjectOf(j))
				}
				t0 := time.Now()
				got, err := client.lookup(batch, t0)
				if err != nil {
					errs[w] = err
					return
				}
				dt := float64(time.Since(t0).Nanoseconds()) / 1e3 // µs
				lats = append(lats, dt)
				copy(answers[qi:], got)
			}
			latencies[w] = lats
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Latency CDF over batch completions: every query in a batch
	// completes when its batch does, and all batches in a regime share
	// one size, so batch percentiles are query percentiles.
	cdf := &stats.CDF{}
	for _, lats := range latencies {
		cdf.AddAll(lats)
	}
	fp := fnv.New64a()
	var buf [8]byte
	for qi, a := range answers {
		binary.BigEndian.PutUint64(buf[:], uint64(subjectOf(qi)))
		_, _ = fp.Write(buf[:])
		binary.BigEndian.PutUint64(buf[:], math.Float64bits(a.mean))
		_, _ = fp.Write(buf[:])
		k := byte(0)
		if a.known {
			k = 1
		}
		_, _ = fp.Write([]byte{k})
	}
	pt := &QueryPoint{
		Arm:                  arm,
		Batch:                batchSize,
		Queries:              queryCount,
		Workers:              workers,
		P50Micros:            cdf.Percentile(0.50),
		P99Micros:            cdf.Percentile(0.99),
		AnswersPerSec:        float64(queryCount) / elapsed.Seconds(),
		AnswersPerSecPerCore: float64(queryCount) / elapsed.Seconds() / float64(workers),
		Fingerprint:          fmt.Sprintf("%016x", fp.Sum64()),
	}
	if cache != nil {
		st := cache.Stats()
		if total := st.Hits + st.Misses; total > 0 {
			pt.CacheHitRate = float64(st.Hits) / float64(total)
		}
	}
	return pt, nil
}

// queryArtifact is the BENCH_query.json envelope.
type queryArtifact struct {
	Experiment    string       `json:"experiment"`
	Seed          int64        `json:"seed"`
	Scale         float64      `json:"scale"`
	N             int          `json:"n"`
	WarmupSeconds float64      `json:"warmup_seconds"`
	Batches       []int        `json:"batches"`
	Proto         chaosProto   `json:"proto"`
	Host          HostStats    `json:"host"`
	Points        []QueryPoint `json:"points"`
}

// Query load-tests the production query plane against a frozen
// simulated cluster: two paired-seed arms (cache-off, cache-on) × the
// batch regimes {1, 16, 64}, all resolving the identical workload
// through the real wire codec, the real report verification, and (arm
// two) the real answer cache. The experiment fails unless the two
// arms' cluster protocol fingerprints are byte-identical and all six
// regimes produce the identical answer fingerprint. Options.Ns[0]
// overrides the population (default 240); query volume scales with
// Options.Scale.
func Query(o Options) (*Result, error) {
	o = o.withDefaults()
	n := queryDefaultN
	if len(o.Ns) > 0 {
		n = o.Ns[0]
	}
	if n < 20 {
		return nil, fmt.Errorf("query: N=%d too small (need ≥ 20 for meaningful monitor sets)", n)
	}
	warmup := o.scaled(4*time.Hour, 48*time.Minute)
	queryCount := int(queryBaseCount * o.Scale)
	if queryCount < queryMinCount {
		queryCount = queryMinCount
	}
	workers := o.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Warm up one cluster per arm from the SAME derived seed; the gate
	// below demands byte-identical protocol state.
	arms := []string{"cache-off", "cache-on"}
	snaps := make([]*querySnapshot, len(arms))
	protos := make([]chaosProto, len(arms))
	err := forEachPoint(o, len(arms),
		func(i int) string { return fmt.Sprintf("query warmup %s", arms[i]) },
		func(i int) error {
			model, err := avmon.NewSYNTHModel(n, 0.2)
			if err != nil {
				return err
			}
			c, err := avmon.NewCluster(avmon.ClusterConfig{
				N: n, Seed: deriveSeed(o.Seed, 0), Shards: o.Shards,
			}, model)
			if err != nil {
				return err
			}
			c.Run(warmup)
			snaps[i] = snapshotCluster(c)
			protos[i] = chaosProtoOf(c)
			return nil
		})
	if err != nil {
		return nil, err
	}
	if err := sameChaosProto(protos[0], protos[1]); err != nil {
		return nil, fmt.Errorf("query: cache-off and cache-on clusters diverged on one seed: %w", err)
	}

	// Run the regimes. The load generator saturates the machine, so
	// regimes run sequentially — parallelism lives inside each regime.
	pts := make([]QueryPoint, 0, len(arms)*len(queryBatchSizes))
	workSeed := deriveSeed(o.Seed, 1)
	for ai, arm := range arms {
		for _, b := range queryBatchSizes {
			pt, err := queryRunRegime(snaps[ai], arm, b, queryCount, workers, workSeed)
			if err != nil {
				return nil, err
			}
			pts = append(pts, *pt)
		}
	}
	for _, pt := range pts[1:] {
		if pt.Fingerprint != pts[0].Fingerprint {
			return nil, fmt.Errorf("query: %s/batch=%d answers (fingerprint %s) differ from %s/batch=%d (%s): cache or batching changed results",
				pt.Arm, pt.Batch, pt.Fingerprint, pts[0].Arm, pts[0].Batch, pts[0].Fingerprint)
		}
	}

	perf := &Table{
		Title: "Query plane load test: latency and throughput by cache arm and batch size",
		Header: []string{"arm", "batch", "queries", "workers", "p50 (µs)", "p99 (µs)",
			"answers/s", "answers/s/core", "hit rate"},
	}
	for _, pt := range pts {
		perf.AddRow(pt.Arm, itoa(pt.Batch), itoa(pt.Queries), itoa(pt.Workers),
			f2(pt.P50Micros), f2(pt.P99Micros),
			fmt.Sprintf("%.3g", pt.AnswersPerSec), fmt.Sprintf("%.3g", pt.AnswersPerSecPerCore),
			f4(pt.CacheHitRate))
	}
	gate := &Table{
		Title:  "Determinism gates: paired-seed cluster state and answer fingerprints",
		Header: []string{"gate", "value", "status"},
	}
	gate.AddRow("protocol fingerprint (cache-off vs cache-on)",
		fmt.Sprintf("events=%d bytes_out=%d", protos[0].Events, protos[0].BytesOut), "identical")
	gate.AddRow("answer fingerprint (6 regimes)", pts[0].Fingerprint, "identical")

	artifact, err := json.MarshalIndent(queryArtifact{
		Experiment:    "query",
		Seed:          o.Seed,
		Scale:         o.Scale,
		N:             n,
		WarmupSeconds: warmup.Seconds(),
		Batches:       queryBatchSizes,
		Proto:         protos[0],
		Host:          collectHostStats(),
		Points:        pts,
	}, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("query: marshal artifact: %w", err)
	}
	artifact = append(artifact, '\n')
	return &Result{
		ID:        "query",
		Title:     "Production query plane load test (cache × batch regimes, paired seeds)",
		Tables:    []*Table{perf, gate},
		Artifacts: map[string][]byte{QueryArtifactName: artifact},
	}, nil
}
