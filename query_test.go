package avmon

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"avmon/internal/core"
	"avmon/internal/ids"
	"avmon/internal/memnet"
)

// waitForQueryableSubject blocks until some service has discovered
// monitors and a warm-up query against it succeeds, returning the
// subject and a querier. Monitors need a few monitoring periods to
// accumulate ping history before estimates exist.
func waitForQueryableSubject(t *testing.T, services []*Service) (subject, querier *Service) {
	t.Helper()
	deadline := time.After(20 * time.Second)
	for subject == nil {
		for _, s := range services {
			if len(s.Monitors()) > 0 {
				subject = s
				break
			}
		}
		if subject == nil {
			select {
			case <-deadline:
				t.Fatal("no service discovered monitors")
			case <-time.After(100 * time.Millisecond):
			}
		}
	}
	querier = services[0]
	if querier == subject {
		querier = services[1]
	}
	for {
		if _, err := querier.QueryAvailability(subject.ID(), 1, 2*time.Second); err == nil {
			return subject, querier
		}
		select {
		case <-deadline:
			t.Fatal("warm-up query never succeeded")
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// TestConcurrentQueryAvailability is the regression test for the racy
// single-handler query path: before the correlation-keyed dispatcher,
// two in-flight QueryAvailability calls re-pointed the node's one
// response hook at each other's channel, so answers were delivered to
// the wrong query (or dropped) and calls timed out spuriously. With
// the dispatcher, N concurrent queries against a live cluster must all
// succeed. Run under -race in CI.
func TestConcurrentQueryAvailability(t *testing.T) {
	if testing.Short() {
		t.Skip("real-network test")
	}
	opts := NodeOptions{
		K:             4,
		CVS:           4,
		Period:        50 * time.Millisecond,
		MonitorPeriod: 50 * time.Millisecond,
	}
	services := newLocalServices(t, 6, opts)
	subject, querier := waitForQueryableSubject(t, services)

	const queries = 24
	errs := make([]error, queries)
	var wg sync.WaitGroup
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			report, err := querier.QueryAvailability(subject.ID(), 1, 5*time.Second)
			if err != nil {
				errs[i] = err
				return
			}
			if report.Subject != subject.ID() || len(report.Monitors) == 0 {
				errs[i] = fmt.Errorf("bad report %+v", report)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("concurrent query %d failed: %v", i, err)
		}
	}
}

func TestDispatcherCorrelation(t *testing.T) {
	peerA := MustParseID(t, "10.0.0.1:1000")
	peerB := MustParseID(t, "10.0.0.2:1000")
	d := newRespDispatcher()

	chA := d.subscribe(respKey{peer: peerA, typ: core.MsgAvailBatchResp, nonce: 7})
	chB := d.subscribe(respKey{peer: peerB, typ: core.MsgAvailBatchResp, nonce: 9})
	if d.pending() != 2 {
		t.Fatalf("pending = %d, want 2", d.pending())
	}

	// A stale response — right peer and type, wrong nonce — must be
	// dropped, not delivered to either waiter.
	d.dispatch(peerA, &core.Message{Type: core.MsgAvailBatchResp, Nonce: 8})
	// Wrong type with a matching nonce must be dropped too.
	d.dispatch(peerA, &core.Message{Type: core.MsgReportResp, Nonce: 7})
	// Right key from the wrong peer: dropped.
	d.dispatch(peerB, &core.Message{Type: core.MsgAvailBatchResp, Nonce: 7})
	if got := d.staleCount(); got != 3 {
		t.Errorf("staleCount = %d, want 3", got)
	}
	select {
	case m := <-chA:
		t.Fatalf("waiter A received uncorrelated message %+v", m)
	case m := <-chB:
		t.Fatalf("waiter B received uncorrelated message %+v", m)
	default:
	}

	// Exact matches are delivered to their own waiters.
	d.dispatch(peerB, &core.Message{Type: core.MsgAvailBatchResp, Nonce: 9, Avails: []float64{0.5}})
	d.dispatch(peerA, &core.Message{Type: core.MsgAvailBatchResp, Nonce: 7, Avails: []float64{1}})
	if m := <-chA; m.Avails[0] != 1 {
		t.Errorf("waiter A got %+v", m)
	}
	if m := <-chB; m.Avails[0] != 0.5 {
		t.Errorf("waiter B got %+v", m)
	}
	if d.pending() != 0 {
		t.Errorf("pending = %d after delivery, want 0", d.pending())
	}
	// Delivery unregisters: a duplicate of an answered response is
	// stale, and cancel after delivery is a no-op.
	d.dispatch(peerA, &core.Message{Type: core.MsgAvailBatchResp, Nonce: 7})
	if got := d.staleCount(); got != 4 {
		t.Errorf("staleCount after replay = %d, want 4", got)
	}
	d.cancel(respKey{peer: peerA, typ: core.MsgAvailBatchResp, nonce: 7})
}

// TestServiceResponseGuards: a Service routes a query response to its
// waiter only under the guards Handle applies to everything else — a
// REPORT-RESP claiming None as its sender, or arriving after Stop,
// reaches no waiter even when one is subscribed under exactly its key.
func TestServiceResponseGuards(t *testing.T) {
	net := memnet.New(memnet.Config{Seed: 1})
	defer net.Close()
	tr, err := net.Listen(ids.Sim(1))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewService(ServiceConfig{Addr: ids.Sim(1).String(), N: 10, Transport: tr, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	peer := ids.Sim(2)
	waiter := func(from ID, nonce uint64) chan *core.Message {
		return s.disp.subscribe(respKey{peer: from, typ: core.MsgReportResp, nonce: nonce})
	}
	fromNone, live, afterStop := waiter(ids.None, 5), waiter(peer, 6), waiter(peer, 7)
	s.receive(ids.None, &core.Message{Type: core.MsgReportResp, Nonce: 5})
	s.receive(peer, &core.Message{Type: core.MsgReportResp, Nonce: 6})
	s.Stop()
	s.receive(peer, &core.Message{Type: core.MsgReportResp, Nonce: 7})
	select {
	case <-live:
	default:
		t.Fatal("a REPORT-RESP from a peer to a running Service reached no waiter")
	}
	select {
	case m := <-fromNone:
		t.Errorf("a REPORT-RESP claiming None as its sender reached a waiter: %+v", m)
	case m := <-afterStop:
		t.Errorf("a REPORT-RESP delivered after Stop reached a waiter: %+v", m)
	default:
	}
	if got := s.disp.pending(); got != 2 {
		t.Errorf("%d waiters left, want the two the guarded responses did not reach", got)
	}
}

func TestQueryTimerExpiredFastPath(t *testing.T) {
	expired := time.Now().Add(-time.Second)

	// Expired with no answer pending: immediate timeout.
	ch := make(chan *core.Message, 1)
	if _, err := await(ch, expired); !errors.Is(err, ErrQueryTimeout) {
		t.Fatalf("expired await returned %v, want ErrQueryTimeout", err)
	}

	// Expired but the answer already arrived: still delivered.
	ch <- &core.Message{Type: core.MsgAvailBatchResp, Seq: 1}
	m, err := await(ch, expired)
	if err != nil || m.Seq != 1 {
		t.Fatalf("expired await with buffered answer = (%+v, %v)", m, err)
	}

	// A live deadline waits for the answer, then for the deadline.
	ch <- &core.Message{Seq: 2}
	if m, err := await(ch, time.Now().Add(5*time.Second)); err != nil || m.Seq != 2 {
		t.Fatalf("live await = (%+v, %v)", m, err)
	}
	if _, err := await(ch, time.Now().Add(10*time.Millisecond)); !errors.Is(err, ErrQueryTimeout) {
		t.Fatalf("await on a silent channel returned %v, want ErrQueryTimeout", err)
	}
}

func TestMinNonZero(t *testing.T) {
	tests := []struct{ l, n, want int }{
		{0, 5, 5},  // l=0 means "all reported"
		{-1, 5, 5}, // negative behaves like zero
		{3, 5, 3},  // honest minimum passes through
		{7, 5, 5},  // l > len(report) clamps to the report size
		{1, 0, 0},  // empty report
		{0, 0, 0},
	}
	for _, tt := range tests {
		if got := minNonZero(tt.l, tt.n); got != tt.want {
			t.Errorf("minNonZero(%d, %d) = %d, want %d", tt.l, tt.n, got, tt.want)
		}
	}
}

func TestVerifyReportEdgeCases(t *testing.T) {
	scheme, err := NewSelector(HashMD5, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	subject := MustParseID(t, "10.0.0.1:9")
	mon1 := MustParseID(t, "10.0.0.2:9")
	mon2 := MustParseID(t, "10.0.0.3:9")
	// K=N makes every pair related, so mon1/mon2 verify.

	t.Run("l=0 accepts any honest report", func(t *testing.T) {
		verified, err := VerifyReport(scheme, subject, []ID{mon1, mon2}, minNonZero(0, 2))
		if err != nil || len(verified) != 2 {
			t.Errorf("verified=%v err=%v", verified, err)
		}
		// Even an empty report verifies when nothing is required.
		if _, err := VerifyReport(scheme, subject, nil, minNonZero(0, 0)); err != nil {
			t.Errorf("empty report with l=0 rejected: %v", err)
		}
	})
	t.Run("l greater than report length", func(t *testing.T) {
		// Raw VerifyReport with minimum > len is short…
		_, err := VerifyReport(scheme, subject, []ID{mon1}, 3)
		var re *core.ReportError
		if !errors.As(err, &re) || !re.Short {
			t.Errorf("want Short ReportError, got %v", err)
		}
		// …but the query path clamps via minNonZero, accepting the
		// monitors that do exist.
		verified, err := VerifyReport(scheme, subject, []ID{mon1}, minNonZero(3, 1))
		if err != nil || len(verified) != 1 {
			t.Errorf("clamped verify = (%v, %v)", verified, err)
		}
	})
	t.Run("duplicate monitor IDs are bogus", func(t *testing.T) {
		_, err := VerifyReport(scheme, subject, []ID{mon1, mon1, mon2}, 3)
		var re *core.ReportError
		if !errors.As(err, &re) {
			t.Fatalf("duplicate-padded report accepted (err=%v)", err)
		}
		if len(re.Bogus) != 1 || re.Bogus[0] != mon1 {
			t.Errorf("Bogus = %v, want the duplicated entry", re.Bogus)
		}
	})
}

func TestAnswerCache(t *testing.T) {
	base := time.Unix(1000, 0)
	ttl := 100 * time.Millisecond
	c := NewAnswerCache(ttl, 2)
	s1 := MustParseID(t, "10.0.0.1:1")
	s2 := MustParseID(t, "10.0.0.2:1")
	s3 := MustParseID(t, "10.0.0.3:1")
	r1 := &AvailabilityReport{Subject: s1, Mean: 0.5}

	if _, ok := c.Get(s1, base); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(r1, base)
	if got, ok := c.Get(s1, base.Add(ttl/2)); !ok || got != r1 {
		t.Fatalf("fresh entry = (%v, %v), want the stored report", got, ok)
	}
	// At and past the TTL the entry is expired and evicted.
	if _, ok := c.Get(s1, base.Add(ttl)); ok {
		t.Error("expired entry served")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Entries != 0 {
		t.Errorf("stats = %+v, want 1 hit, 2 misses, 0 entries", st)
	}

	// Capacity bound: the third distinct subject triggers an epoch
	// flush, after which only the newcomer remains.
	c.Put(&AvailabilityReport{Subject: s1}, base)
	c.Put(&AvailabilityReport{Subject: s2}, base)
	c.Put(&AvailabilityReport{Subject: s3}, base)
	st = c.Stats()
	if st.Flushes != 1 || st.Entries != 1 {
		t.Errorf("after overflow stats = %+v, want 1 flush, 1 entry", st)
	}
	if _, ok := c.Get(s3, base); !ok {
		t.Error("entry stored after flush missing")
	}
	// Re-putting an existing subject must not flush.
	c.Put(&AvailabilityReport{Subject: s3, Mean: 1}, base)
	if st = c.Stats(); st.Flushes != 1 {
		t.Errorf("overwrite flushed: %+v", st)
	}

	c.Reset()
	if st = c.Stats(); st.Entries != 0 || st.Flushes != 2 {
		t.Errorf("after Reset stats = %+v", st)
	}
	if c.TTL() != ttl {
		t.Errorf("TTL() = %v, want %v", c.TTL(), ttl)
	}
}

func TestAnswerCacheConcurrent(t *testing.T) {
	c := NewAnswerCache(time.Hour, 64)
	now := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := ids.Sim(i % 100)
				c.Put(&AvailabilityReport{Subject: id}, now)
				c.Get(id, now)
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.Hits == 0 {
		t.Errorf("no hits under concurrent load: %+v", st)
	}
}

func TestServiceStopOrderings(t *testing.T) {
	newService := func(t *testing.T) *Service {
		t.Helper()
		s, err := NewService(ServiceConfig{
			Addr: fmt.Sprintf("127.0.0.1:%d", 26000+rand.Intn(2000)),
			N:    4,
			Options: NodeOptions{
				K: 2, CVS: 2, Period: time.Second, MonitorPeriod: time.Second,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	t.Run("stop twice", func(t *testing.T) {
		s := newService(t)
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		s.Stop()
		s.Stop() // must not panic on a second close or hang in Wait
	})
	t.Run("stop before start", func(t *testing.T) {
		s := newService(t)
		s.Stop() // nothing launched: must return, not deadlock
		s.Stop()
	})
	t.Run("start after stop", func(t *testing.T) {
		s := newService(t)
		s.Stop()
		if err := s.Start(); err == nil {
			t.Error("Start after Stop succeeded; goroutines would leak on a closed socket")
			s.Stop()
		}
	})
	t.Run("concurrent stops", func(t *testing.T) {
		s := newService(t)
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() { defer wg.Done(); s.Stop() }()
		}
		wg.Wait()
	})
}

func TestServiceQueryBatchEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("real-network test")
	}
	opts := NodeOptions{
		K:             4,
		CVS:           4,
		Period:        50 * time.Millisecond,
		MonitorPeriod: 50 * time.Millisecond,
	}
	services := newLocalServices(t, 6, opts)
	subject, querier := waitForQueryableSubject(t, services)

	ghost := MustParseID(t, "127.0.0.1:1")
	answers := querier.QueryBatch([]ID{subject.ID(), ghost}, 1, 5*time.Second)
	if len(answers) != 2 {
		t.Fatalf("QueryBatch returned %d answers, want 2", len(answers))
	}
	if answers[0].Subject != subject.ID() || answers[1].Subject != ghost {
		t.Fatal("answers not in subject order")
	}
	if answers[0].Err != nil || answers[0].Report == nil {
		t.Fatalf("live subject failed: %v", answers[0].Err)
	}
	if got := answers[0].Report; got.Mean < 0.5 || got.Mean > 1 || len(got.Monitors) == 0 {
		t.Errorf("batch report = %+v, want mean near 1 with monitors", got)
	}
	if answers[1].Err == nil {
		t.Error("ghost subject produced an answer")
	}
}

func TestServiceQueryCache(t *testing.T) {
	if testing.Short() {
		t.Skip("real-network test")
	}
	opts := NodeOptions{
		K:             4,
		CVS:           4,
		Period:        50 * time.Millisecond,
		MonitorPeriod: 50 * time.Millisecond,
	}
	base := 30000 + rand.Intn(20000)
	services := make([]*Service, 0, 6)
	for i := 0; i < 6; i++ {
		cfg := ServiceConfig{
			Addr:          fmt.Sprintf("127.0.0.1:%d", base+i),
			N:             6,
			Options:       opts,
			Seed:          int64(i + 1),
			QueryCache:    true,
			QueryCacheTTL: time.Hour, // answers stay fresh for the whole test
		}
		if i > 0 {
			cfg.Bootstrap = fmt.Sprintf("127.0.0.1:%d", base)
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
	subject, querier := waitForQueryableSubject(t, services)

	first, err := querier.QueryAvailability(subject.ID(), 1, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	second, err := querier.QueryAvailability(subject.ID(), 1, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Error("second query within the TTL did not return the cached report")
	}
	st, ok := querier.QueryCacheStats()
	if !ok || st.Hits == 0 {
		t.Errorf("cache stats = (%+v, %v), want hits > 0", st, ok)
	}
	// QueryBatch serves the same cache.
	answers := querier.QueryBatch([]ID{subject.ID()}, 1, 5*time.Second)
	if answers[0].Report != first {
		t.Error("QueryBatch missed the cached report")
	}
}
