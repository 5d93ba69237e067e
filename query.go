package avmon

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"avmon/internal/core"
)

// ErrQueryTimeout reports that a remote node did not answer within the
// deadline: the subject itself, or every verified monitor it reported.
var ErrQueryTimeout = errors.New("avmon: query timed out")

// ErrNoMonitors reports that the subject answered with an empty monitor
// list (it has just joined and discovered none yet), so there is nobody
// to ask. Nothing timed out; retrying after a few protocol periods is
// the remedy.
var ErrNoMonitors = errors.New("avmon: subject has no monitors")

// AvailabilityReport is the result of a verified availability query
// (the full Section 3.3 usage flow: ask the subject for l monitors,
// verify each against the consistency condition, then ask the verified
// monitors for their estimates).
type AvailabilityReport struct {
	// Subject is the node whose availability was queried.
	Subject ID
	// Monitors are the verified monitors that answered.
	Monitors []ID
	// Estimates are the per-monitor availability estimates, aligned
	// with Monitors.
	Estimates []float64
	// Mean is the average of Estimates.
	Mean float64
}

// BatchAnswer is one per-subject result of QueryBatch. Exactly one of
// Report and Err is set.
type BatchAnswer struct {
	// Subject is the queried node.
	Subject ID
	// Report is the verified availability report, nil on failure.
	Report *AvailabilityReport
	// Err explains a failed lookup (timeout, rejected monitor report,
	// no monitors reported, or no verified monitor answering).
	Err error
}

// respKey correlates a response to its outstanding query: the answering
// peer, the expected response type, and the caller-chosen nonce echoed
// by the responder.
type respKey struct {
	peer  ID
	typ   core.MsgType
	nonce uint64
}

// respDispatcher routes incoming response messages to the query that
// asked for them. It is installed once as the node's response handler
// and replaces the old arm/disarm one-shot hook, which could serve only
// a single in-flight query and silently dropped answers when two
// queries raced. Any number of queries may now wait concurrently, each
// on its own correlation key.
type respDispatcher struct {
	mu      sync.Mutex
	waiters map[respKey]chan *core.Message
	// stale counts responses that matched no waiter: late answers
	// after a timeout, or forged/replayed datagrams whose nonce does
	// not correlate with any outstanding query.
	stale uint64
}

func newRespDispatcher() *respDispatcher {
	return &respDispatcher{waiters: make(map[respKey]chan *core.Message)}
}

// subscribe registers a one-shot waiter for key and returns the channel
// its response will be delivered on. The caller must cancel(key) when
// done (delivery also unregisters, so cancel after delivery is a no-op).
func (d *respDispatcher) subscribe(key respKey) chan *core.Message {
	ch := make(chan *core.Message, 1)
	d.mu.Lock()
	d.waiters[key] = ch
	d.mu.Unlock()
	return ch
}

// cancel unregisters the waiter for key, if still present.
func (d *respDispatcher) cancel(key respKey) {
	d.mu.Lock()
	delete(d.waiters, key)
	d.mu.Unlock()
}

// dispatch is the node's response handler: it matches a response to the
// waiter keyed by (sender, type, nonce) and delivers it. Responses with
// no matching waiter — stale answers arriving after their query timed
// out, or replays with a non-matching nonce — are counted and dropped,
// never delivered to a different query.
func (d *respDispatcher) dispatch(from ID, m *core.Message) {
	key := respKey{peer: from, typ: m.Type, nonce: m.Nonce}
	d.mu.Lock()
	ch, ok := d.waiters[key]
	if ok {
		delete(d.waiters, key)
	} else {
		d.stale++
	}
	d.mu.Unlock()
	if ok {
		ch <- m // buffered, exactly one send per subscription
	}
}

// staleCount returns how many uncorrelated responses were dropped.
func (d *respDispatcher) staleCount() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stale
}

// pending returns the number of outstanding waiters (for tests).
func (d *respDispatcher) pending() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.waiters)
}

// await blocks until a message arrives on ch or deadline passes. An
// already-expired deadline takes a fast path that arms no timer: it
// still drains an answer that has already been delivered, otherwise
// fails immediately.
func await(ch <-chan *core.Message, deadline time.Time) (*core.Message, error) {
	d := time.Until(deadline)
	if d <= 0 {
		select {
		case m := <-ch:
			return m, nil
		default:
			return nil, ErrQueryTimeout
		}
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case m := <-ch:
		return m, nil
	case <-timer.C:
		return nil, ErrQueryTimeout
	}
}

func minNonZero(l, n int) int {
	if l <= 0 || l > n {
		return n
	}
	return l
}

// scheme returns the node's selection scheme (safe to use without the
// lock afterwards: selectors are stateless).
func (s *Service) scheme() core.SelectionScheme {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.node.Config().Scheme
}

// roundTrip runs one correlated request: it subscribes for peer's
// response of type typ under a fresh nonce, lets send emit the request
// carrying that nonce (under the node lock), and waits for the answer
// until deadline.
func (s *Service) roundTrip(peer ID, typ core.MsgType, deadline time.Time, send func(nonce uint64)) (*core.Message, error) {
	nonce := s.nextNonce()
	key := respKey{peer: peer, typ: typ, nonce: nonce}
	ch := s.disp.subscribe(key)
	defer s.disp.cancel(key)
	s.mu.Lock()
	send(nonce)
	s.mu.Unlock()
	return await(ch, deadline)
}

// fetchReport asks subject for count monitors and waits for the reply.
func (s *Service) fetchReport(subject ID, count int, deadline time.Time) ([]ID, error) {
	m, err := s.roundTrip(subject, core.MsgReportResp, deadline, func(nonce uint64) {
		s.node.QueryReport(subject, count, nonce)
	})
	if err != nil {
		return nil, fmt.Errorf("avmon: monitor report from %v: %w", subject, err)
	}
	return m.View, nil
}

// QueryBatch is the availability resolver — the Section 3.3 usage flow
// for any number of subjects in one sweep: per-subject monitor reports
// are fetched and verified concurrently, then each distinct monitor is
// asked once, with a single AVAIL-BATCH-REQ covering every subject it
// vouches for. Results are returned in subject order; cached answers
// (when the cache is enabled) are served without network traffic.
// Failed subjects carry a per-subject error rather than failing the
// whole batch: ErrNoMonitors when the subject reported none,
// ErrQueryTimeout when the subject or all its verified monitors stayed
// silent, a *core.ReportError when the report was fabricated.
//
// timeout bounds each of the two network phases (report fetch, batched
// estimate fetch) separately — the call blocks at most about twice
// that — so an unreachable subject exhausting phase one cannot starve
// live subjects of their estimate phase, and within the estimate phase
// every monitor is asked at once, so a dead monitor costs its own
// estimate and nothing else.
func (s *Service) QueryBatch(subjects []ID, l int, timeout time.Duration) []BatchAnswer {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	now := time.Now()
	answers := make([]BatchAnswer, len(subjects))
	var misses []int
	for i, subject := range subjects {
		answers[i].Subject = subject
		if s.answers != nil {
			if r, ok := s.answers.Get(subject, now); ok {
				answers[i].Report = r
				continue
			}
		}
		misses = append(misses, i)
	}
	if len(misses) == 0 {
		return answers
	}
	scheme := s.scheme()

	// Stage 1: fetch and verify each missing subject's monitor report
	// concurrently. verifiedBy[i] holds subject i's verified monitors.
	verifiedBy := make(map[int][]ID, len(misses))
	var vmu sync.Mutex
	var wg sync.WaitGroup
	reportDeadline := now.Add(timeout)
	for _, i := range misses {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			subject := subjects[i]
			reported, err := s.fetchReport(subject, l, reportDeadline)
			if err != nil {
				answers[i].Err = err
				return
			}
			if len(reported) == 0 {
				answers[i].Err = fmt.Errorf("avmon: %v reported an empty pinging set: %w", subject, ErrNoMonitors)
				return
			}
			verified, err := core.VerifyReport(scheme, subject, reported, minNonZero(l, len(reported)))
			if err != nil {
				answers[i].Err = fmt.Errorf("avmon: monitor report for %v rejected: %w", subject, err)
				return
			}
			vmu.Lock()
			verifiedBy[i] = verified
			vmu.Unlock()
		}(i)
	}
	wg.Wait()

	// Stage 2: invert to monitor → subjects and issue one batched
	// availability request per distinct monitor.
	bySubject := make(map[int]map[ID]float64, len(verifiedBy)) // subject idx → monitor → estimate
	perMonitor := make(map[ID][]int)
	for i, mons := range verifiedBy {
		bySubject[i] = make(map[ID]float64, len(mons))
		for _, mon := range mons {
			perMonitor[mon] = append(perMonitor[mon], i)
		}
	}
	// The estimate phase gets its own deadline: the slowest stage-1
	// subject (e.g. an unreachable one timing out) must not leave live
	// subjects with an already-expired window here.
	estDeadline := time.Now().Add(timeout)
	var emu sync.Mutex
	for mon, idxs := range perMonitor {
		wg.Add(1)
		go func(mon ID, idxs []int) {
			defer wg.Done()
			batch := make([]ID, len(idxs))
			for j, i := range idxs {
				batch[j] = subjects[i]
			}
			ests, knowns, err := s.fetchBatchEstimates(mon, batch, estDeadline)
			if err != nil {
				return // this monitor contributes nothing
			}
			emu.Lock()
			for j, i := range idxs {
				if knowns[j] {
					bySubject[i][mon] = ests[j]
				}
			}
			emu.Unlock()
		}(mon, idxs)
	}
	wg.Wait()

	// Stage 3: assemble per-subject reports, preserving each subject's
	// verified-monitor order, and cache them in subject order: which
	// answers survive a mid-batch epoch flush of the cache is then a
	// function of the batch, not of map iteration.
	fill := time.Now()
	for _, i := range misses {
		mons, ok := verifiedBy[i]
		if !ok {
			continue // stage 1 recorded the error
		}
		report := &AvailabilityReport{Subject: subjects[i]}
		var sum float64
		for _, mon := range mons {
			est, ok := bySubject[i][mon]
			if !ok {
				continue
			}
			report.Monitors = append(report.Monitors, mon)
			report.Estimates = append(report.Estimates, est)
			sum += est
		}
		if len(report.Monitors) == 0 {
			answers[i].Err = fmt.Errorf("avmon: no verified monitor of %v answered: %w",
				subjects[i], ErrQueryTimeout)
			continue
		}
		report.Mean = sum / float64(len(report.Monitors))
		answers[i].Report = report
		if s.answers != nil {
			s.answers.Put(report, fill)
		}
	}
	return answers
}

// QueryAvailability performs the end-to-end availability lookup
// against a remote node: it requests l monitors from subject, verifies
// the report (rejecting fabricated monitors), asks every verified
// monitor for its estimate of subject, and aggregates the answers. It
// is QueryBatch with one subject — the same cache, the same two phases
// each bounded by timeout, the same errors.
//
// Concurrent calls are fully supported: every in-flight query waits on
// its own correlation key (peer, response type, nonce), so answers are
// never delivered to the wrong caller.
func (s *Service) QueryAvailability(subject ID, l int, timeout time.Duration) (*AvailabilityReport, error) {
	a := s.QueryBatch([]ID{subject}, l, timeout)[0]
	return a.Report, a.Err
}

// fetchBatchEstimates sends one AVAIL-BATCH-REQ for all subjects to a
// monitor and waits for the aligned response. It validates the echoed
// subject list and payload shape before trusting the answer.
func (s *Service) fetchBatchEstimates(monitor ID, subjects []ID, deadline time.Time) ([]float64, []bool, error) {
	m, err := s.roundTrip(monitor, core.MsgAvailBatchResp, deadline, func(nonce uint64) {
		s.node.QueryAvailabilityBatch(monitor, subjects, nonce)
	})
	if err != nil {
		return nil, nil, fmt.Errorf("avmon: batch estimates from %v: %w", monitor, err)
	}
	if len(m.View) != len(subjects) || len(m.Avails) != len(subjects) || len(m.Knowns) != len(subjects) {
		return nil, nil, fmt.Errorf("avmon: %v answered batch with wrong shape (%d/%d/%d entries, want %d)",
			monitor, len(m.View), len(m.Avails), len(m.Knowns), len(subjects))
	}
	for j, subject := range subjects {
		if m.View[j] != subject {
			return nil, nil, fmt.Errorf("avmon: %v echoed subject %v at position %d, want %v",
				monitor, m.View[j], j, subject)
		}
	}
	return m.Avails, m.Knowns, nil
}
