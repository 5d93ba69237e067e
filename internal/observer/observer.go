// Package observer scrapes per-node metrics from running AVMON
// services over a side channel — direct method calls serialized by
// each service's own lock — never protocol messages. Observation is
// therefore invisible on the wire: it adds no traffic, consumes no
// protocol randomness, and mutates no protocol state (the realnet
// test suite proves state invariance under concurrent scraping with a
// fingerprint check).
//
// The observer is the realnet counterpart of the simulator's
// quiescent Stats() sweep: where the simulator can stop virtual time
// and read every node, a real deployment is scraped periodically
// while the protocol runs, so each sample carries its wall-clock
// timestamp and per-node discovery is detected by polling.
package observer

import (
	"sync"
	"sync/atomic"
	"time"

	"avmon/internal/ids"
)

// Node is the protocol scrape surface of one service.
// *avmon.Service satisfies it.
type Node interface {
	// ID returns the node's identity.
	ID() ids.ID
	// Stats returns a coarse protocol snapshot: pinging-set,
	// target-set, and coarse-view sizes, plus the cumulative hash
	// checks spent on the consistency condition.
	Stats() (psSize, tsSize, cvSize int, hashChecks uint64)
}

// Traffic is the optional transport scrape surface of one service.
// Both netstack.UDPTransport and memnet.Transport satisfy it.
type Traffic interface {
	// DatagramsSent counts outgoing datagrams.
	DatagramsSent() uint64
	// WireBytesSent counts outgoing bytes under the paper's
	// accounting model (core.Message.WireSize).
	WireBytesSent() uint64
}

// Target couples one node's protocol surface with its transport
// counters (Traffic may be nil when no transport handle is available).
type Target struct {
	Node    Node
	Traffic Traffic
}

// Sample is one scrape of one target.
type Sample struct {
	// At is the scrape's wall-clock time.
	At time.Time
	// PSSize, TSSize, and CVSize are the pinging-set, target-set, and
	// coarse-view sizes at the scrape.
	PSSize, TSSize, CVSize int
	// HashChecks is the node's cumulative consistency-condition count.
	HashChecks uint64
	// WireBytes and Datagrams are the transport's cumulative outgoing
	// counters (zero when the target has no Traffic surface).
	WireBytes, Datagrams uint64
}

// Observer periodically scrapes a set of targets. Targets may be
// added while the observer runs (late joiners); each addition starts
// that target's discovery stopwatch.
type Observer struct {
	interval time.Duration

	mu      sync.Mutex
	targets []Target
	last    []Sample
	watched []time.Time // per-target watch start (discovery stopwatch)
	found   []time.Time // zero until the first scrape with PSSize > 0

	scrapes uint64 // atomic

	stop     chan struct{}
	stopOnce sync.Once
	done     sync.WaitGroup
	started  bool
}

// New builds an observer scraping every interval once Start is called.
func New(interval time.Duration) *Observer {
	return &Observer{interval: interval, stop: make(chan struct{})}
}

// Add registers a target and starts its discovery stopwatch, returning
// its index. Safe to call while the observer runs.
func (o *Observer) Add(tg Target) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.targets = append(o.targets, tg)
	o.last = append(o.last, Sample{})
	o.watched = append(o.watched, time.Now())
	o.found = append(o.found, time.Time{})
	return len(o.targets) - 1
}

// Start launches the scrape loop. Starting twice is a no-op.
func (o *Observer) Start() {
	o.mu.Lock()
	if o.started {
		o.mu.Unlock()
		return
	}
	o.started = true
	o.mu.Unlock()
	o.done.Add(1)
	go func() {
		defer o.done.Done()
		t := time.NewTicker(o.interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				o.ScrapeOnce()
			case <-o.stop:
				return
			}
		}
	}()
}

// Stop terminates the scrape loop. Idempotent.
func (o *Observer) Stop() {
	o.stopOnce.Do(func() { close(o.stop) })
	o.done.Wait()
}

// ScrapeOnce scrapes every target immediately (also used by the loop).
// Each target is read under its own service lock only for the duration
// of its Stats call, so scraping never blocks the whole deployment.
func (o *Observer) ScrapeOnce() {
	o.mu.Lock()
	targets := make([]Target, len(o.targets))
	copy(targets, o.targets)
	o.mu.Unlock()

	now := time.Now()
	samples := make([]Sample, len(targets))
	for i, tg := range targets {
		ps, ts, cv, checks := tg.Node.Stats()
		s := Sample{At: now, PSSize: ps, TSSize: ts, CVSize: cv, HashChecks: checks}
		if tg.Traffic != nil {
			s.WireBytes = tg.Traffic.WireBytesSent()
			s.Datagrams = tg.Traffic.DatagramsSent()
		}
		samples[i] = s
	}
	atomic.AddUint64(&o.scrapes, 1)

	o.mu.Lock()
	defer o.mu.Unlock()
	for i, s := range samples {
		o.last[i] = s
		if o.found[i].IsZero() && s.PSSize > 0 {
			o.found[i] = now
		}
	}
}

// DiscoveryTime returns how long after Add the target was first
// observed with a non-empty pinging set. ok is false while the target
// has not yet been seen with a monitor. The resolution is the scrape
// interval.
func (o *Observer) DiscoveryTime(i int) (time.Duration, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.found[i].IsZero() {
		return 0, false
	}
	return o.found[i].Sub(o.watched[i]), true
}

// Scrapes returns how many scrape sweeps have completed.
func (o *Observer) Scrapes() uint64 { return atomic.LoadUint64(&o.scrapes) }

// Size returns the number of registered targets.
func (o *Observer) Size() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.targets)
}
