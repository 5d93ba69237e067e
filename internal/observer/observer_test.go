package observer

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"avmon/internal/ids"
)

// fakeNode is a scriptable scrape surface.
type fakeNode struct {
	id ids.ID

	mu     sync.Mutex
	ps     int
	checks uint64
}

func (f *fakeNode) ID() ids.ID { return f.id }

func (f *fakeNode) Stats() (int, int, int, uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ps, 2, 3, f.checks
}

func (f *fakeNode) setPS(n int) {
	f.mu.Lock()
	f.ps = n
	f.mu.Unlock()
}

type fakeTraffic struct{ datagrams, bytes uint64 }

func (f *fakeTraffic) DatagramsSent() uint64 { return atomic.LoadUint64(&f.datagrams) }
func (f *fakeTraffic) WireBytesSent() uint64 { return atomic.LoadUint64(&f.bytes) }

// last returns the most recent sample of target i (the zero Sample
// before the first scrape).
func last(o *Observer, i int) Sample {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.last[i]
}

func TestObserverScrapeAndDiscovery(t *testing.T) {
	n := &fakeNode{id: ids.Sim(1), checks: 42}
	tr := &fakeTraffic{datagrams: 5, bytes: 120}
	o := New(time.Hour) // loop never fires; drive scrapes by hand
	i := o.Add(Target{Node: n, Traffic: tr})
	if o.Size() != 1 {
		t.Fatalf("Size = %d, want 1", o.Size())
	}

	o.ScrapeOnce()
	s := last(o, i)
	if s.PSSize != 0 || s.TSSize != 2 || s.CVSize != 3 || s.HashChecks != 42 {
		t.Errorf("sample = %+v", s)
	}
	if s.Datagrams != 5 || s.WireBytes != 120 {
		t.Errorf("traffic sample = %+v", s)
	}
	if _, ok := o.DiscoveryTime(i); ok {
		t.Error("discovery reported before any monitor appeared")
	}

	n.setPS(3)
	o.ScrapeOnce()
	d, ok := o.DiscoveryTime(i)
	if !ok || d < 0 {
		t.Errorf("DiscoveryTime = (%v, %v), want a non-negative duration", d, ok)
	}
	// Discovery time is latched at the first positive scrape.
	time.Sleep(5 * time.Millisecond)
	o.ScrapeOnce()
	if d2, _ := o.DiscoveryTime(i); d2 != d {
		t.Errorf("DiscoveryTime moved from %v to %v", d, d2)
	}
	if o.Scrapes() != 3 {
		t.Errorf("Scrapes = %d, want 3", o.Scrapes())
	}
}

func TestObserverNilTraffic(t *testing.T) {
	o := New(time.Hour)
	i := o.Add(Target{Node: &fakeNode{id: ids.Sim(1)}})
	o.ScrapeOnce()
	if s := last(o, i); s.Datagrams != 0 || s.WireBytes != 0 {
		t.Errorf("sample with nil Traffic = %+v", s)
	}
}

func TestObserverLoopAndConcurrentAdd(t *testing.T) {
	o := New(2 * time.Millisecond)
	o.Add(Target{Node: &fakeNode{id: ids.Sim(1), ps: 1}})
	o.Start()
	o.Start() // idempotent
	defer o.Stop()

	// Add targets while the loop scrapes.
	for i := 2; i <= 20; i++ {
		o.Add(Target{Node: &fakeNode{id: ids.Sim(i), ps: 1}})
	}
	deadline := time.Now().Add(2 * time.Second)
	for o.Scrapes() < 3 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if o.Scrapes() < 3 {
		t.Fatalf("loop completed %d scrapes in 2s", o.Scrapes())
	}
	o.Stop()
	o.Stop() // idempotent
	if o.Size() != 20 {
		t.Errorf("Size = %d, want 20", o.Size())
	}
	for i := 0; i < 20; i++ {
		if s := last(o, i); s.At.IsZero() || s.PSSize != 1 {
			// Late adds may miss the final sweep; only targets scraped
			// at least once must carry data.
			if !s.At.IsZero() {
				t.Errorf("target %d sample = %+v", i, s)
			}
		}
	}
}
