package avmon

import (
	"sync"
	"time"
)

// DefaultAnswerCacheEntries bounds the number of availability reports
// an AnswerCache holds before an epoch flush. Each entry is a few
// hundred bytes, so a full cache costs a few tens of megabytes —
// bounded regardless of how many distinct subjects a query front-end
// serves.
const DefaultAnswerCacheEntries = 1 << 16

// AnswerCache is a bounded, TTL-expiring cache of verified availability
// reports, keyed by subject: a capacity-bounded map with epoch flushes
// instead of per-entry recency tracking, plus a TTL tied to the
// monitoring period: an availability estimate can only change when
// monitors take a new sample, so an answer younger than one monitoring
// period is as fresh as a re-query.
//
// Unlike MemoSelector (single-threaded by contract), AnswerCache is
// safe for concurrent use: it serves Service.QueryBatch (and so
// QueryAvailability), any number of which run at once.
// Cached *AvailabilityReport values are shared between callers and
// must be treated as read-only.
type AnswerCache struct {
	mu      sync.Mutex
	ttl     time.Duration
	cap     int
	entries map[ID]answerEntry

	hits    uint64
	misses  uint64
	flushes uint64
}

type answerEntry struct {
	report *AvailabilityReport
	stored time.Time
}

// NewAnswerCache builds a cache whose answers expire after ttl.
// capacity ≤ 0 selects DefaultAnswerCacheEntries; ttl must be positive.
func NewAnswerCache(ttl time.Duration, capacity int) *AnswerCache {
	if capacity <= 0 {
		capacity = DefaultAnswerCacheEntries
	}
	return &AnswerCache{
		ttl:     ttl,
		cap:     capacity,
		entries: make(map[ID]answerEntry),
	}
}

// TTL returns the cache's answer lifetime.
func (c *AnswerCache) TTL() time.Duration { return c.ttl }

// Get returns the cached report for subject if it is younger than the
// TTL at time now. Expired entries are removed on lookup.
func (c *AnswerCache) Get(subject ID, now time.Time) (*AvailabilityReport, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[subject]
	if ok && now.Sub(e.stored) < c.ttl {
		c.hits++
		return e.report, true
	}
	if ok {
		delete(c.entries, subject)
	}
	c.misses++
	return nil, false
}

// Put stores a verified report, keyed by its Subject, stamped at time
// now. When the capacity bound is hit the whole cache is flushed (one
// epoch): the hot subject population shifts slowly, so a flush
// repopulates within one TTL window.
func (c *AnswerCache) Put(report *AvailabilityReport, now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[report.Subject]; !ok && len(c.entries) >= c.cap {
		c.entries = make(map[ID]answerEntry)
		c.flushes++
	}
	c.entries[report.Subject] = answerEntry{report: report, stored: now}
}

// AnswerCacheStats reports cache effectiveness counters.
type AnswerCacheStats struct {
	// Hits counts lookups answered from the cache.
	Hits uint64
	// Misses counts lookups that went to the network (including
	// lookups that found only an expired entry).
	Misses uint64
	// Flushes counts epoch flushes triggered by the capacity bound.
	Flushes uint64
	// Entries is the number of reports currently cached.
	Entries int
}

// Stats returns a snapshot of the cache counters.
func (c *AnswerCache) Stats() AnswerCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return AnswerCacheStats{Hits: c.hits, Misses: c.misses, Flushes: c.flushes, Entries: len(c.entries)}
}

// Reset drops all cached answers (the counters survive).
func (c *AnswerCache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[ID]answerEntry)
	c.flushes++
}
