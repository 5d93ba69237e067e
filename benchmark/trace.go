package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval recorded by the traced pass. Spans are
// kept in memory and written out when the run ends. Parent is the ID
// of the span that caused this one (0 = root); spans of one query
// share Query (0 = not part of a query).
type span struct {
	ID     int64            `json:"id"`
	Parent int64            `json:"parent"`
	Query  int64            `json:"query,omitempty"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"` // since the recorder's epoch
	End    int64            `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// maxSpans bounds the in-memory trace; spans past it are counted in
// the file's "dropped_spans" and not stored.
const maxSpans = 200_000

// recorder collects spans. A nil *recorder is the untraced pass: every
// method is a no-op, so workload code calls it unconditionally. The on
// flag lets the traced pass switch recording off for alternate slices
// of a phase, which is how trace.overhead_pct is measured.
type recorder struct {
	epoch time.Time
	on    atomic.Bool
	busy  atomic.Int64 // nanoseconds spent inside record

	mu      sync.Mutex
	spans   []span
	nextID  int64
	dropped int64
}

func newRecorder() *recorder {
	r := &recorder{epoch: time.Now()}
	r.on.Store(true)
	return r
}

func (r *recorder) enabled() bool { return r != nil && r.on.Load() }

func (r *recorder) setEnabled(on bool) {
	if r != nil {
		r.on.Store(on)
	}
}

// record stores a finished span.
func (r *recorder) record(name string, parent, query int64, start, end time.Time, counts map[string]int64) {
	if !r.enabled() {
		return
	}
	t0 := time.Now()
	r.recordAs(r.reserve(), name, parent, query, start, end, counts)
	r.busy.Add(int64(time.Since(t0)))
}

// reserve hands out a span ID before the span ends, so children
// recorded meanwhile can name it as their parent; finish with
// recordAs.
func (r *recorder) reserve() int64 {
	if !r.enabled() {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	return r.nextID
}

func (r *recorder) recordAs(id int64, name string, parent, query int64, start, end time.Time, counts map[string]int64) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= maxSpans {
		r.dropped++
		return
	}
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Query: query, Name: name,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch)), Counts: counts,
	})
}

// traceFile is the on-disk form of one traced run.
type traceFile struct {
	Workload     string   `json:"workload"`
	Manifest     manifest `json:"manifest"`
	DroppedSpans int64    `json:"dropped_spans"`
	Spans        []span   `json:"spans"`
}

// write stores the trace as benchmark/out/trace-<workload>.json under
// dir and returns the path.
func (r *recorder) write(dir, workload string, m manifest) (string, error) {
	r.mu.Lock()
	tf := traceFile{Workload: workload, Manifest: m, DroppedSpans: r.dropped, Spans: r.spans}
	r.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	buf, err := json.Marshal(tf)
	if err != nil {
		return "", fmt.Errorf("marshal trace: %w", err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}
