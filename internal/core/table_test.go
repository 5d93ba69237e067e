package core

import (
	"testing"
	"time"

	"avmon/internal/availability"
	"avmon/internal/ids"
)

// TestTargetInitStyles pins the inline-raw optimization: under the
// default style a discovered target's history is the raw counts inlined
// in its record and the stores column stays nil; under every other style
// each target gets a Store of its own and the inlined counts stay unused.
func TestTargetInitStyles(t *testing.T) {
	for _, style := range []string{"raw", "recent:1h", "aged:0.5"} {
		fn := newFakeNet(t)
		n := fn.addNode(1, allRelated{}, func(c *Config) { c.HistoryStyle = style })
		n.Join(fn.now, ids.None)
		for _, v := range []ids.ID{ids.Sim(2), ids.Sim(3)} {
			n.Handle(v, &Message{Type: MsgNotify, U: n.id, V: v}, fn.now)
		}
		n.history(0).Record(fn.now, true)
		n.history(0).Record(fn.now.Add(time.Minute), false)
		if style == "raw" {
			if n.stores != nil {
				t.Errorf("raw: %d Stores allocated", len(n.stores))
			}
			if raw, ok := n.history(0).(*availability.Raw); !ok || raw != &n.ts[0].raw {
				t.Error("raw: the history is not the record's inlined counts")
			}
			if got := n.history(0).Estimate(fn.now.Add(time.Minute)); got != 0.5 {
				t.Errorf("raw: estimate = %v, want 0.5", got)
			}
			continue
		}
		if len(n.stores) != 2 || n.stores[0] == nil || n.stores[0] == n.stores[1] {
			t.Fatalf("%s: Stores %v for 2 targets, want one each", style, n.stores)
		}
		if got := n.stores[0].Samples(); got != 2 || n.stores[1].Samples() != 0 || n.ts[0].raw.Samples() != 0 {
			t.Errorf("%s: samples %d and %d in the Stores, %d inlined; want 2, 0, 0", style, got, n.stores[1].Samples(), n.ts[0].raw.Samples())
		}
	}
}
