package core

import (
	"math/rand"
	"testing"
	"time"

	"avmon/internal/hashing"
	"avmon/internal/ids"
)

// BenchmarkSweep48 times one CV-RESP at cvs = 48 with the fast hash —
// the sweep of about 4 800 checks, its NOTIFYs and the reshuffle — as
// the benchmark's core.handle_cvresp_ns_cvs48 replay does, for local
// A/B runs.
func BenchmarkSweep48(b *testing.B) {
	const cvs, population = 48, 2000
	sel, err := hashing.NewSelector(hashing.FastHasher{}, 11, population)
	if err != nil {
		b.Fatal(err)
	}
	rt := &recyclingTransport{}
	rng := rand.New(rand.NewSource(1))
	n, err := NewNode(Config{
		ID: ids.Sim(0), Scheme: sel, Transport: rt, Rand: rng, CVS: cvs, AcquireMessage: rt.acquire,
	})
	if err != nil {
		b.Fatal(err)
	}
	now := time.Date(2007, 1, 1, 0, 0, 0, 0, time.UTC)
	n.Join(now, ids.Sim(1))
	views := make([][]ids.ID, 512)
	for i := range views {
		views[i] = make([]ids.ID, cvs)
		for j := range views[i] {
			views[i][j] = ids.Sim(1 + rng.Intn(population-1))
		}
	}
	msg := &Message{Type: MsgCVResp}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msg.View = views[i%len(views)]
		n.Handle(msg.View[0], msg, now)
	}
	b.ReportMetric(float64(n.HashChecks())/float64(b.N), "checks/op")
}
