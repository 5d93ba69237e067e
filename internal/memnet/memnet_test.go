package memnet

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"avmon/internal/core"
	"avmon/internal/ids"
	"avmon/internal/simnet"
)

// collect starts a Serve loop appending every delivered message.
func collect(t *testing.T, tr *Transport) (func() []*core.Message, chan struct{}) {
	t.Helper()
	var mu sync.Mutex
	var got []*core.Message
	notify := make(chan struct{}, 64)
	go func() {
		_ = tr.Serve(func(from ids.ID, m *core.Message) {
			mu.Lock()
			got = append(got, m)
			mu.Unlock()
			select {
			case notify <- struct{}{}:
			default:
			}
		})
	}()
	return func() []*core.Message {
		mu.Lock()
		defer mu.Unlock()
		return append([]*core.Message(nil), got...)
	}, notify
}

func TestMemnetDelivery(t *testing.T) {
	n := New(Config{Seed: 1})
	defer n.Close()
	a, err := n.Listen(ids.MustParse("127.0.0.1:9001"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Listen(ids.MustParse("127.0.0.1:9002"))
	if err != nil {
		t.Fatal(err)
	}
	got, notify := collect(t, b)

	a.Send(b.ID(), &core.Message{Type: core.MsgPing, From: a.ID(), Seq: 7})
	select {
	case <-notify:
	case <-time.After(3 * time.Second):
		t.Fatal("datagram not delivered within 3s")
	}
	msgs := got()
	if len(msgs) != 1 || msgs[0].Type != core.MsgPing || msgs[0].Seq != 7 || msgs[0].From != a.ID() {
		t.Errorf("received %+v", msgs)
	}
	if a.DatagramsSent() != 1 || a.WireBytesSent() == 0 || a.RawBytesSent() == 0 {
		t.Errorf("sender counters = (%d, %d, %d), want non-zero traffic",
			a.DatagramsSent(), a.WireBytesSent(), a.RawBytesSent())
	}
	// Wire accounting follows the paper's model exactly.
	if want := (&core.Message{Type: core.MsgPing}).WireSize(); a.WireBytesSent() != uint64(want) {
		t.Errorf("WireBytesSent = %d, want %d", a.WireBytesSent(), want)
	}
}

func TestMemnetLatencyDelaysDelivery(t *testing.T) {
	lat, err := simnet.NewConstantLatency(60 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	n := New(Config{Latency: lat, Seed: 1})
	defer n.Close()
	a, _ := n.Listen(ids.Sim(1))
	b, _ := n.Listen(ids.Sim(2))
	_, notify := collect(t, b)

	start := time.Now()
	a.Send(b.ID(), &core.Message{Type: core.MsgPing, From: a.ID()})
	select {
	case <-notify:
	case <-time.After(3 * time.Second):
		t.Fatal("datagram not delivered within 3s")
	}
	// Allow generous slack below the drawn latency for coarse timers,
	// but delivery must not be (near-)immediate.
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Errorf("delivered after %v, want ≥ ~60ms (modeled latency)", elapsed)
	}
}

func TestMemnetGilbertElliottLossDrops(t *testing.T) {
	// lossGood = lossBad = 1: every message is dropped regardless of
	// the chain state, so the assertion is deterministic.
	loss, err := simnet.NewGilbertElliottLoss(0.5, 0.5, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := New(Config{Loss: loss, Seed: 1})
	defer n.Close()
	a, _ := n.Listen(ids.Sim(1))
	b, _ := n.Listen(ids.Sim(2))
	got, _ := collect(t, b)

	for i := 0; i < 10; i++ {
		a.Send(b.ID(), &core.Message{Type: core.MsgPing, From: a.ID(), Seq: uint64(i)})
	}
	time.Sleep(100 * time.Millisecond)
	if msgs := got(); len(msgs) != 0 {
		t.Errorf("received %d messages through an always-lossy channel", len(msgs))
	}
	if st := n.Stats(); st.LossDrops != 10 {
		t.Errorf("LossDrops = %d, want 10", st.LossDrops)
	}
	// Losses still count as sent on the sender, as they would on UDP.
	if a.DatagramsSent() != 10 {
		t.Errorf("DatagramsSent = %d, want 10", a.DatagramsSent())
	}
}

func TestMemnetMalformedDatagramCounted(t *testing.T) {
	n := New(Config{Seed: 1})
	defer n.Close()
	b, _ := n.Listen(ids.Sim(2))
	got, _ := collect(t, b)

	n.handoff(b, []byte{1, 2, 3}) // raw garbage straight into the inbox
	time.Sleep(50 * time.Millisecond)
	if msgs := got(); len(msgs) != 0 {
		t.Errorf("garbage decoded into %d messages", len(msgs))
	}
	if b.DroppedDatagrams() != 1 {
		t.Errorf("DroppedDatagrams = %d, want 1", b.DroppedDatagrams())
	}
}

func TestMemnetUnroutableAndDuplicate(t *testing.T) {
	n := New(Config{Seed: 1})
	defer n.Close()
	a, err := n.Listen(ids.Sim(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen(ids.Sim(1)); err == nil {
		t.Error("duplicate Listen succeeded")
	}
	if _, err := n.Listen(ids.None); err == nil {
		t.Error("Listen on None succeeded")
	}
	a.Send(ids.Sim(99), &core.Message{Type: core.MsgPing, From: a.ID()})
	deadline := time.Now().Add(2 * time.Second)
	for n.Stats().UnroutableDrops == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if st := n.Stats(); st.UnroutableDrops != 1 {
		t.Errorf("UnroutableDrops = %d, want 1", st.UnroutableDrops)
	}
}

func TestMemnetCloseUnblocksServe(t *testing.T) {
	n := New(Config{Seed: 1})
	defer n.Close()
	a, _ := n.Listen(ids.Sim(1))
	served := make(chan error, 1)
	go func() { served <- a.Serve(func(ids.ID, *core.Message) {}) }()
	time.Sleep(20 * time.Millisecond)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Errorf("Serve returned %v after Close, want nil", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
	// Double Close is safe; Send after Close is a no-op; the identity
	// is immediately rebindable.
	if err := a.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	a.Send(ids.Sim(1), &core.Message{Type: core.MsgPing})
	if _, err := n.Listen(ids.Sim(1)); err != nil {
		t.Errorf("rebind after Close: %v", err)
	}
}

func TestMemnetNetworkCloseIdempotent(t *testing.T) {
	n := New(Config{Seed: 1})
	if _, err := n.Listen(ids.Sim(1)); err != nil {
		t.Fatal(err)
	}
	n.Close()
	n.Close()
	if _, err := n.Listen(ids.Sim(2)); err == nil {
		t.Error("Listen on a closed network succeeded")
	}
}

// TestMemnetInboxBoundAndOrder pins the inbox contract: at most
// InboxDepth datagrams wait, the rest are dropped and counted on both
// counters, the waiting ones are delivered in order, and Close returns
// Serve even with datagrams still queued.
func TestMemnetInboxBoundAndOrder(t *testing.T) {
	const depth, sent = 16, 20
	n := New(Config{Seed: 1, InboxDepth: depth})
	defer n.Close()
	a, _ := n.Listen(ids.Sim(1))
	b, _ := n.Listen(ids.Sim(2))
	send := func(seq uint64) { a.Send(b.ID(), &core.Message{Type: core.MsgPing, From: a.ID(), Seq: seq}) }
	for i := 0; i < sent; i++ {
		send(uint64(i))
	}
	if got := n.Stats().InboxOverflows; got != sent-depth {
		t.Errorf("Stats().InboxOverflows = %d, want %d", got, sent-depth)
	}
	if got := b.InboxOverflows(); got != sent-depth {
		t.Errorf("InboxOverflows() = %d, want %d", got, sent-depth)
	}

	const blocker = 100 // the handler holds this one until released
	var mu sync.Mutex
	var seqs []uint64
	delivered := make(chan struct{}, sent+8) // room for every datagram the test sends
	release := make(chan struct{})
	served := make(chan error, 1)
	go func() {
		served <- b.Serve(func(_ ids.ID, m *core.Message) {
			mu.Lock()
			seqs = append(seqs, m.Seq)
			mu.Unlock()
			delivered <- struct{}{}
			if m.Seq == blocker {
				<-release
			}
		})
	}()
	await := func(k int) {
		t.Helper()
		for i := 0; i < k; i++ {
			select {
			case <-delivered:
			case <-time.After(3 * time.Second):
				t.Fatalf("datagram %d not delivered within 3s", i)
			}
		}
	}
	await(depth)
	send(blocker)
	await(1)
	mu.Lock()
	got := append([]uint64(nil), seqs...)
	mu.Unlock()
	if len(got) != depth+1 || got[depth] != blocker {
		t.Fatalf("delivered %v, want 0..%d then %d", got, depth-1, blocker)
	}
	for i := 0; i < depth; i++ {
		if got[i] != uint64(i) {
			t.Fatalf("delivered %v, want 0..%d in order", got, depth-1)
		}
	}

	// Datagrams queue behind the blocked handler; Close must still end
	// Serve.
	for i := 1; i <= 3; i++ {
		send(blocker + uint64(i))
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	close(release)
	select {
	case err := <-served:
		if err != nil {
			t.Errorf("Serve returned %v after Close, want nil", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("Serve did not return after Close with datagrams queued")
	}
}

// TestMemnetConcurrentSendersKeepOrder has several senders share one
// inbox while it is served: every datagram arrives once, and each
// sender's arrive in the order it sent them.
func TestMemnetConcurrentSendersKeepOrder(t *testing.T) {
	const senders, each = 4, 2000
	n := New(Config{Seed: 1, InboxDepth: senders * each})
	defer n.Close()
	dst, _ := n.Listen(ids.Sim(100))
	next := make(map[ids.ID]uint64) // touched only by Serve's goroutine
	var got atomic.Int64
	var disorder atomic.Int64
	done := make(chan struct{})
	go func() {
		_ = dst.Serve(func(from ids.ID, m *core.Message) {
			if m.Seq != next[from] {
				disorder.Add(1)
			}
			next[from] = m.Seq + 1
			if got.Add(1) == senders*each {
				close(done)
			}
		})
	}()
	var wg sync.WaitGroup
	for s := 1; s <= senders; s++ {
		src, err := n.Listen(ids.Sim(s))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				src.Send(dst.ID(), &core.Message{Type: core.MsgPing, From: src.ID(), Seq: uint64(i)})
			}
		}()
	}
	wg.Wait()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%d of %d datagrams delivered within 10s", got.Load(), senders*each)
	}
	if d := disorder.Load(); d != 0 {
		t.Errorf("%d datagrams arrived out of their sender's order", d)
	}
	if o := dst.InboxOverflows(); o != 0 {
		t.Errorf("%d datagrams overflowed an inbox deep enough for all", o)
	}
}

// liveHeap is the live heap in bytes after a collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestMemnetIdleEndpointBytes pins what an endpoint costs while nothing
// waits in its inbox, at the depth fleets run with: the bound is a limit,
// not a reservation, and a drained burst gives its storage back.
func TestMemnetIdleEndpointBytes(t *testing.T) {
	const endpoints, depth = 512, 8192
	// Bytes per idle endpoint: measured ≈ 320 for a fresh one; a served
	// one may also keep a batch array of up to spareCap entries (384 B).
	// The drained reading carries runtime noise of a few KB under -race,
	// spread over the drainers.
	const bound = 1 << 10
	n := New(Config{Seed: 1, InboxDepth: depth})
	defer n.Close()
	eps := make([]*Transport, endpoints)
	before := liveHeap()
	for i := range eps {
		var err error
		if eps[i], err = n.Listen(ids.Sim(i + 1)); err != nil {
			t.Fatal(err)
		}
	}
	idle := float64(liveHeap()-before) / endpoints
	t.Logf("idle endpoint: %.0f B at InboxDepth %d", idle, depth)
	if idle > bound {
		t.Errorf("an idle endpoint holds %.0f B of live heap, want ≤ %d", idle, bound)
	}

	// Bursts queue behind a few blocked handlers, then drain. The first
	// round warms the runtime up (threads, timers), so the second one
	// measures only what the endpoints keep.
	const drainers = 16
	src, dsts := eps[0], eps[1:1+drainers]
	var got atomic.Int64
	var gate sync.RWMutex
	var served sync.WaitGroup
	for _, dst := range dsts {
		served.Add(1)
		go func(dst *Transport) {
			defer served.Done()
			_ = dst.Serve(func(ids.ID, *core.Message) {
				gate.RLock()
				got.Add(1)
				gate.RUnlock()
			})
		}(dst)
	}
	msg := &core.Message{Type: core.MsgPing, From: src.ID()}
	burst := func() {
		gate.Lock()
		want := got.Load() + drainers*depth
		for _, dst := range dsts {
			for i := 0; i < depth; i++ {
				src.Send(dst.ID(), msg)
			}
		}
		gate.Unlock()
		for deadline := time.Now().Add(10 * time.Second); got.Load() < want; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d datagrams handled within 10s", got.Load()-want+drainers*depth, drainers*depth)
			}
		}
	}
	burst()
	base := liveHeap()
	burst()
	if o := n.Stats().InboxOverflows; o != 0 {
		t.Fatalf("%d datagrams of %d-datagram bursts overflowed inboxes of depth %d", o, depth, depth)
	}
	// Serve gives a burst's array back as soon as it has handled it.
	drained := func() float64 { return idle + float64(liveHeap()-base)/drainers }
	cost := drained()
	for deadline := time.Now().Add(3 * time.Second); cost > bound && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		cost = drained()
	}
	t.Logf("drained endpoint: %.0f B", cost)
	if cost > bound {
		t.Errorf("after draining a %d-datagram burst an endpoint holds %.0f B, want ≤ %d", depth, cost, bound)
	}
	for _, dst := range dsts {
		_ = dst.Close()
	}
	served.Wait()
	runtime.KeepAlive(eps)
}

// TestWheelPopsInDeadlineOrder checks the delivery wheel against a
// sort: earliest deadline first, send order among equal deadlines.
func TestWheelPopsInDeadlineOrder(t *testing.T) {
	var w wheel
	now := time.Now()
	const n = 500
	for seq := uint64(1); seq <= n; seq++ {
		w.push(delivery{at: now.Add(time.Duration(seq*7919%61) * time.Millisecond), seq: seq})
	}
	prev := w.pop()
	for i := 1; i < n; i++ {
		d := w.pop()
		if d.before(&prev) {
			t.Fatalf("pop %d: (%v, %d) after (%v, %d)", i, d.at.Sub(now), d.seq, prev.at.Sub(now), prev.seq)
		}
		prev = d
	}
	if len(w) != 0 {
		t.Fatalf("%d deliveries left after %d pops", len(w), n)
	}
}

// TestZeroAllocWheel pins that the delivery wheel holds deliveries by
// value: once grown, a push and a pop allocate nothing.
func TestZeroAllocWheel(t *testing.T) {
	w := make(wheel, 0, 4)
	now := time.Now()
	var seq uint64
	allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 3; i++ {
			seq++
			w.push(delivery{at: now.Add(time.Duration(seq % 3)), seq: seq})
		}
		for len(w) > 0 {
			w.pop()
		}
	})
	if allocs != 0 {
		t.Errorf("wheel push+pop: %v allocs/run, want 0", allocs)
	}
}
