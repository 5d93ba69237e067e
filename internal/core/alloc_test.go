package core

import (
	"math/rand"
	"slices"
	"testing"
	"time"
	"unsafe"

	"avmon/internal/ids"
)

// recyclingTransport models the cluster's steady-state message flow
// for allocation gates: every sent envelope is immediately reset and
// returned to the pool the node acquires from, exactly like the
// simulator's receiver-side recycling.
type recyclingTransport struct {
	pool []*Message
	sent int
}

func (r *recyclingTransport) Send(to ids.ID, m *Message) {
	r.sent++
	m.Reset()
	r.pool = append(r.pool, m)
}

func (r *recyclingTransport) acquire() *Message {
	if n := len(r.pool); n > 0 {
		m := r.pool[n-1]
		r.pool = r.pool[:n-1]
		return m
	}
	return &Message{}
}

// allocNode builds a node wired for pooled, steady-state operation.
func allocNode(t *testing.T, scheme SelectionScheme) (*Node, *recyclingTransport, time.Time) {
	t.Helper()
	rt := &recyclingTransport{}
	n, err := NewNode(Config{
		ID:             ids.Sim(0),
		Scheme:         scheme,
		Transport:      rt,
		Rand:           rand.New(rand.NewSource(9)),
		CVS:            8,
		AcquireMessage: rt.acquire,
	})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Date(2007, 1, 1, 0, 0, 0, 0, time.UTC)
	n.Join(now, ids.None)
	return n, rt, now
}

// TestZeroAllocMonitorTick gates the memory diet's core claim: a
// monitoring round over an established target set — probe resolution,
// counting each loss, pooled MON-PING sends — performs zero heap
// allocations per tick.
func TestZeroAllocMonitorTick(t *testing.T) {
	n, rt, now := allocNode(t, allRelated{})
	for i := 1; i <= 24; i++ {
		n.handleNotify(n.id, ids.Sim(i), now) // u = self: target added
	}
	if got := len(n.ts); got != 24 {
		t.Fatalf("targets = %d, want 24", got)
	}
	// Warm up: grow the pool and let targets reach the down/re-probe
	// steady state (no acks ever arrive here).
	for i := 0; i < 3; i++ {
		now = now.Add(time.Minute)
		n.MonitorTick(now)
	}
	sentBefore := rt.sent
	allocs := testing.AllocsPerRun(100, func() {
		now = now.Add(time.Minute)
		n.MonitorTick(now)
	})
	if allocs != 0 {
		t.Errorf("MonitorTick allocates %v objects per tick, want 0", allocs)
	}
	if rt.sent == sentBefore {
		t.Fatal("gate measured nothing: no probes were sent")
	}
}

// TestZeroAllocMonitorAck extends the gate over the ack path: a full
// probe/ack round trip (MON-PING out, MON-ACK counted in the target's
// record) stays allocation-free.
func TestZeroAllocMonitorAck(t *testing.T) {
	n, _, now := allocNode(t, allRelated{})
	for i := 1; i <= 8; i++ {
		n.handleNotify(n.id, ids.Sim(i), now)
	}
	ack := &Message{Type: MsgMonAck}
	round := func() {
		now = now.Add(time.Minute)
		n.MonitorTick(now)
		for i := 1; i <= 8; i++ {
			id := ids.Sim(i)
			pos := slices.Index(n.tsIDs, id)
			if pos < 0 {
				t.Fatal("target vanished")
			}
			ack.Seq = n.probeBase + uint64(n.ts[pos].probe)
			n.Handle(id, ack, now)
		}
	}
	round() // warm up
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("probe/ack round allocates %v objects, want 0", allocs)
	}
}

// TestZeroAllocCVRespSweep gates the simulation's hottest loop: the
// Θ(cvs²) consistency-condition sweep plus the coarse-view reshuffle
// run entirely in scratch at steady state.
func TestZeroAllocCVRespSweep(t *testing.T) {
	n, _, now := allocNode(t, noneRelated{})
	for i := 1; i <= 8; i++ {
		n.cv.add(ids.Sim(i))
	}
	w := ids.Sim(50)
	msg := &Message{Type: MsgCVResp}
	for i := 60; i < 70; i++ {
		msg.View = append(msg.View, ids.Sim(i))
	}
	n.Handle(w, msg, now) // warm up: grow the sweep scratch
	checksBefore := n.hashChecks
	allocs := testing.AllocsPerRun(100, func() {
		n.Handle(w, msg, now)
	})
	if allocs != 0 {
		t.Errorf("CV-RESP sweep allocates %v objects per response, want 0", allocs)
	}
	if n.hashChecks == checksBefore {
		t.Fatal("gate measured nothing: no hash checks ran")
	}
}

// TestNodeSizeClass pins Node — the coarse view's header by value
// inside it, its configuration by pointer — at 264 bytes, and NewNode's
// one allocation, the node and its private Config, in the allocator's
// 416-byte class. A simulated cluster builds the node inside its member
// block, whose size the root package's TestNodeBlockBytes pins, and a
// million-node run pays 1 MB per byte added here. Sweep buffers belong
// in the per-worker SweepScratch, not in the node.
func TestNodeSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Node{}); size > 264 {
		t.Errorf("Node is %d bytes, want ≤ 264", size)
	}
	if size := unsafe.Sizeof(Node{}) + unsafe.Sizeof(Config{}); size > 416 {
		t.Errorf("a Node and its Config are %d bytes, want ≤ 416", size)
	}
}

// TestTargetIsHalfACacheLine pins the TS record at 32 bytes: a node
// holds ~K ≈ 21 of them at N = 10⁶, where 8 bytes more per record is
// 160 MB. Identities, activity counters and the outstanding probes'
// instant and sequence base live beside it, in Node.
func TestTargetIsHalfACacheLine(t *testing.T) {
	if size := unsafe.Sizeof(target{}); size != 32 {
		t.Errorf("target is %d bytes, want 32", size)
	}
}
