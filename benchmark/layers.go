package main

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"avmon"
	"avmon/internal/core"
	"avmon/internal/hashing"
	"avmon/internal/ids"
	"avmon/internal/memnet"
	"avmon/internal/netstack"
	"avmon/internal/sim"
	"avmon/internal/simnet"
)

// The isolated layer replays: each exercises one layer alone, through
// its exported functions, on inputs shaped like the workloads' (ids
// drawn from a population of 2000, coarse views of 27 and 48 entries,
// K = 11 monitors per report). Every replay is timed in blocks of
// thousands of operations, never call by call, and reports the median
// block. They run in every traced pass, whatever the workload, so their
// numbers line up across all four.

const (
	replayIDs    = 2000
	replayBlocks = 5
)

// sink keeps the compiler from discarding replayed calls.
var sink uint64

// nsPerOp runs block (ops operations) replayBlocks times and returns the
// median cost of one operation.
func nsPerOp(ops int, block func()) float64 {
	per := make([]float64, replayBlocks)
	for i := range per {
		t0 := time.Now()
		block()
		per[i] = float64(time.Since(t0).Nanoseconds()) / float64(ops)
	}
	return median(per)
}

// replayLayers runs every isolated replay and returns their metrics.
func replayLayers(seed int64) map[string]float64 {
	out := map[string]float64{}
	rng := rand.New(rand.NewSource(seed ^ 0x1A7E125))
	replayHashing(out, rng)
	replayEngine(out, rng)
	replaySimnet(out)
	replayCore(out, rng)
	replayCodec(out)
	replayUDP(out, seed)
	replayMemnet(out)
	replayCache(out)
	return out
}

type idPair struct{ y, x ids.ID }

func randomPairs(rng *rand.Rand, n int) []idPair {
	pairs := make([]idPair, n)
	for i := range pairs {
		pairs[i] = idPair{ids.Sim(rng.Intn(replayIDs)), ids.Sim(rng.Intn(replayIDs))}
	}
	return pairs
}

func mustSelector(h hashing.Hasher, k, n int) *hashing.Selector {
	sel, err := hashing.NewSelector(h, k, n)
	if err != nil {
		panic(err) // constant, valid parameters
	}
	return sel
}

func replayHashing(out map[string]float64, rng *rand.Rand) {
	pairs := randomPairs(rng, 1<<14)
	related := func(sel interface{ Related(y, x ids.ID) bool }, rounds int) float64 {
		return nsPerOp(rounds*len(pairs), func() {
			for r := 0; r < rounds; r++ {
				for _, p := range pairs {
					if sel.Related(p.y, p.x) {
						sink++
					}
				}
			}
		})
	}
	md5 := mustSelector(hashing.MD5Hasher{}, 11, replayIDs)
	out["hashing.related_md5_ns"] = related(md5, 1)
	out["hashing.related_sha1_ns"] = related(mustSelector(hashing.SHA1Hasher{}, 11, replayIDs), 1)
	out["hashing.related_fast_ns"] = related(mustSelector(hashing.FastHasher{}, 11, replayIDs), 16)

	// The memo as the md5 workload sees it: a map of several hundred
	// thousand of the 4M possible pairs. Misses hash and insert, hits
	// are one lookup in a map far larger than the processor's caches.
	memo := hashing.Memoize(md5, 0)
	const fill = 1 << 18
	filled := randomPairs(rng, fill)
	blocks := make([]float64, 0, replayBlocks)
	for b := 0; b < replayBlocks; b++ {
		part := filled[b*fill/replayBlocks : (b+1)*fill/replayBlocks]
		before := memo.Stats().Misses
		t0 := time.Now()
		for _, p := range part {
			if memo.Related(p.y, p.x) {
				sink++
			}
		}
		d := time.Since(t0)
		if misses := memo.Stats().Misses - before; misses > 0 {
			blocks = append(blocks, float64(d.Nanoseconds())/float64(len(part)))
		}
	}
	out["hashing.memo_miss_ns"] = median(blocks) // ≥ 93% of a block's pairs are new: 2^18 draws from 4M
	out["hashing.memo_hit_ns"] = nsPerOp(1<<16, func() {
		for i := 0; i < 1<<16; i++ {
			p := filled[rng.Intn(fill)]
			if memo.Related(p.y, p.x) {
				sink++
			}
		}
	})
}

// reposter keeps an event heap at constant depth: every fired event
// posts its successor one second (plus jitter) later.
type reposter struct {
	eng  *sim.Engine
	lane *sim.Lane
	x    uint64
}

func (r *reposter) Fire(now time.Time, arg sim.EventArg) {
	r.x = r.x*6364136223846793005 + 1442695040888963407
	jitter := time.Duration(r.x>>44) * time.Nanosecond // < 1.1 ms
	r.eng.PostEvent(r.lane, r.lane, now.Add(time.Second+jitter), r, arg)
}

func replayEngine(out map[string]float64, rng *rand.Rand) {
	for _, c := range []struct {
		name  string
		depth int
	}{{"sim.post_pop_ns_depth1e3", 1000}, {"sim.post_pop_ns_depth1e5", 100_000}} {
		eng := sim.New(1)
		r := &reposter{eng: eng, lane: eng.AddLane(), x: 1}
		for i := 0; i < c.depth; i++ {
			at := sim.Epoch.Add(time.Duration(rng.Int63n(int64(time.Second))))
			eng.PostEvent(r.lane, r.lane, at, r, sim.EventArg{})
		}
		eng.RunFor(2 * time.Second) // past the sorted initial fill
		const events = 100_000
		out[c.name] = nsPerOp(events, func() {
			for target := eng.Steps() + events; eng.Steps() < target; {
				eng.RunFor(10 * time.Millisecond)
			}
		})
	}

	// A thousand lane tickers with a no-op body: the cost of one firing
	// and reschedule.
	eng := sim.New(1)
	for i := 0; i < 1000; i++ {
		l := eng.AddLane()
		eng.NewLaneTicker(l, time.Minute, time.Duration(rng.Int63n(int64(time.Minute))), func(time.Time) { sink++ })
	}
	eng.RunFor(time.Minute)
	out["sim.ticker_ns"] = nsPerOp(100_000, func() { eng.RunFor(100 * time.Minute) })

	// The sharded engine on two shards, under a real cluster so windows
	// carry real cross-shard traffic.
	c, err := avmon.NewCluster(avmon.ClusterConfig{
		Seed: 1, Shards: 2, Options: avmon.NodeOptions{Hash: avmon.HashFast},
	}, avmon.NewSTATModel(500))
	if err != nil {
		return
	}
	c.Run(2 * time.Minute)
	before, _ := c.SchedStats()
	t0 := time.Now()
	c.Run(3 * time.Minute)
	wall := time.Since(t0)
	after, _ := c.SchedStats()
	if windows := after.Windows - before.Windows; windows > 0 {
		out["sim.sharded2_window_ns"] = float64(wall.Nanoseconds()) / float64(windows)
		out["sim.sharded2_barriers_per_window"] = float64(after.Barriers-before.Barriers) / float64(windows)
	}
}

func replaySimnet(out map[string]float64) {
	eng := sim.New(1)
	net, err := simnet.New(eng)
	if err != nil {
		return
	}
	const n = 1000
	eps := make([]*simnet.Endpoint, n)
	for i := range eps {
		ep, err := net.Attach(ids.Sim(i), func(ids.ID, any, int, time.Time) { sink++ })
		if err != nil {
			return
		}
		ep.SetAlive(true)
		eps[i] = ep
	}
	msg := &core.Message{Type: core.MsgPing}
	const rounds = 100
	out["simnet.send_deliver_ns"] = nsPerOp(rounds*n, func() {
		for r := 0; r < rounds; r++ {
			for i, ep := range eps {
				ep.Send(eps[(i*7+r+1)%n].ID(), msg, 8)
			}
			eng.RunFor(100 * time.Millisecond)
		}
	})
	out["simnet.random_alive_ns"] = nsPerOp(1<<16, func() {
		for i := 0; i < 1<<16; i++ {
			sink += uint64(net.RandomAlive(eps[i%n].ID()))
		}
	})
}

// replayTransport is the node replays' Transport: it discards messages,
// remembering only the last monitoring-ping sequence number per
// destination and the last coarse-view probe (the replays answer them,
// as live peers would). One envelope serves every send.
type replayTransport struct {
	msg     core.Message
	monSeqs map[ids.ID]uint64
	pingTo  ids.ID // the last coarse-view probe, so the replay can answer it
	pingSeq uint64
}

func (t *replayTransport) Send(to ids.ID, m *core.Message) {
	switch m.Type {
	case core.MsgMonPing:
		t.monSeqs[to] = m.Seq
	case core.MsgPing:
		t.pingTo, t.pingSeq = to, m.Seq
	}
}

func (t *replayTransport) acquire() *core.Message {
	t.msg.Reset()
	return &t.msg
}

// replayNode builds a joined node whose coarse view holds cvs entries.
func replayNode(scheme core.SelectionScheme, cvs int, rng *rand.Rand) (*core.Node, *replayTransport) {
	tr := &replayTransport{monSeqs: map[ids.ID]uint64{}}
	n, err := core.NewNode(core.Config{
		ID: ids.Sim(0), Scheme: scheme, Transport: tr, Rand: rand.New(rand.NewSource(rng.Int63())),
		CVS: cvs, AcquireMessage: tr.acquire,
	})
	if err != nil {
		panic(err) // constant, valid configuration
	}
	now := sim.Epoch
	n.Join(now, ids.Sim(1))
	for len(n.CV()) < cvs { // CV-RESPs reshuffle the view up to cvs
		n.Handle(ids.Sim(1), &core.Message{Type: core.MsgCVResp, View: randomView(rng, cvs)}, now)
	}
	return n, tr
}

func randomView(rng *rand.Rand, size int) []ids.ID {
	view := make([]ids.ID, size)
	for i := range view {
		view[i] = ids.Sim(1 + rng.Intn(replayIDs-1))
	}
	return view
}

func replayCore(out map[string]float64, rng *rand.Rand) {
	// The fast hash throughout, so these price the node's own work; what
	// a hash check costs is priced by the hashing replays.
	fast := mustSelector(hashing.FastHasher{}, 11, replayIDs)
	now := sim.Epoch.Add(time.Hour)
	n, tr := replayNode(fast, 27, rng)
	handle := func(from ids.ID, m core.Message, ops int) float64 {
		return nsPerOp(ops, func() {
			for i := 0; i < ops; i++ {
				msg := m
				msg.Seq = uint64(i)
				n.Handle(from, &msg, now)
			}
		})
	}
	out["core.handle_ping_ns"] = handle(ids.Sim(2), core.Message{Type: core.MsgPing}, 1<<15)
	out["core.handle_cvfetch_ns"] = handle(ids.Sim(2), core.Message{Type: core.MsgCVFetch}, 1<<15)
	out["core.handle_monping_ns"] = handle(ids.Sim(2), core.Message{Type: core.MsgMonPing}, 1<<15)
	out["core.tick_ns"] = nsPerOp(1<<14, func() { // one period's tick and the pong that answers its probe
		for i := 0; i < 1<<14; i++ {
			n.Tick(now)
			n.Handle(tr.pingTo, &core.Message{Type: core.MsgPong, Seq: tr.pingSeq}, now)
		}
	})

	for _, c := range []struct {
		cvs            int
		timeKey, chKey string
	}{
		{27, "core.handle_cvresp_ns_cvs27", "core.cvresp_hash_checks_cvs27"},
		{48, "core.handle_cvresp_ns_cvs48", "core.cvresp_hash_checks_cvs48"},
	} {
		node, _ := replayNode(fast, c.cvs, rng)
		const ops = 512
		views := make([][]ids.ID, ops)
		for i := range views {
			views[i] = randomView(rng, c.cvs)
		}
		before := node.HashChecks()
		out[c.timeKey] = nsPerOp(ops, func() {
			for _, v := range views {
				node.Handle(v[0], &core.Message{Type: core.MsgCVResp, View: v}, now)
			}
		})
		out[c.chKey] = float64(node.HashChecks()-before) / float64(ops*replayBlocks)
	}

	// Monitoring: give the node K targets and K monitors (identities that
	// satisfy the condition with it), then time the steady state.
	self := n.ID()
	var targets, monitors []ids.ID
	for i := 2; len(targets) < 11 || len(monitors) < 11; i++ {
		id := ids.Sim(i)
		if len(targets) < 11 && fast.Related(self, id) {
			targets = append(targets, id)
			n.Handle(id, &core.Message{Type: core.MsgNotify, U: self, V: id}, now)
		}
		if len(monitors) < 11 && fast.Related(id, self) {
			monitors = append(monitors, id)
			n.Handle(id, &core.Message{Type: core.MsgNotify, U: id, V: self}, now)
		}
	}
	out["core.handle_notify_ns"] = nsPerOp(1<<15, func() { // pairs already known: the steady state
		for i := 0; i < 1<<15; i++ {
			m := monitors[i%len(monitors)]
			n.Handle(m, &core.Message{Type: core.MsgNotify, U: m, V: self}, now)
		}
	})
	const rounds = 2048
	var tickNS, ackNS []float64
	for b := 0; b < replayBlocks; b++ {
		var tick, ack time.Duration
		for r := 0; r < rounds; r++ {
			now = now.Add(time.Minute)
			t0 := time.Now()
			n.MonitorTick(now)
			t1 := time.Now()
			for _, tg := range targets {
				n.Handle(tg, &core.Message{Type: core.MsgMonAck, Seq: tr.monSeqs[tg]}, now)
			}
			tick += t1.Sub(t0)
			ack += time.Since(t1)
		}
		tickNS = append(tickNS, float64(tick.Nanoseconds())/rounds)
		ackNS = append(ackNS, float64(ack.Nanoseconds())/float64(rounds*len(targets)))
	}
	out["core.monitor_tick_ns"] = median(tickNS) // one tick over K = 11 targets
	out["core.handle_monack_ns"] = median(ackNS)

	// VerifyReport of a full, honest report of K = 11 monitors.
	for _, c := range []struct {
		key string
		sel *hashing.Selector
	}{
		{"core.verify_report_md5_ns", mustSelector(hashing.MD5Hasher{}, 11, replayIDs)},
		{"core.verify_report_fast_ns", fast},
	} {
		var report []ids.ID
		for i := 1; len(report) < 11; i++ {
			if id := ids.Sim(i); c.sel.Related(id, self) {
				report = append(report, id)
			}
		}
		out[c.key] = nsPerOp(1<<12, func() {
			for i := 0; i < 1<<12; i++ {
				v, err := core.VerifyReport(c.sel, self, report, len(report))
				if err == nil {
					sink += uint64(len(v))
				}
			}
		})
	}
}

func replayCodec(out map[string]float64) {
	from := ids.Sim(1)
	view := make([]ids.ID, 27)
	for i := range view {
		view[i] = ids.Sim(i + 2)
	}
	batch := &core.Message{Type: core.MsgAvailBatchResp, From: from, Nonce: 7,
		View: view[:16], Avails: make([]float64, 16), Knowns: make([]bool, 16)}
	cvresp := &core.Message{Type: core.MsgCVResp, From: from, Seq: 9, View: view}
	const ops = 1 << 14
	for _, c := range []struct {
		name string
		msg  *core.Message
	}{
		{"ping", &core.Message{Type: core.MsgPing, From: from, Seq: 9}},
		{"cvresp", cvresp},
		{"availbatch16", batch},
	} {
		buf, err := netstack.Encode(c.msg)
		if err != nil {
			continue
		}
		out["netstack.encode_"+c.name+"_ns"] = nsPerOp(ops, func() {
			for i := 0; i < ops; i++ {
				b, _ := netstack.Encode(c.msg) // encoded once above without error
				sink += uint64(len(b))
			}
		})
		out["netstack.decode_"+c.name+"_ns"] = nsPerOp(ops, func() {
			for i := 0; i < ops; i++ {
				m, err := netstack.Decode(buf)
				if err == nil {
					sink += uint64(m.Type)
				}
			}
		})
	}
	buf, err := netstack.Encode(cvresp)
	if err != nil {
		return
	}
	out["netstack.encode_allocs"] = allocsPerOp(ops, func() {
		b, _ := netstack.Encode(cvresp) // encoded above without error
		sink += uint64(len(b))
	})
	out["netstack.decode_allocs"] = allocsPerOp(ops, func() {
		if m, err := netstack.Decode(buf); err == nil {
			sink += uint64(m.Type)
		}
	})
}

// allocsPerOp is the mean number of heap allocations one call of fn
// makes. The replays run with nothing else alive in the process.
func allocsPerOp(ops int, fn func()) float64 {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < ops; i++ {
		fn()
	}
	runtime.ReadMemStats(&ms1)
	return float64(ms1.Mallocs-ms0.Mallocs) / float64(ops)
}

// pingPong measures round trips between two transports: b echoes every
// ping as a pong, a counts pongs. It returns the median round-trip time
// of blocks of round trips and stops both Serve loops before returning.
func pingPong(a, b avmon.Transport, aID, bID ids.ID, trips int) float64 {
	pongs := make(chan struct{}, 1)
	done := make(chan struct{}, 2)
	go func() {
		_ = a.Serve(func(ids.ID, *core.Message) {
			select {
			case pongs <- struct{}{}:
			default: // a pong later than its timeout: nobody is waiting
			}
		})
		done <- struct{}{}
	}()
	go func() {
		_ = b.Serve(func(from ids.ID, m *core.Message) {
			b.Send(from, &core.Message{Type: core.MsgPong, From: bID, Seq: m.Seq})
		})
		done <- struct{}{}
	}()
	lost := false
	rtt := nsPerOp(trips, func() {
		for i := 0; i < trips && !lost; i++ {
			a.Send(bID, &core.Message{Type: core.MsgPing, From: aID, Seq: uint64(i)})
			select {
			case <-pongs:
			case <-time.After(time.Second):
				lost = true
			}
		}
	})
	_ = a.Close()
	_ = b.Close()
	<-done
	<-done
	if lost {
		return 0
	}
	return rtt
}

// replayUDP measures a ping/pong round trip between two UDP sockets on
// the 127.0.0.1 loopback interface (no real link is crossed). Where
// sockets cannot be bound it reports 0.
func replayUDP(out map[string]float64, seed int64) {
	out["netstack.udp_roundtrip_us"] = 0
	base := 30000 + int(uint64(seed)%977)*16
	for attempt := 0; attempt < 8; attempt++ {
		aID := ids.New(127, 0, 0, 1, uint16(base+2*attempt))
		bID := ids.New(127, 0, 0, 1, uint16(base+2*attempt+1))
		a, err := netstack.Listen(aID)
		if err != nil {
			continue
		}
		b, err := netstack.Listen(bID)
		if err != nil {
			_ = a.Close()
			continue
		}
		out["netstack.udp_roundtrip_us"] = pingPong(a, b, aID, bID, 1000) / 1e3
		return
	}
}

func replayMemnet(out map[string]float64) {
	net := memnet.New(memnet.Config{Seed: 1, InboxDepth: 8192})
	defer net.Close()
	aID, bID, cID := ids.Sim(1), ids.Sim(2), ids.Sim(3)
	a, errA := net.Listen(aID)
	b, errB := net.Listen(bID)
	c, errC := net.Listen(cID)
	if errA != nil || errB != nil || errC != nil {
		return
	}
	out["memnet.hop_us"] = pingPong(a, b, aID, bID, 8000) / 2 / 1e3

	// One-way pipelined throughput: bursts of half an inbox, so nothing
	// overflows.
	var got atomic.Int64
	served := make(chan struct{})
	go func() {
		_ = c.Serve(func(ids.ID, *core.Message) { got.Add(1) })
		close(served)
	}()
	src, err := net.Listen(ids.Sim(4))
	if err != nil {
		return
	}
	const burst, bursts = 4096, 16
	msg := &core.Message{Type: core.MsgPing, From: ids.Sim(4)}
	perHop := nsPerOp(burst*bursts, func() {
		for r := 0; r < bursts; r++ {
			want := got.Load() + burst
			for i := 0; i < burst; i++ {
				src.Send(cID, msg)
			}
			for deadline := time.Now().Add(time.Second); got.Load() < want && time.Now().Before(deadline); {
				runtime.Gosched()
			}
		}
	})
	out["memnet.hops_per_s"] = 1e9 / perHop
	_ = c.Close()
	<-served
}

func replayCache(out map[string]float64) {
	const block = 4096
	cache := avmon.NewAnswerCache(time.Hour, 1<<16)
	now := time.Now()
	reports := make([]*avmon.AvailabilityReport, block)
	for i := range reports {
		reports[i] = &avmon.AvailabilityReport{Subject: ids.Sim(i + 1), Mean: 1}
	}
	out["querycache.put_ns"] = nsPerOp(block, func() {
		for _, r := range reports {
			cache.Put(r, now)
		}
	})
	out["querycache.get_hit_ns"] = nsPerOp(block, func() {
		for _, r := range reports {
			if _, ok := cache.Get(r.Subject, now); ok {
				sink++
			}
		}
	})
	out["querycache.get_miss_ns"] = nsPerOp(block, func() {
		for i := 0; i < block; i++ {
			if _, ok := cache.Get(ids.Sim(block+1+i), now); ok {
				sink++
			}
		}
	})
}
