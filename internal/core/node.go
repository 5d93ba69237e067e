package core

import (
	"slices"
	"time"

	"avmon/internal/ids"
)

// Node is one AVMON participant. It is single-threaded by contract:
// the owner must serialize all calls (the simulator does this by
// construction; the real-network runner uses one event loop). What a
// delivery reads comes first: Handle's entry check, a JOIN's walk.
type Node struct {
	alive    bool
	everBorn bool
	id       ids.ID
	tr       Transport
	rand     Rand
	// cfg is everything else Init was given, which many nodes may share
	// (a simulated cluster's nodes do): its ID, Transport and
	// Rand are not read, the fields above are.
	cfg *Config
	cv  view

	// lastCoarseContact is the last time a message arrived that proves
	// this node sits in some peer's coarse view (PING, CV-FETCH, a
	// forwarded JOIN, or a PR2 request). Going long without one means
	// the node's coarse-view indegree has likely dropped to zero — an
	// absorbing state under STAT — and triggers a re-bootstrap.
	//
	// It, bornAt, lastLeave and the instants below are UnixNano
	// integers, as in target: the wall clock's reading without the
	// monotonic one, and 0 for "never".
	lastCoarseContact int64
	bornAt            int64
	lastLeave         int64

	// PS and TS only ever grow (see DESIGN.md, "Memory diet") and are
	// kept in discovery order — the documented iteration order. Both
	// plateau near K entries, so, like the coarse view, they are looked
	// up by a linear scan. TS is two aligned columns: the identities,
	// which lookups scan, and the state records.
	ps    []monitor // PS(x), with each monitor's discovery time
	tsIDs []ids.ID  // TS(x)
	ts    []target  // state of tsIDs[i], by value

	// Monitoring activity over all targets (MonitoringStats).
	pingsSent  uint64
	pingsSaved uint64 // pings skipped by the forgetful optimization

	// The last MonitorTick's instant and the sequence number before its
	// first probe: each target's outstanding probe is this tick's.
	probedAt  int64
	probeBase uint64

	// Outstanding coarse-view liveness probe (Figure 2, first lines).
	cvPingTarget ids.ID
	cvPingSeq    uint64

	seq uint64 // message sequence numbers

	lastMonPingRecv int64 // for PR2

	hashChecks uint64 // consistency-condition evaluations performed
}

// NewNode validates cfg, applies defaults, and returns a node in the
// "never joined" state. Call Join to enter the system.
func NewNode(cfg Config) (*Node, error) {
	// The node and its private copy of cfg are one allocation.
	o := &struct {
		n   Node
		cfg Config
	}{cfg: cfg}
	if err := o.n.Init(&o.cfg, cfg.ID, cfg.Transport, cfg.Rand, nil); err != nil {
		return nil, err
	}
	return &o.n, nil
}

// Init is NewNode in place: n is memory the caller owns (a simulated
// node's block), cfg is kept, so nodes may share one — Init fills its
// defaults, nothing changes it afterwards — and id, tr and rnd take the
// place of cfg's. cv is the coarse view's storage, which the view never
// outgrows: capacity exactly cfg.CVS, or anything else (nil, say) to
// have Init allocate it.
func (n *Node) Init(cfg *Config, id ids.ID, tr Transport, rnd Rand, cv []ids.ID) error {
	own := Config{ID: id, Scheme: cfg.Scheme, Transport: tr, Rand: rnd, CVS: cfg.CVS}
	if err := own.validate(); err != nil {
		return err
	}
	cfg.setDefaults()
	if cap(cv) != cfg.CVS {
		cv = make([]ids.ID, 0, cfg.CVS)
	}
	*n = Node{id: id, tr: tr, rand: rnd, cfg: cfg, cv: view{items: cv[:0]}}
	return nil
}

// SweepScratch holds the reusable buffers of the discovery sweep
// (handleCVResp) and the coarse-view reshuffle. The buffers carry no
// information between calls, so one instance may serve every node
// executing on the same worker thread (Config.Scratch) — which is how
// million-node simulations avoid paying ~2 KB of scratch per node.
type SweepScratch struct {
	a, b       []ids.ID
	aInB, bInA []bool
	union      []ids.ID
	hits       []int32
}

// newMsg returns a zeroed outgoing message envelope.
func (n *Node) newMsg() *Message {
	if n.cfg.AcquireMessage != nil {
		return n.cfg.AcquireMessage()
	}
	return &Message{}
}

// ID returns the node's identity.
func (n *Node) ID() ids.ID { return n.id }

// Born returns the instant of the node's first Join, and whether it has
// joined at all.
func (n *Node) Born() (time.Time, bool) {
	if !n.everBorn {
		return time.Time{}, false
	}
	return time.Unix(0, n.bornAt), true
}

// Config returns the node's effective configuration.
func (n *Node) Config() Config {
	c := *n.cfg
	c.ID, c.Transport, c.Rand = n.id, n.tr, n.rand
	return c
}

func (n *Node) nextSeq() uint64 {
	n.seq++
	return n.seq
}

func (n *Node) send(to ids.ID, m *Message) {
	m.From = n.id
	n.tr.Send(to, m)
}

// --- Lifecycle -------------------------------------------------------

// Join (re-)enters the system at time now, bootstrapping through the
// given node (Figure 1). bootstrap may be None when this node is the
// very first in the system.
func (n *Node) Join(now time.Time, bootstrap ids.ID) {
	nowNanos := now.UnixNano()
	first := !n.everBorn
	if first {
		n.everBorn = true
		n.bornAt = nowNanos
	}
	n.alive = true
	n.lastMonPingRecv = nowNanos
	n.lastCoarseContact = nowNanos
	n.cvPingTarget = ids.None
	// "Inherit view from this random node": discard the stale view and
	// fetch the bootstrap's.
	n.cv.clear()
	if bootstrap.IsNone() || bootstrap == n.id {
		return
	}
	weight := n.cfg.CVS
	if !first && !n.cfg.RejoinFullWeight {
		down := int((nowNanos - n.lastLeave) / int64(n.cfg.Period))
		if down < weight {
			weight = down
		}
		if weight < 1 {
			weight = 1
		}
	}
	join := n.newMsg()
	join.Type, join.Subject, join.Weight = MsgJoin, n.id, weight
	n.send(bootstrap, join)
	fetch := n.newMsg()
	fetch.Type, fetch.Seq = MsgCVFetch, n.nextSeq()
	n.send(bootstrap, fetch)
	n.cv.add(bootstrap)
}

// Leave removes the node from the system at time now (voluntary leave
// and crash failure are indistinguishable, Section 3). State persists
// for a later rejoin, modeling the paper's persistent storage.
func (n *Node) Leave(now time.Time) {
	n.alive = false
	n.lastLeave = now.UnixNano()
	n.cvPingTarget = ids.None
	// Outstanding monitoring probes die with us.
	for i := range n.ts {
		n.ts[i].probe = 0
	}
}

// --- Handle: message dispatch ---------------------------------------

// Handle processes one received message at virtual time now. from is
// whatever the datagram claims, so one rule at the entry drops what no
// handler should act on: anything while the node is down (the
// transport normally guarantees this), anything from None, and any
// protocol message claiming to come from the node itself, whose answer
// or view entry would point back at it. Query requests from self are
// answered: a Service may be one of its own subject's monitors.
func (n *Node) Handle(from ids.ID, m *Message, now time.Time) {
	if !n.alive || from.IsNone() || from == n.id && m.Type <= MsgPR2 {
		return
	}
	switch m.Type {
	case MsgJoin:
		n.lastCoarseContact = now.UnixNano() // a forward proves CV membership
		n.handleJoin(m)
	case MsgPing:
		n.lastCoarseContact = now.UnixNano()
		pong := n.newMsg()
		pong.Type, pong.Seq = MsgPong, m.Seq
		n.send(from, pong)
	case MsgPong:
		if from == n.cvPingTarget && m.Seq == n.cvPingSeq {
			n.cvPingTarget = ids.None // liveness confirmed
		}
	case MsgCVFetch:
		n.lastCoarseContact = now.UnixNano()
		resp := n.newMsg()
		resp.Type, resp.Seq = MsgCVResp, m.Seq
		resp.View = n.cv.appendTo(resp.View[:0])
		n.send(from, resp)
	case MsgCVResp:
		n.handleCVResp(from, m.View, now)
	case MsgNotify:
		n.handleNotify(m.U, m.V, now)
	case MsgMonPing:
		n.lastMonPingRecv = now.UnixNano()
		ack := n.newMsg()
		ack.Type, ack.Seq = MsgMonAck, m.Seq
		n.send(from, ack)
	case MsgMonAck:
		n.handleMonAck(from, m.Seq, now)
	case MsgPR2:
		n.lastCoarseContact = now.UnixNano() // the sender holds us in its CV
		n.cv.addEvict(from, n.rand)
	case MsgReportReq:
		n.send(from, &Message{
			Type: MsgReportResp, Seq: m.Seq, Nonce: m.Nonce, View: n.ReportMonitors(m.Count),
		})
	case MsgAvailBatchReq:
		n.send(from, n.answerBatch(m))
	}
	// REPORT-RESP and AVAIL-BATCH-RESP answer application-level
	// queries, not protocol traffic: the node's owner routes them to
	// their askers before Handle (see Service), and the node ignores them.
}

// answerBatch builds the AVAIL-BATCH-RESP for one AVAIL-BATCH-REQ:
// the requested subjects echoed, with this node's estimate (and
// whether it tracks each subject) aligned per entry.
func (n *Node) answerBatch(m *Message) *Message {
	resp := &Message{
		Type: MsgAvailBatchResp, Seq: m.Seq, Nonce: m.Nonce,
		View:   append([]ids.ID(nil), m.View...),
		Avails: make([]float64, len(m.View)),
		Knowns: make([]bool, len(m.View)),
	}
	for i, subject := range m.View {
		resp.Avails[i], resp.Knowns[i] = n.EstimateOf(subject)
	}
	return resp
}

// --- Join sub-protocol (Figure 1, receiver side) ---------------------

// maxJoinWeight bounds the spread budget a JOIN may carry. An honest
// weight is at most the sender's cvs, which maxSweepFetched's reasoning
// keeps under 1024; a forged 2^30 would otherwise fan out into that
// many datagrams.
const maxJoinWeight = 1024

func (n *Node) handleJoin(m *Message) {
	c := m.Weight
	// A JOIN naming nobody could never be deduplicated: the view refuses
	// to hold None, so every hop would forward it twice more.
	if c <= 0 || m.Subject.IsNone() || m.Subject == n.id {
		return
	}
	if c > maxJoinWeight {
		c = maxJoinWeight
	}
	// The walk's one scan of the view: a node that already holds the
	// joiner ends its branch.
	if n.cv.contains(m.Subject) {
		return
	}
	// When the view is full the joiner's entry replaces a random one,
	// keeping the expected indegree at cvs.
	n.cv.appendEvict(m.Subject, n.rand)
	others := n.cv.size() - 1
	c--
	left := c / 2
	for _, w := range [2]int{left, c - left} {
		if w <= 0 || others == 0 {
			continue
		}
		// Forward to a random coarse-view member other than the joiner
		// itself, so the spread budget is not wasted on a self-delivery:
		// it sits in the last slot, so the draw is over the ones before.
		dst := n.cv.items[n.rand.Intn(others)]
		fwd := n.newMsg()
		fwd.Type, fwd.Subject, fwd.Weight = MsgJoin, m.Subject, w
		n.send(dst, fwd)
	}
}

// --- Coarse-view maintenance and discovery (Figure 2) ----------------

// rebootstrapStarvation is the number of coarse-protocol periods a
// node waits without any incoming coarse-view contact before
// re-bootstrapping. A node with indegree d receives an expected
// 2·d/cvs probes or fetches per period, so a healthy node (d ≈ cvs)
// goes 8 periods silent with probability ≈ (1 - 1/cvs)^(2·cvs·8)
// ≈ e^-16; a node that HAS coalesced out of every coarse view stays
// silent forever. False positives are harmless — the walk is the
// join protocol, which the receiving side already dedupes.
const rebootstrapStarvation = 8

// Tick runs one protocol period of the coarse-membership and
// monitor-discovery sub-protocol. The owner invokes it once every
// Period while the node is alive.
func (n *Node) Tick(now time.Time) {
	if !n.alive {
		return
	}
	// 0. Self-repair (not in the paper; see DESIGN.md): under STAT
	// nothing ever re-inserts a node into other nodes' coarse views,
	// so an emptied coarse view (outdegree 0) or a starved indegree is
	// an absorbing state that excludes the node from all future
	// discovery sweeps. Re-enter the overlay with a JOIN-style random
	// walk through any contact we still know.
	nowNanos := now.UnixNano()
	if n.cv.size() == 0 || nowNanos-n.lastCoarseContact >= int64(rebootstrapStarvation*n.cfg.Period) {
		n.rebootstrap(nowNanos)
	}
	// 1. Resolve last round's liveness probe: an unresponsive node is
	// removed from the coarse view.
	if !n.cvPingTarget.IsNone() {
		n.cv.remove(n.cvPingTarget)
		n.cvPingTarget = ids.None
	}
	// 2. Probe one random coarse-view member.
	if z := n.cv.random(n.rand); !z.IsNone() {
		n.cvPingTarget = z
		n.cvPingSeq = n.nextSeq()
		ping := n.newMsg()
		ping.Type, ping.Seq = MsgPing, n.cvPingSeq
		n.send(z, ping)
	}
	// 3. Fetch the coarse view of one random member; discovery and
	// reshuffle happen when the response arrives.
	if w := n.cv.random(n.rand); !w.IsNone() {
		fetch := n.newMsg()
		fetch.Type, fetch.Seq = MsgCVFetch, n.nextSeq()
		n.send(w, fetch)
	}
	// 4. PR2: if nobody has monitoring-pinged us for two protocol
	// periods, force ourselves back into our members' coarse views.
	// The membership is copied into sweep scratch first — sends must
	// not iterate the live view, and the sweep buffers are free here.
	if n.cfg.PR2 && nowNanos-n.lastMonPingRecv >= int64(2*n.cfg.Period) {
		sc := n.cfg.Scratch
		sc.a = n.cv.appendTo(sc.a[:0])
		for _, member := range sc.a {
			pr2 := n.newMsg()
			pr2.Type = MsgPR2
			n.send(member, pr2)
		}
		n.lastMonPingRecv = nowNanos // back off until the next 2 periods
	}
}

// rebootstrap re-enters the coarse overlay: a JOIN-style random walk
// with full weight plus a view fetch, through a random coarse-view
// member if any remain, else through a random known monitoring
// contact (TS then PS, in discovery order — map iteration would break
// determinism). A node that knows absolutely nobody stays quiet; it
// can only be recovered by the cluster-level bootstrap on rejoin.
func (n *Node) rebootstrap(nowNanos int64) {
	target := n.cv.random(n.rand)
	if target.IsNone() {
		total := len(n.ts) + len(n.ps)
		if total == 0 {
			return
		}
		if i := n.rand.Intn(total); i < len(n.ts) {
			target = n.tsIDs[i]
		} else {
			target = n.ps[i-len(n.ts)].id
		}
	}
	// Back off for another starvation window whether or not the walk
	// succeeds; its CV-RESP and the renewed indegree reset the clock
	// for real.
	n.lastCoarseContact = nowNanos
	join := n.newMsg()
	join.Type, join.Subject, join.Weight = MsgJoin, n.id, n.cfg.CVS
	n.send(target, join)
	fetch := n.newMsg()
	fetch.Type, fetch.Seq = MsgCVFetch, n.nextSeq()
	n.send(target, fetch)
	n.cv.add(target)
}

// resizeFalse returns s resized to n elements, all false, reusing its
// capacity when possible.
func resizeFalse(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = false
	}
	return s
}

// appendUniqueID appends id to dst unless it is None or already
// present (linear scan; sweep lists stay below ~100 entries).
func appendUniqueID(dst []ids.ID, id ids.ID) []ids.ID {
	if id.IsNone() {
		return dst
	}
	for _, e := range dst {
		if e == id {
			return dst
		}
	}
	return append(dst, id)
}

// handleCVResp performs the consistency-condition sweep over
// ({CV(x) ∪ {x,w}} × {CV(w) ∪ {x,w}}) in both orders, notifies
// matched pairs, and reshuffles the coarse view (Figure 2).
//
// The sweep is the simulation's hottest loop — Θ(cvs²) hash checks
// per node per period — so it runs over scratch buffers, one
// RelatedRow call per entry of the first list: the scheme evaluates
// the whole row and hands back only the matches (~K/N of the pairs).
// Precomputed cross-membership flags dedupe the a∩b overlap — an
// ordered pair whose mirror iteration will emit it is skipped — and
// the same flags give the number of checks and the reshuffle's union
// without looking at a pair twice.
func (n *Node) handleCVResp(w ids.ID, fetched []ids.ID, now time.Time) {
	// The sweep and the linear dedup below are quadratic in the list
	// length, and the wire layer accepts views up to 4096 entries —
	// a cheap CPU-amplification vector for forged CV-RESPs. Cap what
	// a peer can make us chew on at a bound no honest configuration
	// reaches: cvs = 4·N^(1/4) stays under 1024 until N ≈ 4·10^9,
	// even for peers running far larger N estimates than ours.
	const maxSweepFetched = 1024
	if len(fetched) > maxSweepFetched {
		fetched = fetched[:maxSweepFetched]
	}
	// Build the two deduplicated sweep lists in reusable scratch:
	// a = CV(x), x, w and b = CV(w), x, w, remembering where the views end
	// and whether w was new to each.
	sc := n.cfg.Scratch
	a := n.cv.appendTo(sc.a[:0])
	nCV := len(a)
	a = appendUniqueID(a, n.id)
	aw := len(a)
	a = appendUniqueID(a, w)
	b := sc.b[:0]
	for _, id := range fetched {
		b = appendUniqueID(b, id)
	}
	nFetched := len(b)
	b = appendUniqueID(b, n.id)
	bw := len(b)
	b = appendUniqueID(b, w)
	sc.a, sc.b = a, b

	// Cross-membership flags: aInB[i] ⇔ a[i] ∈ b, bInA[j] ⇔ b[j] ∈ a.
	// Two views share a handful of entries, so a 1024-bit filter over b
	// spares most of a the scan.
	aInB := resizeFalse(sc.aInB, len(a))
	bInA := resizeFalse(sc.bInA, len(b))
	const spread = 0x9E3779B97F4A7C15 // top 10 bits of id·spread pick the filter bit
	var filter [16]uint64
	for _, v := range b {
		h := uint64(v) * spread >> 54
		filter[h>>6] |= 1 << (h & 63)
	}
	common := 0
	for i, u := range a {
		if h := uint64(u) * spread >> 54; filter[h>>6]>>(h&63)&1 == 0 {
			continue
		}
		for j, v := range b {
			if u == v {
				aInB[i], bInA[j] = true, true
				common++
				break // both lists are duplicate-free
			}
		}
	}
	sc.aInB, sc.bInA = aInB, bInA

	// Row i checks (u, v) for every v ≠ u in b, and the reverse (v, u)
	// unless the mirrored iteration (v from a, u from b) generates it as
	// a forward pair — exactly when v ∈ a and u ∈ b. A row outside the
	// overlap therefore makes 2|b| checks, a row inside |b|-1 forward
	// and |b|-common reverse.
	row, _ := n.cfg.Scheme.(RowScheme)
	hits := sc.hits
	for i, u := range a {
		var skipRev []bool
		if aInB[i] {
			skipRev = bInA
		}
		if row != nil {
			hits = row.RelatedRow(u, b, skipRev, hits[:0])
		} else {
			hits = relatedRowByPair(n.cfg.Scheme, u, b, skipRev, hits[:0])
		}
		for _, h := range hits {
			if v := b[h>>1]; h&1 == 0 {
				n.notifyMatch(u, v, now)
			} else {
				n.notifyMatch(v, u, now)
			}
		}
	}
	sc.hits = hits
	n.hashChecks += uint64((len(a)-common)*2*len(b) + common*(2*len(b)-1-common))
	if n.cfg.DisableReshuffle {
		n.cv.add(w) // only grow into free space; never re-randomize
		return
	}
	// The reshuffle draws from CV(x) ∪ CV(w) ∪ {w} minus self, in that
	// order: the own view, then what the fetched view adds to a (w
	// included, where it is new), then w if neither view had it.
	wNew := len(a) > aw
	union := sc.union[:0]
	for _, id := range a[:nCV] {
		if id != n.id {
			union = append(union, id)
		}
	}
	for j, id := range b[:nFetched] {
		if !bInA[j] || (wNew && id == w) {
			union = append(union, id)
		}
	}
	if wNew && len(b) > bw {
		union = append(union, w)
	}
	sc.union = union
	n.cv.resample(union, n.rand)
}

// relatedRowByPair gives a scheme without RelatedRow the row form, one
// Related call per evaluated pair.
func relatedRowByPair(s SelectionScheme, u ids.ID, vs []ids.ID, skipRev []bool, hits []int32) []int32 {
	for j, v := range vs {
		if v == u {
			continue
		}
		if s.Related(u, v) {
			hits = append(hits, int32(2*j))
		}
		if (skipRev == nil || !skipRev[j]) && s.Related(v, u) {
			hits = append(hits, int32(2*j+1))
		}
	}
	return hits
}

// notifyMatch handles a sweep hit: u ∈ PS(v). Tell u (it gains a
// target) and v (a monitor); when the discoverer is one of the pair,
// the paper's "inform both" is a local operation.
func (n *Node) notifyMatch(u, v ids.ID, now time.Time) {
	for _, dst := range [2]ids.ID{u, v} {
		if dst == n.id {
			n.handleNotify(u, v, now)
		} else {
			notify := n.newMsg()
			notify.Type, notify.U, notify.V = MsgNotify, u, v
			n.send(dst, notify)
		}
	}
}

// handleNotify verifies and applies a NOTIFY(u, v) at this node
// (Section 3.3): the consistency condition is re-checked, so forged
// notifications are harmless.
func (n *Node) handleNotify(u, v ids.ID, now time.Time) {
	if u.IsNone() || v.IsNone() {
		return // a forged pair naming nobody is meaningless
	}
	switch n.id {
	case v:
		for i := range n.ps {
			if n.ps[i].id == u {
				return
			}
		}
		n.hashChecks++
		if !n.cfg.Scheme.Related(u, v) {
			return
		}
		n.ps = appendExact(n.ps, monitor{id: u, found: time.Duration(now.UnixNano() - n.bornAt)})
	case u:
		if slices.Contains(n.tsIDs, v) {
			return
		}
		n.hashChecks++
		if !n.cfg.Scheme.Related(u, v) {
			return
		}
		n.tsIDs = appendExact(n.tsIDs, v)
		n.ts = appendExact(n.ts, target{})
	}
}

// --- Introspection ---------------------------------------------------

// PS returns the node's current pinging set (its monitors).
func (n *Node) PS() []ids.ID {
	out := make([]ids.ID, len(n.ps))
	for i, m := range n.ps {
		out[i] = m.id
	}
	ids.Sort(out)
	return out
}

// TS returns the node's current target set (the nodes it monitors).
func (n *Node) TS() []ids.ID {
	out := make([]ids.ID, len(n.tsIDs))
	copy(out, n.tsIDs)
	ids.Sort(out)
	return out
}

// CV returns the node's current coarse view.
func (n *Node) CV() []ids.ID { return n.cv.snapshot() }

// PSLen, TSLen and CVLen are len(PS()), len(TS()) and len(CV()) without
// the copies.
func (n *Node) PSLen() int { return len(n.ps) }
func (n *Node) TSLen() int { return len(n.ts) }
func (n *Node) CVLen() int { return n.cv.size() }

// MemoryEntries is the paper's memory metric |CV|+|PS|+|TS|.
func (n *Node) MemoryEntries() int { return n.cv.size() + len(n.ps) + len(n.ts) }

// HashChecks returns how many consistency-condition evaluations the
// node has performed (the computation metric C).
func (n *Node) HashChecks() uint64 { return n.hashChecks }

// DiscoveryTimes returns, for each PS member in discovery order, the
// elapsed time from the node's birth to that discovery.
func (n *Node) DiscoveryTimes() []time.Duration {
	out := make([]time.Duration, len(n.ps))
	for i, m := range n.ps {
		out[i] = m.found
	}
	return out
}
