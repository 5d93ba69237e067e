package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"avmon/internal/ids"
)

// discoveryOracle is the pre-flat-table PS/TS implementation — a
// membership map plus an append-only discovery-order slice — kept here
// as the reference the indexed slices are diffed against. The
// documented contract (node.go) is that Node.ps/Node.ts list members
// in exact discovery order; rebootstrap target choice and the
// DiscoveryTimes figure depend on it.
type discoveryOracle struct {
	self    ids.ID
	related func(u, v ids.ID) bool

	ps      map[ids.ID]struct{}
	psOrder []ids.ID
	ts      map[ids.ID]struct{}
	tsOrder []ids.ID
}

func newDiscoveryOracle(self ids.ID, related func(u, v ids.ID) bool) *discoveryOracle {
	return &discoveryOracle{
		self:    self,
		related: related,
		ps:      make(map[ids.ID]struct{}),
		ts:      make(map[ids.ID]struct{}),
	}
}

// notify mirrors Node.handleNotify's membership logic on the map
// implementation.
func (o *discoveryOracle) notify(u, v ids.ID) {
	if u.IsNone() || v.IsNone() {
		return
	}
	switch o.self {
	case v:
		if _, known := o.ps[u]; known || !o.related(u, v) {
			return
		}
		o.ps[u] = struct{}{}
		o.psOrder = append(o.psOrder, u)
	case u:
		if _, known := o.ts[v]; known || !o.related(u, v) {
			return
		}
		o.ts[v] = struct{}{}
		o.tsOrder = append(o.tsOrder, v)
	}
}

// checkInvariants is the whole-node state check run after every step of
// the node oracles and fuzzers: PS and TS hold only identities that
// satisfy the consistency condition in the right direction — never
// None, self or a duplicate — at exactly the positions their index
// tables give, and the coarse view stays within cvs with no None, self
// or duplicate.
func checkInvariants(n *Node) error {
	for i, m := range n.ps {
		if err := checkMember("PS", m.id, i, n.id, &n.psIdx); err != nil {
			return err
		}
		if !n.cfg.Scheme.Related(m.id, n.id) {
			return fmt.Errorf("PS member %v does not satisfy Related(%v, self %v)", m.id, m.id, n.id)
		}
	}
	for i := range n.ts {
		v := n.ts[i].id
		if err := checkMember("TS", v, i, n.id, &n.tsIdx); err != nil {
			return err
		}
		if !n.cfg.Scheme.Related(n.id, v) {
			return fmt.Errorf("TS member %v does not satisfy Related(self %v, %v)", v, n.id, v)
		}
	}
	if n.psIdx.len() != len(n.ps) || n.tsIdx.len() != len(n.ts) {
		return fmt.Errorf("index tables hold %d and %d entries, PS %d and TS %d", n.psIdx.len(), n.tsIdx.len(), len(n.ps), len(n.ts))
	}
	if n.cv.size() > n.cfg.CVS {
		return fmt.Errorf("CV holds %d entries, cvs %d", n.cv.size(), n.cfg.CVS)
	}
	for i, id := range n.cv.items {
		if id.IsNone() || id == n.id || slices.Contains(n.cv.items[:i], id) {
			return fmt.Errorf("CV %v holds None, self %v or a duplicate", n.cv.items, n.id)
		}
	}
	return nil
}

// checkMember checks the i-th member of a set: a real identity other
// than self that the set's index maps back to i. Two copies of one
// identity cannot both pass, so this also rules out duplicates.
func checkMember(set string, id ids.ID, i int, self ids.ID, idx *idTable) error {
	if id.IsNone() || id == self {
		return fmt.Errorf("%s[%d] is %v (self %v)", set, i, id, self)
	}
	if pos, ok := idx.get(id); !ok || pos != uint32(i) {
		return fmt.Errorf("%s[%d] = %v is indexed at %d (found %v)", set, i, id, pos, ok)
	}
	return nil
}

// TestDiscoveryOrderMatchesMapOracle drives a node with a long random
// NOTIFY stream — duplicates, self pairs, forged Nones, unrelated
// pairs — and asserts after every message that the identities in ps
// and ts equal the map+order-slice oracle element for element, and
// that checkInvariants holds.
func TestDiscoveryOrderMatchesMapOracle(t *testing.T) {
	fn := newFakeNet(t)
	self := ids.Sim(0)
	// An even/odd scheme: exercises the re-check path (unrelated pairs
	// must be rejected) with a deterministic, symmetric-free predicate.
	related := func(u, v ids.ID) bool {
		if u == v || u.IsNone() || v.IsNone() {
			return false
		}
		return (uint64(u)+uint64(v))%3 != 0
	}
	n := fn.addNode(0, predicateScheme{related}, nil)
	n.Join(fn.now, ids.None)
	oracle := newDiscoveryOracle(self, related)

	rng := rand.New(rand.NewSource(71))
	pool := make([]ids.ID, 40)
	for i := range pool {
		pool[i] = ids.Sim(i) // includes self at index 0
	}
	pool = append(pool, ids.None)

	msg := &Message{Type: MsgNotify}
	for op := 0; op < 8000; op++ {
		u := pool[rng.Intn(len(pool))]
		v := pool[rng.Intn(len(pool))]
		// Bias half the traffic onto pairs involving self, else almost
		// every message is a no-op for this node.
		if rng.Intn(2) == 0 {
			if rng.Intn(2) == 0 {
				u = self
			} else {
				v = self
			}
		}
		msg.U, msg.V = u, v
		n.Handle(ids.Sim(1+rng.Intn(39)), msg, fn.now)
		oracle.notify(u, v)

		var ps, ts []ids.ID
		for _, m := range n.ps {
			ps = append(ps, m.id)
		}
		for i := range n.ts {
			ts = append(ts, n.ts[i].id)
		}
		if !slices.Equal(ps, oracle.psOrder) || !slices.Equal(ts, oracle.tsOrder) {
			t.Fatalf("op %d NOTIFY(%v,%v): PS %v and TS %v, oracle %v and %v", op, u, v, ps, ts, oracle.psOrder, oracle.tsOrder)
		}
		if err := checkInvariants(n); err != nil {
			t.Fatalf("op %d NOTIFY(%v,%v): %v", op, u, v, err)
		}
	}
	if len(oracle.psOrder) == 0 || len(oracle.tsOrder) == 0 {
		t.Fatal("degenerate run: the stream discovered nothing")
	}
	// The sorted public views agree with the oracle membership too.
	wantPS := slices.Clone(oracle.psOrder)
	ids.Sort(wantPS)
	wantTS := slices.Clone(oracle.tsOrder)
	ids.Sort(wantTS)
	if !slices.Equal(n.PS(), wantPS) || !slices.Equal(n.TS(), wantTS) {
		t.Errorf("PS() = %v and TS() = %v, oracle %v and %v", n.PS(), n.TS(), wantPS, wantTS)
	}
}

// predicateScheme adapts a func to SelectionScheme for tests.
type predicateScheme struct {
	fn func(u, v ids.ID) bool
}

func (p predicateScheme) Related(y, x ids.ID) bool { return p.fn(y, x) }
func (p predicateScheme) K() int                   { return 1 }
