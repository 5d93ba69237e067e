package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"avmon/internal/hashing"
	"avmon/internal/ids"
)

// sweepByPair is the CV-RESP handler as Figure 2 states it and as the
// node ran it before the row form: one Related call per ordered pair of
// (CV(x) ∪ {x,w}) × (CV(w) ∪ {x,w}), the mirrored duplicates of the
// overlap skipped, every check counted as it is made, and the reshuffle
// over a union deduplicated by scanning. handleCVResp must send the
// same messages in the same order, count the same checks and leave the
// same coarse view.
func sweepByPair(n *Node, w ids.ID, fetched []ids.ID, now time.Time) {
	if len(fetched) > 1024 {
		fetched = fetched[:1024]
	}
	a := appendUniqueID(appendUniqueID(n.cv.snapshot(), n.id), w)
	var b []ids.ID
	for _, id := range fetched {
		b = appendUniqueID(b, id)
	}
	b = appendUniqueID(appendUniqueID(b, n.id), w)
	inA, inB := map[ids.ID]bool{}, map[ids.ID]bool{}
	for _, u := range a {
		inA[u] = true
	}
	for _, v := range b {
		inB[v] = true
	}
	for _, u := range a {
		for _, v := range b {
			if u == v {
				continue
			}
			n.hashChecks++
			if n.cfg.Scheme.Related(u, v) {
				n.notifyMatch(u, v, now)
			}
			if !(inA[v] && inB[u]) {
				n.hashChecks++
				if n.cfg.Scheme.Related(v, u) {
					n.notifyMatch(v, u, now)
				}
			}
		}
	}
	if n.cfg.DisableReshuffle {
		if w != n.id {
			n.cv.add(w)
		}
		return
	}
	reshuffleByScan(&n.cv, fetched, w, n.id, n.cfg.Rand)
}

// FuzzSweepEquivalence feeds arbitrary own and fetched views —
// overlapping, with duplicates, None, self (fetched only) and w among
// the entries, longer than the 1024-entry cap — through three nodes in
// the same state: one whose scheme has RelatedRow (the fast-hash kernel,
// or the memo over MD5), one whose scheme hides it behind plain Related
// (the per-pair adapter), and one that runs sweepByPair. All three must
// emit the identical message sequence, HashChecks and coarse view, twice
// in a row (reused scratch, pairs already known), and the first two
// must pass checkInvariants after each.
func FuzzSweepEquivalence(f *testing.F) {
	f.Add([]byte{3, 4, 5, 6}, []byte{5, 6, 7, 8, 8, 0, 1}, byte(9), byte(6), uint16(0), false, false)
	f.Add([]byte{3, 4, 5, 2}, []byte{2, 2, 4, 1}, byte(2), byte(3), uint16(0), true, true)
	f.Add([]byte{}, []byte{}, byte(0), byte(1), uint16(0), false, true)
	f.Add([]byte{7, 1, 250, 251}, []byte{250, 9, 7}, byte(1), byte(40), uint16(1400), false, false)
	fast, err := hashing.NewSelector(hashing.FastHasher{}, 5, 100)
	if err != nil {
		f.Fatal(err)
	}
	md5, err := hashing.NewSelector(hashing.MD5Hasher{}, 20, 100)
	if err != nil {
		f.Fatal(err)
	}
	self := ids.Sim(1)
	id := func(b byte) ids.ID {
		switch {
		case b == 0:
			return ids.None
		case b >= 250:
			return ids.New(192, 168, 0, b, 9)
		}
		return ids.Sim(int(b) % 48) // a small pool: overlaps are the rule
	}
	now := time.Date(2007, 1, 1, 0, 0, 0, 0, time.UTC)
	f.Fuzz(func(t *testing.T, own, view []byte, wb, cvs byte, extra uint16, memoized, noReshuffle bool) {
		var rows, hidden SelectionScheme = fast, struct{ SelectionScheme }{fast}
		if memoized && extra == 0 {
			rows, hidden = hashing.Memoize(md5, 0), struct{ SelectionScheme }{md5}
		}
		if _, ok := hidden.(RowScheme); ok {
			t.Fatal("the wrapper does not hide RelatedRow")
		}
		fetched := make([]ids.ID, 0, len(view)+int(extra%1500))
		for _, b := range view {
			fetched = append(fetched, id(b))
		}
		for i := 0; i < int(extra%1500); i++ {
			fetched = append(fetched, ids.Sim(1000+i*7919%1300))
		}
		w := id(wb)

		var nodes [3]*Node
		var logs [3]sentLog
		for i, scheme := range [3]SelectionScheme{rows, hidden, hidden} {
			n, err := NewNode(Config{
				ID: self, Scheme: scheme, Transport: &logs[i], Rand: rand.New(rand.NewSource(7)),
				CVS: int(cvs%64) + 2, DisableReshuffle: noReshuffle,
			})
			if err != nil {
				t.Fatal(err)
			}
			n.Join(now, ids.None)
			for _, b := range own {
				if id(b) != self { // no message puts self in its own view
					n.cv.add(id(b))
				}
			}
			nodes[i] = n
		}
		for round := 0; round < 2; round++ {
			resp := &Message{Type: MsgCVResp, View: fetched}
			nodes[0].Handle(w, resp, now)
			nodes[1].Handle(w, resp, now)
			sweepByPair(nodes[2], w, fetched, now)
			for i, name := range []string{"row path", "per-pair adapter"} {
				if !slices.Equal(logs[i].msgs, logs[2].msgs) {
					t.Fatalf("round %d, %s sent\n%.600s\nthe pair-at-a-time sweep\n%.600s", round, name, fmt.Sprint(logs[i].msgs), fmt.Sprint(logs[2].msgs))
				}
				if got, want := nodes[i].HashChecks(), nodes[2].HashChecks(); got != want {
					t.Fatalf("round %d, %s counted %d hash checks, the pair-at-a-time sweep %d", round, name, got, want)
				}
				if !slices.Equal(nodes[i].cv.items, nodes[2].cv.items) {
					t.Fatalf("round %d, %s left the view %v, the pair-at-a-time sweep %v", round, name, nodes[i].cv.items, nodes[2].cv.items)
				}
				if err := checkInvariants(nodes[i], resp); err != nil {
					t.Fatalf("round %d, %s: %v", round, name, err)
				}
			}
			if len(fetched) > 0 {
				w = fetched[len(fetched)/2] // a second fetch, from a node of the first one's view
			}
		}
	})
}
