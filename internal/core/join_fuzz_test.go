package core

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"avmon/internal/ids"
)

// randomExcluding returns a uniformly random member other than exclude,
// or None if no such member exists. It was the forwarding draw of the
// JOIN walk until handleJoin learnt to draw around the joiner's known
// position; it stays as handleJoinByScan's half of FuzzJoinEquivalence.
func (v *view) randomExcluding(rng *rand.Rand, exclude ids.ID) ids.ID {
	n := len(v.items)
	if n == 0 {
		return ids.None
	}
	if i := v.indexOf(exclude); i >= 0 {
		if n == 1 {
			return ids.None
		}
		j := rng.Intn(n - 1)
		if j >= i {
			j++
		}
		return v.items[j]
	}
	return v.items[rng.Intn(n)]
}

// addEvictByScan is view.addEvict as the scanning walk had it: its own
// membership scan, and a second one inside add.
func (v *view) addEvictByScan(id ids.ID, rng *rand.Rand) bool {
	if id.IsNone() || v.contains(id) {
		return false
	}
	if len(v.items) >= cap(v.items) && len(v.items) > 0 {
		v.removeAt(rng.Intn(len(v.items)))
	}
	return v.add(id)
}

// handleJoinByScan is the JOIN receiver as Figure 1 states it and as the
// node ran it before the single scan: contains, then addEvict or add
// (each scanning again), then one randomExcluding scan per forward.
// handleJoin must leave the same view in the same order, forward the
// same (destination, weight) sequence and draw from the node's random
// stream exactly as often.
func handleJoinByScan(n *Node, m *Message) {
	c := m.Weight
	if c <= 0 || m.Subject == n.id {
		return
	}
	if !n.cv.contains(m.Subject) {
		if n.cv.size() >= n.cfg.CVS {
			n.cv.addEvictByScan(m.Subject, n.cfg.Rand)
		} else {
			n.cv.add(m.Subject)
		}
		c--
		left := c / 2
		right := c - left
		for _, w := range []int{left, right} {
			if w <= 0 {
				continue
			}
			dst := n.cv.randomExcluding(n.cfg.Rand, m.Subject)
			if dst.IsNone() {
				continue
			}
			fwd := n.newMsg()
			fwd.Type, fwd.Subject, fwd.Weight = MsgJoin, m.Subject, w
			n.send(dst, fwd)
		}
	}
}

// FuzzJoinEquivalence drives the single-scan handleJoin and
// handleJoinByScan from the same state — views empty, holding only the
// joiner, partly filled and full; the subject absent, present and self;
// weights from -1 past cvs — through a short run of JOINs each. A
// swapped or missing draw shows at once: the eviction victim, the two
// forward destinations and the stream position afterwards all depend on
// the order the draws were made in. handleJoin's node must pass
// checkInvariants after every JOIN.
func FuzzJoinEquivalence(f *testing.F) {
	for cvs := byte(0); cvs < 4; cvs++ { // cvs 2…5, so cvs+2 stays in the weight range below
		for fill := byte(0); fill <= cvs+2; fill++ {
			for w := byte(0); w < 9; w++ { // weights -1…7
				f.Add(cvs, fill, []byte{40, w, 3, w, 0, w, 41, 8 - w, 40, 2}, int64(fill)*31+int64(w))
			}
		}
	}
	f.Add(byte(46), byte(48), []byte{200, 50, 201, 49, 7, 51, 202, 3}, int64(5))
	self := ids.Sim(0)
	f.Fuzz(func(t *testing.T, cvsB, fill byte, script []byte, seed int64) {
		cvs := int(cvsB%63) + 2
		var nodes [2]*Node
		var logs [2]sentLog
		for i := range nodes {
			n, err := NewNode(Config{
				ID: self, Scheme: noneRelated{}, Transport: &logs[i], Rand: rand.New(rand.NewSource(seed)), CVS: cvs,
			})
			if err != nil {
				t.Fatal(err)
			}
			n.Join(time.Time{}, ids.None)
			for j := 1; j <= int(fill)%(cvs+1); j++ {
				n.cv.add(ids.Sim(j)) // fill ≥ 1 puts Sim(1), a subject below, alone in the view
			}
			nodes[i] = n
		}
		for k := 0; k+1 < len(script); k += 2 {
			// Subjects over a pool a little wider than the view, 0 = self;
			// weights -1 … cvs+2.
			m := Message{Type: MsgJoin, Subject: ids.Sim(int(script[k]) % (cvs + 3)), Weight: int(script[k+1])%(cvs+4) - 1}
			nodes[0].handleJoin(&m)
			handleJoinByScan(nodes[1], &m)
			if !slices.Equal(nodes[0].cv.items, nodes[1].cv.items) {
				t.Fatalf("JOIN %d (%v, weight %d): view %v, the scanning walk's %v", k/2, m.Subject, m.Weight, nodes[0].cv.items, nodes[1].cv.items)
			}
			if !slices.Equal(logs[0].msgs, logs[1].msgs) {
				t.Fatalf("JOIN %d (%v, weight %d): forwarded %v, the scanning walk %v", k/2, m.Subject, m.Weight, logs[0].msgs, logs[1].msgs)
			}
			if a, b := nodes[0].cfg.Rand.Int63(), nodes[1].cfg.Rand.Int63(); a != b {
				t.Fatalf("JOIN %d (%v, weight %d): the random streams are at different positions", k/2, m.Subject, m.Weight)
			}
			if err := checkInvariants(nodes[0], &m); err != nil {
				t.Fatalf("JOIN %d (%v, weight %d): %v", k/2, m.Subject, m.Weight, err)
			}
		}
	})
}
