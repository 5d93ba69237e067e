package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"avmon/internal/ids"
)

// TestJoinWeightSplitProperty checks the Figure 1 weight arithmetic:
// after decrementing, the two forwarded halves ⌊c/2⌋ and ⌈c/2⌉ always
// sum to c, so the total spread budget is conserved.
func TestJoinWeightSplitProperty(t *testing.T) {
	f := func(w uint8) bool {
		c := int(w)
		if c <= 0 {
			return true
		}
		c--
		left := c / 2
		right := c - left
		return left+right == c && left >= 0 && right >= 0 && right-left <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestViewRandomExcludingProperty: the JOIN walk forwards only to view
// members other than the joiner, and to nobody while the joiner is alone.
func TestViewRandomExcludingProperty(t *testing.T) {
	f := func(size, weight uint8, seed int64) bool {
		log := &sentLog{}
		n, err := NewNode(Config{ID: ids.Sim(0), Scheme: noneRelated{}, Transport: log, Rand: rand.New(rand.NewSource(seed)), CVS: 16})
		if err != nil {
			t.Fatal(err)
		}
		n.Join(time.Time{}, ids.None)
		for i := 0; i < int(size%17); i++ {
			n.cv.add(ids.Sim(i + 1))
		}
		members := n.CV() // the joiner, ids.Sim(99), is not one
		n.Handle(ids.Sim(98), &Message{Type: MsgJoin, Subject: ids.Sim(99), Weight: int(weight%8) + 2}, time.Time{})
		for _, s := range log.msgs {
			if !slices.Contains(members, s.to) {
				return false
			}
		}
		return (len(members) == 0) == (len(log.msgs) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestNotifyIdempotenceProperty: delivering the same valid NOTIFY any
// number of times yields exactly one PS entry and one discovery record.
func TestNotifyIdempotenceProperty(t *testing.T) {
	f := func(repeats uint8, peerIdx uint16) bool {
		fn := newFakeNet(t)
		a := fn.addNode(1, allRelated{}, nil)
		a.Join(fn.now, ids.None)
		peer := ids.Sim(int(peerIdx) + 2)
		for r := 0; r < int(repeats%16)+1; r++ {
			a.Handle(peer, &Message{Type: MsgNotify, U: peer, V: a.ID()}, fn.now)
		}
		return len(a.PS()) == 1 && len(a.DiscoveryTimes()) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestMemoryAccountingProperty: MemoryEntries always equals
// |CV| + |PS| + |TS| no matter what mix of events the node has seen.
func TestMemoryAccountingProperty(t *testing.T) {
	f := func(events []uint16) bool {
		fn := newFakeNet(t)
		a := fn.addNode(1, allRelated{}, nil)
		a.Join(fn.now, ids.None)
		for _, e := range events {
			peer := ids.Sim(int(e%64) + 2)
			switch e % 3 {
			case 0:
				a.cv.add(peer)
			case 1:
				a.Handle(peer, &Message{Type: MsgNotify, U: peer, V: a.ID()}, fn.now)
			case 2:
				a.Handle(peer, &Message{Type: MsgNotify, U: a.ID(), V: peer}, fn.now)
			}
		}
		return a.MemoryEntries() == len(a.CV())+len(a.PS())+len(a.TS())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
