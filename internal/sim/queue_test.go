package sim

import (
	"math"
	"testing"
)

// Opcodes of the queue fuzzer's byte program (see runQueueProgram).
const (
	opPush    = iota // d, lane, src: post at now + delay(d) on the clocked path
	opPop            // pop the minimum
	opAdvance        // b: now += b
	opMerge          // d, lane, src: clock-less post (a barrier merge) at now + d
	opPopDue         // b: pop only if due by now + b
	numOps
)

// fuzzDelays are the repeatable posting delays a program names by
// index; d ≥ 128 means the one-off delay d − 128.
var fuzzDelays = [...]int64{50, 60_000, 0, 1, 7, 1000, 250, 3}

func fuzzDelay(d byte) int64 {
	if d >= 128 {
		return int64(d - 128)
	}
	return fuzzDelays[int(d)%len(fuzzDelays)]
}

// prog builds a byte program readably.
type prog []byte

func (p prog) push(d byte, lane, src int) prog { return append(p, opPush, d, byte(lane), byte(src)) }
func (p prog) merge(d byte, lane, src int) prog {
	return append(p, opMerge, d, byte(lane), byte(src))
}
func (p prog) advance(b byte) prog { return append(p, opAdvance, b) }
func (p prog) popDue(b byte) prog  { return append(p, opPopDue, b) }
func (p prog) pop(n int) prog {
	for ; n > 0; n-- {
		p = append(p, opPop)
	}
	return p
}

// runQueueProgram applies one decoded step at a time to an eventQueue
// and to a bare eventHeap, the order's reference, and fails on the
// first difference in length, minimum time or popped event. What is
// left when the program ends is drained through the same comparison.
func runQueueProgram(t *testing.T, data []byte) {
	var (
		q    eventQueue
		ref  eventHeap
		now  int64
		seq  [8]uint64
		h    = &countingHandler{}
		made uint64
	)
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	mk := func(at int64) event {
		lane, src := int32(next()%8), int32(next()%8)
		seq[src]++
		made++
		return event{at: at, lane: lane, src: src, seq: seq[src], h: h, arg: EventArg{A: made, P: h}}
	}
	pop := func(limit int64) {
		want := len(ref) > 0 && ref[0].at <= limit
		got, ok := q.popDue(limit)
		if ok != want {
			t.Fatalf("popDue(%d) = %v with reference minimum %+v", limit, ok, ref)
		}
		if !ok {
			return
		}
		w := ref.pop()
		if got != w { // every field: the key, the handler and the payload
			t.Fatalf("popped (at %d lane %d src %d seq %d #%d), one heap pops (at %d lane %d src %d seq %d #%d)",
				got.at, got.lane, got.src, got.seq, got.arg.A, w.at, w.lane, w.src, w.seq, w.arg.A)
		}
		if got.at > now {
			now = got.at // the engines' clock follows the executing event
		}
	}
	check := func() {
		if q.len() != len(ref) {
			t.Fatalf("len = %d, reference holds %d", q.len(), len(ref))
		}
		if at, ok := q.minAt(); ok != (len(ref) > 0) || ok && at != ref[0].at {
			t.Fatalf("minAt = %d, %v; reference %+v", at, ok, ref)
		}
	}
	for len(data) > 0 {
		switch next() % numOps {
		case opPush:
			ev := mk(now + fuzzDelay(next()))
			q.push(ev, now)
			ref.push(ev)
		case opPop:
			pop(math.MaxInt64)
		case opAdvance:
			now += int64(next())
		case opMerge:
			ev := mk(now + int64(next()))
			q.heap.push(ev)
			ref.push(ev)
		case opPopDue:
			pop(now + int64(next()))
		}
		check()
	}
	for len(ref) > 0 {
		pop(math.MaxInt64)
		check()
	}
	// A drained queue pins nothing: every slot it keeps was cleared.
	blocks := []*eventBlock{q.free}
	for i := range q.runs {
		blocks = append(blocks, q.runs[i].head)
	}
	for _, b := range blocks {
		for ; b != nil; b = b.next {
			for j := range b.ev {
				if b.ev[j].h != nil || b.ev[j].arg.P != nil {
					t.Fatalf("slot %d of a kept block still holds a popped event's handler or payload", j)
				}
			}
		}
	}
}

// queueSeeds are the traps the queue's design names, one program each,
// in the order go test numbers them (seed#0 …). Delay indexes: 0 = 50,
// 1 = 60 000, 2 = 0, 3 = 1, 4 = 7, 5 = 1000.
func queueSeeds() []prog {
	var seeds []prog

	// One handler posts the same at to lanes in descending order: every
	// post after the first ties the run's tail and must be sorted back.
	p := prog{}.push(0, 1, 1).push(0, 1, 1).advance(10)
	for lane := 7; lane >= 0; lane-- {
		p = p.push(0, lane, 3)
	}
	seeds = append(seeds, p.pop(4).push(0, 0, 2).push(0, 5, 2).push(0, 2, 2))

	// A tie group that straddles a storage-block boundary: fill the
	// delivery run to a few slots short of a block, then tie across it.
	p = prog{}.push(0, 1, 1)
	for i := 0; i < blockEvents-3; i++ {
		p = p.push(0, i, 1).advance(1)
	}
	for lane := 7; lane >= 0; lane-- {
		p = p.push(0, lane, 4)
	}
	seeds = append(seeds, p.pop(blockEvents/2).push(0, 3, 3).push(0, 1, 3))

	// A far-future singleton must not squat on a run: the delay that
	// repeats after it claims one, the singleton stays in the heap.
	seeds = append(seeds, prog{}.push(1, 2, 2).push(0, 3, 3).push(0, 2, 3).push(0, 1, 3).popDue(49).
		advance(20).push(0, 1, 1).pop(3).push(1, 1, 1).push(1, 0, 1))

	// Delay 0 posts at now while entries of the same time remain: the
	// new event may sort after them, before them, or between the run's
	// head and the slots already popped from its block.
	seeds = append(seeds, prog{}.advance(100).push(2, 1, 3).push(2, 5, 3).push(2, 7, 3).pop(2).
		push(2, 3, 5).push(2, 6, 5).push(2, 0, 5).pop(2).
		push(0, 3, 3).push(0, 4, 3).push(0, 5, 3).push(0, 6, 3).pop(1).
		push(2, 7, 3).push(2, 7, 3).push(2, 2, 3).push(2, 5, 5).push(2, 4, 4).pop(2).push(2, 0, 1))

	// Every run is claimed, drains, and is re-keyed by new delays while
	// the old ones come back.
	p = prog{}
	for _, d := range []byte{0, 3, 4} {
		p = p.push(d, 1, 1).push(d, 2, 1).push(d, 3, 1)
	}
	p = p.pop(9)
	for _, d := range []byte{5, 6, 0, 3} {
		p = p.push(d, 1, 2).push(d, 2, 2).push(d, 0, 2)
	}
	seeds = append(seeds, p.pop(5).push(0, 1, 1).push(5, 1, 1))

	// A clock-less push (barrier merge) lands below a run's tail and
	// below its head.
	seeds = append(seeds, prog{}.push(1, 1, 1).push(1, 2, 1).push(1, 3, 1).
		merge(5, 2, 2).merge(200, 1, 2).advance(100).push(1, 0, 0).merge(0, 0, 3).pop(3).merge(1, 7, 7))

	// More distinct repeating delays than runs, interleaved.
	p = prog{}
	for round := 0; round < 4; round++ {
		for d := byte(0); d < 6; d++ {
			p = p.push(d, int(d), round).push(d, 7-int(d), round)
		}
		p = p.advance(30).pop(5).popDue(20)
	}
	seeds = append(seeds, p)
	return seeds
}

// FuzzEventQueueMatchesHeap is the event queue's oracle: any sequence
// of clocked pushes, clock-less pushes, pops and clock advances leaves
// it indistinguishable from one binary heap.
func FuzzEventQueueMatchesHeap(f *testing.F) {
	for _, p := range queueSeeds() {
		f.Add([]byte(p))
	}
	f.Fuzz(runQueueProgram)
}
