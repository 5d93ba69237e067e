package hashing

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"avmon/internal/ids"
)

func TestMemoSelectorMatchesInner(t *testing.T) {
	for _, h := range allHashers() {
		t.Run(h.Name(), func(t *testing.T) {
			sel, err := NewSelector(h, 8, 200)
			if err != nil {
				t.Fatal(err)
			}
			memo := Memoize(sel, 0)
			for round := 0; round < 3; round++ { // repeats exercise hits
				for i := 0; i < 200; i++ {
					for j := 0; j < 10; j++ {
						y, x := ids.Sim(i), ids.Sim(j)
						if got, want := memo.Related(y, x), sel.Related(y, x); got != want {
							t.Fatalf("memo.Related(%v,%v) = %v, inner = %v", y, x, got, want)
						}
					}
				}
			}
			st := memo.Stats()
			if st.Misses == 0 || st.Hits == 0 {
				t.Errorf("memo never exercised both paths: %+v", st)
			}
			// Rounds 2 and 3 must be pure hits.
			if st.Misses > 200*10 {
				t.Errorf("misses = %d, want ≤ %d (pairs hashed at most once)", st.Misses, 200*10)
			}
		})
	}
}

func TestMemoSelectorPassthrough(t *testing.T) {
	sel, err := NewSelector(FastHasher{}, 5, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if memo := Memoize(sel, 0); memo.K() != sel.K() {
		t.Errorf("K passthrough mismatch: %d, selector %d", memo.K(), sel.K())
	}
}

func TestMemoSelectorCapacityFlush(t *testing.T) {
	sel, err := NewSelector(FastHasher{}, 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	memo := Memoize(sel, 16)
	x := ids.Sim(0)
	for i := 1; i <= 100; i++ {
		memo.Related(ids.Sim(i), x)
	}
	st := memo.Stats()
	if st.Flushes == 0 {
		t.Errorf("no flush after %d distinct pairs with capacity 16: %+v", 100, st)
	}
	if st.Entries > 16 {
		t.Errorf("cache holds %d entries, capacity 16", st.Entries)
	}
	// Verdicts remain correct across flushes.
	for i := 1; i <= 100; i++ {
		if memo.Related(ids.Sim(i), x) != sel.Related(ids.Sim(i), x) {
			t.Fatalf("verdict diverged after flush for pair %d", i)
		}
	}
}

func TestMemoSelectorReset(t *testing.T) {
	sel, err := NewSelector(FastHasher{}, 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	memo := Memoize(sel, 0)
	memo.Related(ids.Sim(1), ids.Sim(2))
	if memo.Stats().Entries != 1 {
		t.Fatalf("entries = %d, want 1", memo.Stats().Entries)
	}
	memo.Reset()
	if st := memo.Stats(); st.Entries != 0 || st.Flushes != 1 {
		t.Errorf("after Reset: %+v", st)
	}
	if memo.Related(ids.Sim(1), ids.Sim(2)) != sel.Related(ids.Sim(1), ids.Sim(2)) {
		t.Error("verdict diverged after Reset")
	}
}

// memoTestID draws an identity from every class the matrix treats
// differently: simulated ones it covers (a small population, so pairs
// repeat), simulated ones numbered past its index bound, and
// non-simulated addresses.
func memoTestID(rng *rand.Rand) ids.ID {
	switch rng.Intn(10) {
	case 0:
		return ids.Sim(memoMaxIndex + rng.Intn(40))
	case 1:
		return ids.New(192, 168, 0, byte(rng.Intn(40)), 4000)
	case 2:
		return ids.New(10, 0, 0, byte(rng.Intn(40)), 4001) // simulated range, other port
	default:
		return ids.Sim(rng.Intn(300))
	}
}

// TestMemoMatrixDifferential drives the matrix with random pairs —
// y == x, identities outside the matrix, capacity flushes and Resets
// included — and requires every verdict to equal the wrapped
// selector's, with Hits + Misses accounting for every call.
func TestMemoMatrixDifferential(t *testing.T) {
	sel, err := NewSelector(FastHasher{}, 40, 100) // 40 % of pairs related
	if err != nil {
		t.Fatal(err)
	}
	for _, capacity := range []int{0, 1000, 7} {
		memo := Memoize(sel, capacity)
		rng := rand.New(rand.NewSource(int64(capacity)))
		const calls = 200000
		related := 0
		for i := 0; i < calls; i++ {
			y, x := memoTestID(rng), memoTestID(rng)
			if i%16 == 0 {
				x = y
			}
			if i%50000 == 49999 {
				memo.Reset()
			}
			got, want := memo.Related(y, x), sel.Related(y, x)
			if got != want {
				t.Fatalf("capacity %d, call %d: memo.Related(%v, %v) = %v, selector says %v", capacity, i, y, x, got, want)
			}
			if got {
				related++
			}
		}
		st := memo.Stats()
		if st.Hits+st.Misses != calls {
			t.Errorf("capacity %d: hits %d + misses %d != %d calls", capacity, st.Hits, st.Misses, calls)
		}
		if st.Hits == 0 || related == 0 || related == calls {
			t.Errorf("capacity %d exercised nothing: %+v, %d related", capacity, st, related)
		}
		if capacity > 0 && (st.Entries > capacity || st.Flushes <= calls/50000) {
			t.Errorf("capacity %d: %+v, want entries within capacity and flushes beyond the Resets", capacity, st)
		}
		if capacity == 0 && st.Flushes != calls/50000 {
			t.Errorf("default capacity flushed %d times, want only the %d Resets", st.Flushes, calls/50000)
		}
	}
}

// testRow draws a row for RelatedRow: u, up to 60 identities (u among
// them on even rounds, as in a view overlap) and the reverse pairs to
// skip (none on every third round). With distinct, no identity repeats,
// so no pair does: the discovery sweep's rows.
func testRow(rng *rand.Rand, round int, distinct bool) (u ids.ID, vs []ids.ID, skip []bool) {
	seen := map[ids.ID]bool{}
	for n := rng.Intn(60); len(vs) < n; {
		if v := memoTestID(rng); !distinct || !seen[v] {
			seen[v] = true
			vs, skip = append(vs, v), append(skip, rng.Intn(3) == 0)
		}
	}
	u = memoTestID(rng)
	for distinct && seen[u] {
		u = memoTestID(rng)
	}
	if len(vs) > 0 && round%2 == 0 {
		u = vs[rng.Intn(len(vs))]
	}
	if round%3 == 0 {
		skip = nil
	}
	return u, vs, skip
}

// rowByPair is RelatedRow as one related call per evaluated pair, in
// row order.
func rowByPair(related func(y, x ids.ID) bool, u ids.ID, vs []ids.ID, skip []bool) []int32 {
	var hits []int32
	for j, v := range vs {
		if v == u {
			continue
		}
		if related(u, v) {
			hits = append(hits, int32(2*j))
		}
		if (skip == nil || !skip[j]) && related(v, u) {
			hits = append(hits, int32(2*j+1))
		}
	}
	return hits
}

// TestMemoRelatedRowMatchesRelated checks the row form of every scheme
// in the package — the fast-hash kernel, the batched selector and the
// memo, which passes rows to the selector — against one Related call
// per pair, on rows with and without repeated identities, and requires
// the memo's rows to leave its counters untouched.
func TestMemoRelatedRowMatchesRelated(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, h := range allHashers() {
		sel, err := NewSelector(h, 30, 100)
		if err != nil {
			t.Fatal(err)
		}
		memo := Memoize(sel, 7)
		for i := 0; i < 20; i++ {
			memo.Related(ids.Sim(i), ids.Sim(i+1)) // counters and a flush to keep
		}
		before := memo.Stats()
		repeats := 0
		for round := 0; round < 300; round++ {
			u, vs, skip := testRow(rng, round, round%4 < 2)
			sorted := slices.Clone(vs)
			slices.Sort(sorted)
			if len(slices.Compact(sorted)) < len(vs) {
				repeats++
			}
			want := fmt.Sprint(append([]int32{-1}, rowByPair(sel.Related, u, vs, skip)...))
			if got := sel.RelatedRow(u, vs, skip, []int32{-1}); fmt.Sprint(got) != want {
				t.Fatalf("%s selector round %d: RelatedRow = %v, per pair %v", h.Name(), round, got, want)
			}
			if got := memo.RelatedRow(u, vs, skip, []int32{-1}); fmt.Sprint(got) != want {
				t.Fatalf("%s memo round %d: RelatedRow = %v, per pair %v", h.Name(), round, got, want)
			}
		}
		if st := memo.Stats(); st != before || before.Flushes == 0 {
			t.Errorf("%s: memo rows moved its stats from %+v to %+v", h.Name(), before, st)
		}
		if repeats == 0 {
			t.Errorf("%s: no row repeated an identity", h.Name())
		}
	}
}

// TestMemoByteBound fills the matrix past its bound — one verdict in
// the last column of every row it covers, 16 KiB a row — and requires
// it to stop allocating rather than exceed the bound or flush, while
// still answering correctly.
func TestMemoByteBound(t *testing.T) {
	sel, err := NewSelector(FastHasher{}, 40, 100)
	if err != nil {
		t.Fatal(err)
	}
	memo := Memoize(sel, 0)
	x := ids.Sim(memoMaxIndex - 1)
	for i := 0; i < memoMaxIndex-1; i++ {
		if y := ids.Sim(i); memo.Related(y, x) != sel.Related(y, x) {
			t.Fatalf("verdict for row %d diverged", i)
		}
	}
	held := memo.bytes + 24*cap(memo.rows)
	if held > memoMaxBytes || memo.bytes < memoMaxBytes/2 {
		t.Errorf("matrix holds %d bytes, want it filled to at most %d", held, memoMaxBytes)
	}
	st := memo.Stats()
	if st.Flushes != 0 || st.Entries != memo.bytes/(memoMaxIndex/4) {
		t.Errorf("%+v with %d row bytes: want one entry per allocated row and no flush", st, memo.bytes)
	}
	// Rows that did not fit are hashed every time; the ones that did, hit.
	if y := ids.Sim(memoMaxIndex - 2); memo.Related(y, x) != sel.Related(y, x) {
		t.Error("verdict for an unallocated row diverged")
	}
	memo.Related(ids.Sim(0), x)
	if after := memo.Stats(); after.Misses != st.Misses+1 || after.Hits != st.Hits+1 {
		t.Errorf("after one unallocated-row and one allocated-row lookup: %+v, before %+v", after, st)
	}
}

// TestZeroAllocMemoHit gates the memo's hot path: a lookup of a pair
// the matrix holds allocates nothing.
func TestZeroAllocMemoHit(t *testing.T) {
	sel, err := NewSelector(MD5Hasher{}, 11, 2000)
	if err != nil {
		t.Fatal(err)
	}
	memo := Memoize(sel, 0)
	pairs := func() {
		for i := 0; i < 64; i++ {
			memo.Related(ids.Sim(i), ids.Sim(1999-i))
		}
	}
	pairs()
	before := memo.Stats()
	if allocs := testing.AllocsPerRun(100, pairs); allocs != 0 {
		t.Errorf("64 memo hits allocate %v objects, want 0", allocs)
	}
	if st := memo.Stats(); st.Misses != before.Misses || st.Hits == before.Hits {
		t.Fatalf("gate measured no hits: %+v, before %+v", st, before)
	}
}

// TestZeroAllocRelatedRow gates the sweep's MD5 row: a 48-identity
// row, two pair batches, allocates nothing through the plain selector
// or through the memo.
func TestZeroAllocRelatedRow(t *testing.T) {
	sel, err := NewSelector(MD5Hasher{}, 11, 2000)
	if err != nil {
		t.Fatal(err)
	}
	vs := make([]ids.ID, 48)
	for j := range vs {
		vs[j] = ids.Sim(j)
	}
	hits := make([]int32, 0, 2*len(vs))
	for _, c := range []struct {
		name   string
		scheme interface {
			RelatedRow(u ids.ID, vs []ids.ID, skipRev []bool, hits []int32) []int32
		}
	}{{"selector", sel}, {"memo", Memoize(sel, 0)}} {
		row := func() { hits = c.scheme.RelatedRow(ids.Sim(1000), vs, nil, hits[:0]) }
		if allocs := testing.AllocsPerRun(100, row); allocs != 0 {
			t.Errorf("%s row allocates %v objects, want 0", c.name, allocs)
		}
	}
}

// BenchmarkMemoRelated prices a memoized MD5 check for local A/B runs
// against the raw digest: on a population whose pairs the matrix holds
// (2 000 ids, hits after the first pass), and on one it cannot hold
// (10⁵ ids — more than its index bound and its byte bound), where it
// must cost about what the digest does, not more.
func BenchmarkMemoRelated(b *testing.B) {
	sel, err := NewSelector(MD5Hasher{}, 11, 2000)
	if err != nil {
		b.Fatal(err)
	}
	type related interface{ Related(y, x ids.ID) bool }
	for _, c := range []struct {
		name       string
		population int
		scheme     related
	}{
		{"raw", 2000, sel},
		{"fits", 2000, Memoize(sel, 0)},
		{"overflows", 100000, Memoize(sel, 0)},
	} {
		b.Run(c.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			pairs := make([][2]ids.ID, 1<<16)
			for i := range pairs {
				pairs[i] = [2]ids.ID{ids.Sim(rng.Intn(c.population)), ids.Sim(rng.Intn(c.population))}
			}
			n := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if p := pairs[i%len(pairs)]; c.scheme.Related(p[0], p[1]) {
					n++
				}
			}
			benchSink += n
		})
	}
}

var benchSink int
