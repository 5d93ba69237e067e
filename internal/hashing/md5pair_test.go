package hashing

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"avmon/internal/ids"
)

// pairsFromBytes reads n pairs (y, x) of little-endian uint64 ids from
// raw, zero-filled once raw runs out.
func pairsFromBytes(n int, raw []byte) (ys, xs []ids.ID) {
	var buf [16]byte
	for i := 0; i < n; i++ {
		clear(buf[:])
		raw = raw[copy(buf[:], raw):]
		ys = append(ys, ids.ID(binary.LittleEndian.Uint64(buf[:8])))
		xs = append(xs, ids.ID(binary.LittleEndian.Uint64(buf[8:])))
	}
	return ys, xs
}

// md5Seed encodes pairs for FuzzMD5Pairs.
func md5Seed(pairs ...ids.ID) []byte {
	var raw []byte
	for _, id := range pairs {
		raw = binary.LittleEndian.AppendUint64(raw, uint64(id))
	}
	return raw
}

// FuzzMD5Pairs holds every lane of md5Pairs, for batches of 0–40 pairs
// (every tail length of a sixteen-lane call, and up to three calls),
// to MD5Hasher.Hash64 — crypto/md5, see TestMD5MatchesReference — and
// requires it to write nothing past out. The seeds cover ports 0 and
// 65535, octets 0x80 and 0xff, bits above 48 (which the pair encoding
// drops) and a distinct pair in every lane of both kernel groups, so a
// crossed lane or group, a wrong padding word, a wrong rotation or a
// swapped round constant fails them.
func FuzzMD5Pairs(f *testing.F) {
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 40} {
		var pairs []ids.ID
		for i := 0; i < 2*n; i++ {
			pairs = append(pairs, ids.Sim(7*i+n))
		}
		f.Add(uint8(n), md5Seed(pairs...))
	}
	f.Add(uint8(4), md5Seed(
		ids.New(10, 0, 0, 1, 0), ids.New(10, 0, 0, 2, 65535),
		ids.New(0x80, 0x80, 0x80, 0x80, 0x8080), ids.New(0xff, 0xff, 0xff, 0xff, 0xffff),
		ids.New(1, 2, 3, 4, 5)|1<<48, ids.New(1, 2, 3, 4, 5)|0xffff<<48,
		ids.New(0xff, 0, 0x80, 0, 65535), ids.New(0, 0xff, 0, 0x80, 0)))
	f.Add(uint8(20), bytes.Repeat([]byte{0xff, 0x80, 0x7f, 0x01}, 80))
	f.Fuzz(func(t *testing.T, n uint8, raw []byte) {
		ys, xs := pairsFromBytes(int(n%41), raw)
		const sentinel = 0x5a5a5a5a5a5a5a5a
		out := make([]uint64, len(ys)+1)
		out[len(ys)] = sentinel
		md5Pairs(ys, xs, out[:len(ys)])
		for i := range ys {
			if want := (MD5Hasher{}).Hash64(ys[i], xs[i]); out[i] != want {
				t.Fatalf("lane %d of %d: md5Pairs(%#x, %#x) = %#x, crypto/md5 %#x", i, len(ys), uint64(ys[i]), uint64(xs[i]), out[i], want)
			}
		}
		if out[len(ys)] != sentinel {
			t.Fatalf("md5Pairs wrote past its %d outputs", len(ys))
		}
	})
}

// TestMD5PairsFallback clears useAVX2 to take md5Pairs' crypto/md5
// path, as a host without AVX2 does, and holds its rows to the
// kernel's, where the processor has it, and to one Related call per
// pair, on rows up to twice a pairBatch long.
func TestMD5PairsFallback(t *testing.T) {
	sel, err := NewSelector(MD5Hasher{}, 30, 100)
	if err != nil {
		t.Fatal(err)
	}
	kernel := useAVX2
	defer func() { useAVX2 = kernel }()
	if !kernel {
		t.Log("no AVX2 here: the fallback is checked against Related only")
	}
	rng := rand.New(rand.NewSource(9))
	for round := 0; round < 200; round++ {
		u, vs, skip := testRow(rng, round, false)
		useAVX2 = false
		fallback := sel.RelatedRow(u, vs, skip, nil)
		if want := rowByPair(sel.Related, u, vs, skip); !slices.Equal(fallback, want) {
			t.Fatalf("round %d: fallback row %v, per pair %v", round, fallback, want)
		}
		useAVX2 = kernel
		if got := sel.RelatedRow(u, vs, skip, nil); kernel && !slices.Equal(got, fallback) {
			t.Fatalf("round %d: kernel row %v, fallback row %v", round, got, fallback)
		}
	}
}

// BenchmarkRelatedRowMD5 prices the sweep's MD5 row per evaluated pair
// against one crypto/md5 Related call per pair, on a cvs = 48 row.
func BenchmarkRelatedRowMD5(b *testing.B) {
	sel, err := NewSelector(MD5Hasher{}, 11, 2000)
	if err != nil {
		b.Fatal(err)
	}
	vs := make([]ids.ID, 48)
	for j := range vs {
		vs[j] = ids.Sim(100 + 37*j)
	}
	pairs := 2 * len(vs)
	b.Run("row", func(b *testing.B) {
		var hits []int32
		for i := 0; i < b.N; i++ {
			hits = sel.RelatedRow(ids.Sim(i%2000), vs, nil, hits[:0])
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pairs), "ns/pair")
		benchSink += len(hits)
	})
	b.Run("crypto-md5", func(b *testing.B) {
		n := 0
		for i := 0; i < b.N; i++ {
			u := ids.Sim(i % 2000)
			for _, v := range vs {
				if sel.Related(u, v) {
					n++
				}
				if sel.Related(v, u) {
					n++
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pairs), "ns/pair")
		benchSink += n
	})
}
