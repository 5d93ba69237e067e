package hashing

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"avmon/internal/ids"
)

var updateKernel = flag.Bool("update", false, "rewrite md5Four's generated steps in md5pair.go")

// md5Steps returns md5Four's 64 steps, four lanes each, as Go source,
// from RFC 1321: step i of round r applies the round's function (FF,
// GG, HH, II) to the state words a, d, c, b in turn, adds message word
// [i, 1+5i, 5+3i, 7i][r] mod 16 and T[i] = ⌊|sin(i+1)|·2³²⌋, and
// rotates by the round's shift for i mod 4. Only w0–w2 vary; w3 (the
// padding byte 0x80) and w14 (the length, 96 bits) are added to T[i],
// and the other words are zero.
func md5Steps() string {
	shifts := [4][4]int{{7, 12, 17, 22}, {5, 9, 14, 20}, {4, 11, 16, 23}, {6, 10, 15, 21}}
	var sb strings.Builder
	for i := 0; i < 64; i++ {
		r := i / 16
		if i%16 == 0 {
			fmt.Fprintf(&sb, "\t// Round %d.\n", r+1)
		}
		word := [4]int{i, 1 + 5*i, 5 + 3*i, 7 * i}[r] % 16
		t := fmt.Sprintf("0x%08x", uint32(math.Floor(math.Abs(math.Sin(float64(i+1)))*(1<<32))))
		p := (4 - i%4) % 4 // the state word this step writes: a, d, c, b
		reg := func(off int) byte { return "abcd"[(p+off)%4] }
		for l := 0; l < 4; l++ {
			xk := t
			switch word {
			case 0, 1, 2:
				xk = fmt.Sprintf("w%d.l%d+%s", word, l, t)
			case 3:
				xk += "+0x80"
			case 14:
				xk += "+96"
			}
			a, b, c, d := fmt.Sprintf("%c.l%d", reg(0), l), fmt.Sprintf("%c.l%d", reg(1), l), fmt.Sprintf("%c.l%d", reg(2), l), fmt.Sprintf("%c.l%d", reg(3), l)
			fn := [4]string{
				"((" + c + "^" + d + ")&" + b + ")^" + d, // F
				"((" + b + "^" + c + ")&" + d + ")^" + c, // G
				b + "^" + c + "^" + d,                    // H
				c + "^(" + b + "|^" + d + ")",            // I
			}[r]
			fmt.Fprintf(&sb, "\t%s = %s + bits.RotateLeft32((%s)+%s+%s, %d)\n", a, b, fn, a, xk, shifts[r][i%4])
		}
	}
	return sb.String()
}

// TestMD5StepsCurrent holds md5Four's unrolled steps to md5Steps; run
// it with -update to regenerate them.
func TestMD5StepsCurrent(t *testing.T) {
	const begin, end = "\t// Steps generated by md5Steps (md5pair_test.go); do not edit.\n", "\t// END generated steps.\n"
	src, err := os.ReadFile("md5pair.go")
	if err != nil {
		t.Fatal(err)
	}
	i, j := bytes.Index(src, []byte(begin)), bytes.Index(src, []byte(end))
	if i < 0 || j < i {
		t.Fatalf("md5pair.go lacks the generated-steps markers")
	}
	want := md5Steps()
	if got := string(src[i+len(begin) : j]); got == want {
		return
	}
	if !*updateKernel {
		t.Fatalf("md5pair.go's steps differ from md5Steps; run go test ./internal/hashing -run TestMD5StepsCurrent -update")
	}
	out := append(append(append([]byte{}, src[:i+len(begin)]...), want...), src[j:]...)
	if err := os.WriteFile("md5pair.go", out, 0o644); err != nil {
		t.Fatal(err)
	}
}

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

// FuzzMD5Pairs holds every lane of md5Pairs, for batches of 0–9 pairs
// (every tail length of the four-lane kernel), to MD5Hasher.Hash64 —
// crypto/md5, see TestMD5MatchesReference — and requires it to write nothing past out. The seeds
// cover ports 0 and 65535, octets 0x80 and 0xff, bits above 48 (which
// the pair encoding drops) and a distinct pair in every lane, so a
// crossed lane, a wrong padding word or a swapped round constant
// fails them.
func FuzzMD5Pairs(f *testing.F) {
	for n := 0; n < 10; n++ {
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
	f.Add(uint8(9), bytes.Repeat([]byte{0xff, 0x80, 0x7f, 0x01}, 40))
	f.Fuzz(func(t *testing.T, n uint8, raw []byte) {
		ys, xs := pairsFromBytes(int(n%10), raw)
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

// BenchmarkRelatedRowMD5 prices the sweep's MD5 row per evaluated pair
// against one crypto/md5 Related call per pair, on a cvs = 48 row with
// every pair hashed (no memo).
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
