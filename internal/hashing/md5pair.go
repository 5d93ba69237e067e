package hashing

import (
	"math/bits"

	"avmon/internal/ids"
)

// md5Pairs sets out[i] to MD5Hasher{}.Hash64(ys[i], xs[i]) for every i;
// the three slices have one length. One MD5 compression is a chain of
// 64 dependent steps that leaves most of a core's ALU ports idle, so
// the discovery sweep, which hashes a row of independent pairs, runs
// four of them interleaved: about half crypto/md5's time per pair.
// crypto/md5's assembly stays the faster one for a single pair.
func md5Pairs(ys, xs []ids.ID, out []uint64) {
	for len(out) > 0 {
		var y, x [4]ids.ID // a short tail hashes None pairs in its idle lanes
		copy(y[:], ys)
		copy(x[:], xs)
		sums := md5Four(&y, &x)
		n := copy(out, sums[:])
		ys, xs, out = ys[n:], xs[n:], out[n:]
	}
}

// quad is one 32-bit word of MD5 state or message in four independent
// lanes. A struct of four scalars, unlike an array of lanes, is kept
// in registers by the compiler.
type quad struct{ l0, l1, l2, l3 uint32 }

// pairWords returns the three message words of the 12-byte pair
// encoding y‖x (ids.ID.Wire twice), read little-endian as MD5 does.
func pairWords(y, x ids.ID) (w0, w1, w2 uint32) {
	return bits.ReverseBytes32(uint32(y >> 16)),
		uint32(bits.ReverseBytes16(uint16(y))) | uint32(bits.ReverseBytes16(uint16(x>>32)))<<16,
		bits.ReverseBytes32(uint32(x))
}

// MD5's initial state. It is a variable, not a constant: the compiler
// would carry a constant start through all 64 steps as a separate
// addend, doubling the live values.
var md5A, md5B, md5C, md5D uint32 = 0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476

// md5Four is MD5 over four 12-byte messages — one compression of a
// single padded block each — keeping the first 64 bits of each digest.
// The block's other words are constants (w3 is the padding byte 0x80,
// w14 the length of 96 bits, the rest zero) folded into the round
// constants. Every step is written out once per lane, on its own line:
// the compiler schedules by line, so the four chains interleave (with
// an inlined helper per step it ran each lane's chain whole, slower
// than crypto/md5).
func md5Four(y, x *[4]ids.ID) [4]uint64 {
	var w0, w1, w2 quad
	w0.l0, w1.l0, w2.l0 = pairWords(y[0], x[0])
	w0.l1, w1.l1, w2.l1 = pairWords(y[1], x[1])
	w0.l2, w1.l2, w2.l2 = pairWords(y[2], x[2])
	w0.l3, w1.l3, w2.l3 = pairWords(y[3], x[3])
	a0, b0, c0, d0 := md5A, md5B, md5C, md5D
	a := quad{a0, a0, a0, a0}
	b := quad{b0, b0, b0, b0}
	c := quad{c0, c0, c0, c0}
	d := quad{d0, d0, d0, d0}

	// Steps generated by md5Steps (md5pair_test.go); do not edit.
	// Round 1.
	a.l0 = b.l0 + bits.RotateLeft32((((c.l0^d.l0)&b.l0)^d.l0)+a.l0+w0.l0+0xd76aa478, 7)
	a.l1 = b.l1 + bits.RotateLeft32((((c.l1^d.l1)&b.l1)^d.l1)+a.l1+w0.l1+0xd76aa478, 7)
	a.l2 = b.l2 + bits.RotateLeft32((((c.l2^d.l2)&b.l2)^d.l2)+a.l2+w0.l2+0xd76aa478, 7)
	a.l3 = b.l3 + bits.RotateLeft32((((c.l3^d.l3)&b.l3)^d.l3)+a.l3+w0.l3+0xd76aa478, 7)
	d.l0 = a.l0 + bits.RotateLeft32((((b.l0^c.l0)&a.l0)^c.l0)+d.l0+w1.l0+0xe8c7b756, 12)
	d.l1 = a.l1 + bits.RotateLeft32((((b.l1^c.l1)&a.l1)^c.l1)+d.l1+w1.l1+0xe8c7b756, 12)
	d.l2 = a.l2 + bits.RotateLeft32((((b.l2^c.l2)&a.l2)^c.l2)+d.l2+w1.l2+0xe8c7b756, 12)
	d.l3 = a.l3 + bits.RotateLeft32((((b.l3^c.l3)&a.l3)^c.l3)+d.l3+w1.l3+0xe8c7b756, 12)
	c.l0 = d.l0 + bits.RotateLeft32((((a.l0^b.l0)&d.l0)^b.l0)+c.l0+w2.l0+0x242070db, 17)
	c.l1 = d.l1 + bits.RotateLeft32((((a.l1^b.l1)&d.l1)^b.l1)+c.l1+w2.l1+0x242070db, 17)
	c.l2 = d.l2 + bits.RotateLeft32((((a.l2^b.l2)&d.l2)^b.l2)+c.l2+w2.l2+0x242070db, 17)
	c.l3 = d.l3 + bits.RotateLeft32((((a.l3^b.l3)&d.l3)^b.l3)+c.l3+w2.l3+0x242070db, 17)
	b.l0 = c.l0 + bits.RotateLeft32((((d.l0^a.l0)&c.l0)^a.l0)+b.l0+0xc1bdceee+0x80, 22)
	b.l1 = c.l1 + bits.RotateLeft32((((d.l1^a.l1)&c.l1)^a.l1)+b.l1+0xc1bdceee+0x80, 22)
	b.l2 = c.l2 + bits.RotateLeft32((((d.l2^a.l2)&c.l2)^a.l2)+b.l2+0xc1bdceee+0x80, 22)
	b.l3 = c.l3 + bits.RotateLeft32((((d.l3^a.l3)&c.l3)^a.l3)+b.l3+0xc1bdceee+0x80, 22)
	a.l0 = b.l0 + bits.RotateLeft32((((c.l0^d.l0)&b.l0)^d.l0)+a.l0+0xf57c0faf, 7)
	a.l1 = b.l1 + bits.RotateLeft32((((c.l1^d.l1)&b.l1)^d.l1)+a.l1+0xf57c0faf, 7)
	a.l2 = b.l2 + bits.RotateLeft32((((c.l2^d.l2)&b.l2)^d.l2)+a.l2+0xf57c0faf, 7)
	a.l3 = b.l3 + bits.RotateLeft32((((c.l3^d.l3)&b.l3)^d.l3)+a.l3+0xf57c0faf, 7)
	d.l0 = a.l0 + bits.RotateLeft32((((b.l0^c.l0)&a.l0)^c.l0)+d.l0+0x4787c62a, 12)
	d.l1 = a.l1 + bits.RotateLeft32((((b.l1^c.l1)&a.l1)^c.l1)+d.l1+0x4787c62a, 12)
	d.l2 = a.l2 + bits.RotateLeft32((((b.l2^c.l2)&a.l2)^c.l2)+d.l2+0x4787c62a, 12)
	d.l3 = a.l3 + bits.RotateLeft32((((b.l3^c.l3)&a.l3)^c.l3)+d.l3+0x4787c62a, 12)
	c.l0 = d.l0 + bits.RotateLeft32((((a.l0^b.l0)&d.l0)^b.l0)+c.l0+0xa8304613, 17)
	c.l1 = d.l1 + bits.RotateLeft32((((a.l1^b.l1)&d.l1)^b.l1)+c.l1+0xa8304613, 17)
	c.l2 = d.l2 + bits.RotateLeft32((((a.l2^b.l2)&d.l2)^b.l2)+c.l2+0xa8304613, 17)
	c.l3 = d.l3 + bits.RotateLeft32((((a.l3^b.l3)&d.l3)^b.l3)+c.l3+0xa8304613, 17)
	b.l0 = c.l0 + bits.RotateLeft32((((d.l0^a.l0)&c.l0)^a.l0)+b.l0+0xfd469501, 22)
	b.l1 = c.l1 + bits.RotateLeft32((((d.l1^a.l1)&c.l1)^a.l1)+b.l1+0xfd469501, 22)
	b.l2 = c.l2 + bits.RotateLeft32((((d.l2^a.l2)&c.l2)^a.l2)+b.l2+0xfd469501, 22)
	b.l3 = c.l3 + bits.RotateLeft32((((d.l3^a.l3)&c.l3)^a.l3)+b.l3+0xfd469501, 22)
	a.l0 = b.l0 + bits.RotateLeft32((((c.l0^d.l0)&b.l0)^d.l0)+a.l0+0x698098d8, 7)
	a.l1 = b.l1 + bits.RotateLeft32((((c.l1^d.l1)&b.l1)^d.l1)+a.l1+0x698098d8, 7)
	a.l2 = b.l2 + bits.RotateLeft32((((c.l2^d.l2)&b.l2)^d.l2)+a.l2+0x698098d8, 7)
	a.l3 = b.l3 + bits.RotateLeft32((((c.l3^d.l3)&b.l3)^d.l3)+a.l3+0x698098d8, 7)
	d.l0 = a.l0 + bits.RotateLeft32((((b.l0^c.l0)&a.l0)^c.l0)+d.l0+0x8b44f7af, 12)
	d.l1 = a.l1 + bits.RotateLeft32((((b.l1^c.l1)&a.l1)^c.l1)+d.l1+0x8b44f7af, 12)
	d.l2 = a.l2 + bits.RotateLeft32((((b.l2^c.l2)&a.l2)^c.l2)+d.l2+0x8b44f7af, 12)
	d.l3 = a.l3 + bits.RotateLeft32((((b.l3^c.l3)&a.l3)^c.l3)+d.l3+0x8b44f7af, 12)
	c.l0 = d.l0 + bits.RotateLeft32((((a.l0^b.l0)&d.l0)^b.l0)+c.l0+0xffff5bb1, 17)
	c.l1 = d.l1 + bits.RotateLeft32((((a.l1^b.l1)&d.l1)^b.l1)+c.l1+0xffff5bb1, 17)
	c.l2 = d.l2 + bits.RotateLeft32((((a.l2^b.l2)&d.l2)^b.l2)+c.l2+0xffff5bb1, 17)
	c.l3 = d.l3 + bits.RotateLeft32((((a.l3^b.l3)&d.l3)^b.l3)+c.l3+0xffff5bb1, 17)
	b.l0 = c.l0 + bits.RotateLeft32((((d.l0^a.l0)&c.l0)^a.l0)+b.l0+0x895cd7be, 22)
	b.l1 = c.l1 + bits.RotateLeft32((((d.l1^a.l1)&c.l1)^a.l1)+b.l1+0x895cd7be, 22)
	b.l2 = c.l2 + bits.RotateLeft32((((d.l2^a.l2)&c.l2)^a.l2)+b.l2+0x895cd7be, 22)
	b.l3 = c.l3 + bits.RotateLeft32((((d.l3^a.l3)&c.l3)^a.l3)+b.l3+0x895cd7be, 22)
	a.l0 = b.l0 + bits.RotateLeft32((((c.l0^d.l0)&b.l0)^d.l0)+a.l0+0x6b901122, 7)
	a.l1 = b.l1 + bits.RotateLeft32((((c.l1^d.l1)&b.l1)^d.l1)+a.l1+0x6b901122, 7)
	a.l2 = b.l2 + bits.RotateLeft32((((c.l2^d.l2)&b.l2)^d.l2)+a.l2+0x6b901122, 7)
	a.l3 = b.l3 + bits.RotateLeft32((((c.l3^d.l3)&b.l3)^d.l3)+a.l3+0x6b901122, 7)
	d.l0 = a.l0 + bits.RotateLeft32((((b.l0^c.l0)&a.l0)^c.l0)+d.l0+0xfd987193, 12)
	d.l1 = a.l1 + bits.RotateLeft32((((b.l1^c.l1)&a.l1)^c.l1)+d.l1+0xfd987193, 12)
	d.l2 = a.l2 + bits.RotateLeft32((((b.l2^c.l2)&a.l2)^c.l2)+d.l2+0xfd987193, 12)
	d.l3 = a.l3 + bits.RotateLeft32((((b.l3^c.l3)&a.l3)^c.l3)+d.l3+0xfd987193, 12)
	c.l0 = d.l0 + bits.RotateLeft32((((a.l0^b.l0)&d.l0)^b.l0)+c.l0+0xa679438e+96, 17)
	c.l1 = d.l1 + bits.RotateLeft32((((a.l1^b.l1)&d.l1)^b.l1)+c.l1+0xa679438e+96, 17)
	c.l2 = d.l2 + bits.RotateLeft32((((a.l2^b.l2)&d.l2)^b.l2)+c.l2+0xa679438e+96, 17)
	c.l3 = d.l3 + bits.RotateLeft32((((a.l3^b.l3)&d.l3)^b.l3)+c.l3+0xa679438e+96, 17)
	b.l0 = c.l0 + bits.RotateLeft32((((d.l0^a.l0)&c.l0)^a.l0)+b.l0+0x49b40821, 22)
	b.l1 = c.l1 + bits.RotateLeft32((((d.l1^a.l1)&c.l1)^a.l1)+b.l1+0x49b40821, 22)
	b.l2 = c.l2 + bits.RotateLeft32((((d.l2^a.l2)&c.l2)^a.l2)+b.l2+0x49b40821, 22)
	b.l3 = c.l3 + bits.RotateLeft32((((d.l3^a.l3)&c.l3)^a.l3)+b.l3+0x49b40821, 22)
	// Round 2.
	a.l0 = b.l0 + bits.RotateLeft32((((b.l0^c.l0)&d.l0)^c.l0)+a.l0+w1.l0+0xf61e2562, 5)
	a.l1 = b.l1 + bits.RotateLeft32((((b.l1^c.l1)&d.l1)^c.l1)+a.l1+w1.l1+0xf61e2562, 5)
	a.l2 = b.l2 + bits.RotateLeft32((((b.l2^c.l2)&d.l2)^c.l2)+a.l2+w1.l2+0xf61e2562, 5)
	a.l3 = b.l3 + bits.RotateLeft32((((b.l3^c.l3)&d.l3)^c.l3)+a.l3+w1.l3+0xf61e2562, 5)
	d.l0 = a.l0 + bits.RotateLeft32((((a.l0^b.l0)&c.l0)^b.l0)+d.l0+0xc040b340, 9)
	d.l1 = a.l1 + bits.RotateLeft32((((a.l1^b.l1)&c.l1)^b.l1)+d.l1+0xc040b340, 9)
	d.l2 = a.l2 + bits.RotateLeft32((((a.l2^b.l2)&c.l2)^b.l2)+d.l2+0xc040b340, 9)
	d.l3 = a.l3 + bits.RotateLeft32((((a.l3^b.l3)&c.l3)^b.l3)+d.l3+0xc040b340, 9)
	c.l0 = d.l0 + bits.RotateLeft32((((d.l0^a.l0)&b.l0)^a.l0)+c.l0+0x265e5a51, 14)
	c.l1 = d.l1 + bits.RotateLeft32((((d.l1^a.l1)&b.l1)^a.l1)+c.l1+0x265e5a51, 14)
	c.l2 = d.l2 + bits.RotateLeft32((((d.l2^a.l2)&b.l2)^a.l2)+c.l2+0x265e5a51, 14)
	c.l3 = d.l3 + bits.RotateLeft32((((d.l3^a.l3)&b.l3)^a.l3)+c.l3+0x265e5a51, 14)
	b.l0 = c.l0 + bits.RotateLeft32((((c.l0^d.l0)&a.l0)^d.l0)+b.l0+w0.l0+0xe9b6c7aa, 20)
	b.l1 = c.l1 + bits.RotateLeft32((((c.l1^d.l1)&a.l1)^d.l1)+b.l1+w0.l1+0xe9b6c7aa, 20)
	b.l2 = c.l2 + bits.RotateLeft32((((c.l2^d.l2)&a.l2)^d.l2)+b.l2+w0.l2+0xe9b6c7aa, 20)
	b.l3 = c.l3 + bits.RotateLeft32((((c.l3^d.l3)&a.l3)^d.l3)+b.l3+w0.l3+0xe9b6c7aa, 20)
	a.l0 = b.l0 + bits.RotateLeft32((((b.l0^c.l0)&d.l0)^c.l0)+a.l0+0xd62f105d, 5)
	a.l1 = b.l1 + bits.RotateLeft32((((b.l1^c.l1)&d.l1)^c.l1)+a.l1+0xd62f105d, 5)
	a.l2 = b.l2 + bits.RotateLeft32((((b.l2^c.l2)&d.l2)^c.l2)+a.l2+0xd62f105d, 5)
	a.l3 = b.l3 + bits.RotateLeft32((((b.l3^c.l3)&d.l3)^c.l3)+a.l3+0xd62f105d, 5)
	d.l0 = a.l0 + bits.RotateLeft32((((a.l0^b.l0)&c.l0)^b.l0)+d.l0+0x02441453, 9)
	d.l1 = a.l1 + bits.RotateLeft32((((a.l1^b.l1)&c.l1)^b.l1)+d.l1+0x02441453, 9)
	d.l2 = a.l2 + bits.RotateLeft32((((a.l2^b.l2)&c.l2)^b.l2)+d.l2+0x02441453, 9)
	d.l3 = a.l3 + bits.RotateLeft32((((a.l3^b.l3)&c.l3)^b.l3)+d.l3+0x02441453, 9)
	c.l0 = d.l0 + bits.RotateLeft32((((d.l0^a.l0)&b.l0)^a.l0)+c.l0+0xd8a1e681, 14)
	c.l1 = d.l1 + bits.RotateLeft32((((d.l1^a.l1)&b.l1)^a.l1)+c.l1+0xd8a1e681, 14)
	c.l2 = d.l2 + bits.RotateLeft32((((d.l2^a.l2)&b.l2)^a.l2)+c.l2+0xd8a1e681, 14)
	c.l3 = d.l3 + bits.RotateLeft32((((d.l3^a.l3)&b.l3)^a.l3)+c.l3+0xd8a1e681, 14)
	b.l0 = c.l0 + bits.RotateLeft32((((c.l0^d.l0)&a.l0)^d.l0)+b.l0+0xe7d3fbc8, 20)
	b.l1 = c.l1 + bits.RotateLeft32((((c.l1^d.l1)&a.l1)^d.l1)+b.l1+0xe7d3fbc8, 20)
	b.l2 = c.l2 + bits.RotateLeft32((((c.l2^d.l2)&a.l2)^d.l2)+b.l2+0xe7d3fbc8, 20)
	b.l3 = c.l3 + bits.RotateLeft32((((c.l3^d.l3)&a.l3)^d.l3)+b.l3+0xe7d3fbc8, 20)
	a.l0 = b.l0 + bits.RotateLeft32((((b.l0^c.l0)&d.l0)^c.l0)+a.l0+0x21e1cde6, 5)
	a.l1 = b.l1 + bits.RotateLeft32((((b.l1^c.l1)&d.l1)^c.l1)+a.l1+0x21e1cde6, 5)
	a.l2 = b.l2 + bits.RotateLeft32((((b.l2^c.l2)&d.l2)^c.l2)+a.l2+0x21e1cde6, 5)
	a.l3 = b.l3 + bits.RotateLeft32((((b.l3^c.l3)&d.l3)^c.l3)+a.l3+0x21e1cde6, 5)
	d.l0 = a.l0 + bits.RotateLeft32((((a.l0^b.l0)&c.l0)^b.l0)+d.l0+0xc33707d6+96, 9)
	d.l1 = a.l1 + bits.RotateLeft32((((a.l1^b.l1)&c.l1)^b.l1)+d.l1+0xc33707d6+96, 9)
	d.l2 = a.l2 + bits.RotateLeft32((((a.l2^b.l2)&c.l2)^b.l2)+d.l2+0xc33707d6+96, 9)
	d.l3 = a.l3 + bits.RotateLeft32((((a.l3^b.l3)&c.l3)^b.l3)+d.l3+0xc33707d6+96, 9)
	c.l0 = d.l0 + bits.RotateLeft32((((d.l0^a.l0)&b.l0)^a.l0)+c.l0+0xf4d50d87+0x80, 14)
	c.l1 = d.l1 + bits.RotateLeft32((((d.l1^a.l1)&b.l1)^a.l1)+c.l1+0xf4d50d87+0x80, 14)
	c.l2 = d.l2 + bits.RotateLeft32((((d.l2^a.l2)&b.l2)^a.l2)+c.l2+0xf4d50d87+0x80, 14)
	c.l3 = d.l3 + bits.RotateLeft32((((d.l3^a.l3)&b.l3)^a.l3)+c.l3+0xf4d50d87+0x80, 14)
	b.l0 = c.l0 + bits.RotateLeft32((((c.l0^d.l0)&a.l0)^d.l0)+b.l0+0x455a14ed, 20)
	b.l1 = c.l1 + bits.RotateLeft32((((c.l1^d.l1)&a.l1)^d.l1)+b.l1+0x455a14ed, 20)
	b.l2 = c.l2 + bits.RotateLeft32((((c.l2^d.l2)&a.l2)^d.l2)+b.l2+0x455a14ed, 20)
	b.l3 = c.l3 + bits.RotateLeft32((((c.l3^d.l3)&a.l3)^d.l3)+b.l3+0x455a14ed, 20)
	a.l0 = b.l0 + bits.RotateLeft32((((b.l0^c.l0)&d.l0)^c.l0)+a.l0+0xa9e3e905, 5)
	a.l1 = b.l1 + bits.RotateLeft32((((b.l1^c.l1)&d.l1)^c.l1)+a.l1+0xa9e3e905, 5)
	a.l2 = b.l2 + bits.RotateLeft32((((b.l2^c.l2)&d.l2)^c.l2)+a.l2+0xa9e3e905, 5)
	a.l3 = b.l3 + bits.RotateLeft32((((b.l3^c.l3)&d.l3)^c.l3)+a.l3+0xa9e3e905, 5)
	d.l0 = a.l0 + bits.RotateLeft32((((a.l0^b.l0)&c.l0)^b.l0)+d.l0+w2.l0+0xfcefa3f8, 9)
	d.l1 = a.l1 + bits.RotateLeft32((((a.l1^b.l1)&c.l1)^b.l1)+d.l1+w2.l1+0xfcefa3f8, 9)
	d.l2 = a.l2 + bits.RotateLeft32((((a.l2^b.l2)&c.l2)^b.l2)+d.l2+w2.l2+0xfcefa3f8, 9)
	d.l3 = a.l3 + bits.RotateLeft32((((a.l3^b.l3)&c.l3)^b.l3)+d.l3+w2.l3+0xfcefa3f8, 9)
	c.l0 = d.l0 + bits.RotateLeft32((((d.l0^a.l0)&b.l0)^a.l0)+c.l0+0x676f02d9, 14)
	c.l1 = d.l1 + bits.RotateLeft32((((d.l1^a.l1)&b.l1)^a.l1)+c.l1+0x676f02d9, 14)
	c.l2 = d.l2 + bits.RotateLeft32((((d.l2^a.l2)&b.l2)^a.l2)+c.l2+0x676f02d9, 14)
	c.l3 = d.l3 + bits.RotateLeft32((((d.l3^a.l3)&b.l3)^a.l3)+c.l3+0x676f02d9, 14)
	b.l0 = c.l0 + bits.RotateLeft32((((c.l0^d.l0)&a.l0)^d.l0)+b.l0+0x8d2a4c8a, 20)
	b.l1 = c.l1 + bits.RotateLeft32((((c.l1^d.l1)&a.l1)^d.l1)+b.l1+0x8d2a4c8a, 20)
	b.l2 = c.l2 + bits.RotateLeft32((((c.l2^d.l2)&a.l2)^d.l2)+b.l2+0x8d2a4c8a, 20)
	b.l3 = c.l3 + bits.RotateLeft32((((c.l3^d.l3)&a.l3)^d.l3)+b.l3+0x8d2a4c8a, 20)
	// Round 3.
	a.l0 = b.l0 + bits.RotateLeft32((b.l0^c.l0^d.l0)+a.l0+0xfffa3942, 4)
	a.l1 = b.l1 + bits.RotateLeft32((b.l1^c.l1^d.l1)+a.l1+0xfffa3942, 4)
	a.l2 = b.l2 + bits.RotateLeft32((b.l2^c.l2^d.l2)+a.l2+0xfffa3942, 4)
	a.l3 = b.l3 + bits.RotateLeft32((b.l3^c.l3^d.l3)+a.l3+0xfffa3942, 4)
	d.l0 = a.l0 + bits.RotateLeft32((a.l0^b.l0^c.l0)+d.l0+0x8771f681, 11)
	d.l1 = a.l1 + bits.RotateLeft32((a.l1^b.l1^c.l1)+d.l1+0x8771f681, 11)
	d.l2 = a.l2 + bits.RotateLeft32((a.l2^b.l2^c.l2)+d.l2+0x8771f681, 11)
	d.l3 = a.l3 + bits.RotateLeft32((a.l3^b.l3^c.l3)+d.l3+0x8771f681, 11)
	c.l0 = d.l0 + bits.RotateLeft32((d.l0^a.l0^b.l0)+c.l0+0x6d9d6122, 16)
	c.l1 = d.l1 + bits.RotateLeft32((d.l1^a.l1^b.l1)+c.l1+0x6d9d6122, 16)
	c.l2 = d.l2 + bits.RotateLeft32((d.l2^a.l2^b.l2)+c.l2+0x6d9d6122, 16)
	c.l3 = d.l3 + bits.RotateLeft32((d.l3^a.l3^b.l3)+c.l3+0x6d9d6122, 16)
	b.l0 = c.l0 + bits.RotateLeft32((c.l0^d.l0^a.l0)+b.l0+0xfde5380c+96, 23)
	b.l1 = c.l1 + bits.RotateLeft32((c.l1^d.l1^a.l1)+b.l1+0xfde5380c+96, 23)
	b.l2 = c.l2 + bits.RotateLeft32((c.l2^d.l2^a.l2)+b.l2+0xfde5380c+96, 23)
	b.l3 = c.l3 + bits.RotateLeft32((c.l3^d.l3^a.l3)+b.l3+0xfde5380c+96, 23)
	a.l0 = b.l0 + bits.RotateLeft32((b.l0^c.l0^d.l0)+a.l0+w1.l0+0xa4beea44, 4)
	a.l1 = b.l1 + bits.RotateLeft32((b.l1^c.l1^d.l1)+a.l1+w1.l1+0xa4beea44, 4)
	a.l2 = b.l2 + bits.RotateLeft32((b.l2^c.l2^d.l2)+a.l2+w1.l2+0xa4beea44, 4)
	a.l3 = b.l3 + bits.RotateLeft32((b.l3^c.l3^d.l3)+a.l3+w1.l3+0xa4beea44, 4)
	d.l0 = a.l0 + bits.RotateLeft32((a.l0^b.l0^c.l0)+d.l0+0x4bdecfa9, 11)
	d.l1 = a.l1 + bits.RotateLeft32((a.l1^b.l1^c.l1)+d.l1+0x4bdecfa9, 11)
	d.l2 = a.l2 + bits.RotateLeft32((a.l2^b.l2^c.l2)+d.l2+0x4bdecfa9, 11)
	d.l3 = a.l3 + bits.RotateLeft32((a.l3^b.l3^c.l3)+d.l3+0x4bdecfa9, 11)
	c.l0 = d.l0 + bits.RotateLeft32((d.l0^a.l0^b.l0)+c.l0+0xf6bb4b60, 16)
	c.l1 = d.l1 + bits.RotateLeft32((d.l1^a.l1^b.l1)+c.l1+0xf6bb4b60, 16)
	c.l2 = d.l2 + bits.RotateLeft32((d.l2^a.l2^b.l2)+c.l2+0xf6bb4b60, 16)
	c.l3 = d.l3 + bits.RotateLeft32((d.l3^a.l3^b.l3)+c.l3+0xf6bb4b60, 16)
	b.l0 = c.l0 + bits.RotateLeft32((c.l0^d.l0^a.l0)+b.l0+0xbebfbc70, 23)
	b.l1 = c.l1 + bits.RotateLeft32((c.l1^d.l1^a.l1)+b.l1+0xbebfbc70, 23)
	b.l2 = c.l2 + bits.RotateLeft32((c.l2^d.l2^a.l2)+b.l2+0xbebfbc70, 23)
	b.l3 = c.l3 + bits.RotateLeft32((c.l3^d.l3^a.l3)+b.l3+0xbebfbc70, 23)
	a.l0 = b.l0 + bits.RotateLeft32((b.l0^c.l0^d.l0)+a.l0+0x289b7ec6, 4)
	a.l1 = b.l1 + bits.RotateLeft32((b.l1^c.l1^d.l1)+a.l1+0x289b7ec6, 4)
	a.l2 = b.l2 + bits.RotateLeft32((b.l2^c.l2^d.l2)+a.l2+0x289b7ec6, 4)
	a.l3 = b.l3 + bits.RotateLeft32((b.l3^c.l3^d.l3)+a.l3+0x289b7ec6, 4)
	d.l0 = a.l0 + bits.RotateLeft32((a.l0^b.l0^c.l0)+d.l0+w0.l0+0xeaa127fa, 11)
	d.l1 = a.l1 + bits.RotateLeft32((a.l1^b.l1^c.l1)+d.l1+w0.l1+0xeaa127fa, 11)
	d.l2 = a.l2 + bits.RotateLeft32((a.l2^b.l2^c.l2)+d.l2+w0.l2+0xeaa127fa, 11)
	d.l3 = a.l3 + bits.RotateLeft32((a.l3^b.l3^c.l3)+d.l3+w0.l3+0xeaa127fa, 11)
	c.l0 = d.l0 + bits.RotateLeft32((d.l0^a.l0^b.l0)+c.l0+0xd4ef3085+0x80, 16)
	c.l1 = d.l1 + bits.RotateLeft32((d.l1^a.l1^b.l1)+c.l1+0xd4ef3085+0x80, 16)
	c.l2 = d.l2 + bits.RotateLeft32((d.l2^a.l2^b.l2)+c.l2+0xd4ef3085+0x80, 16)
	c.l3 = d.l3 + bits.RotateLeft32((d.l3^a.l3^b.l3)+c.l3+0xd4ef3085+0x80, 16)
	b.l0 = c.l0 + bits.RotateLeft32((c.l0^d.l0^a.l0)+b.l0+0x04881d05, 23)
	b.l1 = c.l1 + bits.RotateLeft32((c.l1^d.l1^a.l1)+b.l1+0x04881d05, 23)
	b.l2 = c.l2 + bits.RotateLeft32((c.l2^d.l2^a.l2)+b.l2+0x04881d05, 23)
	b.l3 = c.l3 + bits.RotateLeft32((c.l3^d.l3^a.l3)+b.l3+0x04881d05, 23)
	a.l0 = b.l0 + bits.RotateLeft32((b.l0^c.l0^d.l0)+a.l0+0xd9d4d039, 4)
	a.l1 = b.l1 + bits.RotateLeft32((b.l1^c.l1^d.l1)+a.l1+0xd9d4d039, 4)
	a.l2 = b.l2 + bits.RotateLeft32((b.l2^c.l2^d.l2)+a.l2+0xd9d4d039, 4)
	a.l3 = b.l3 + bits.RotateLeft32((b.l3^c.l3^d.l3)+a.l3+0xd9d4d039, 4)
	d.l0 = a.l0 + bits.RotateLeft32((a.l0^b.l0^c.l0)+d.l0+0xe6db99e5, 11)
	d.l1 = a.l1 + bits.RotateLeft32((a.l1^b.l1^c.l1)+d.l1+0xe6db99e5, 11)
	d.l2 = a.l2 + bits.RotateLeft32((a.l2^b.l2^c.l2)+d.l2+0xe6db99e5, 11)
	d.l3 = a.l3 + bits.RotateLeft32((a.l3^b.l3^c.l3)+d.l3+0xe6db99e5, 11)
	c.l0 = d.l0 + bits.RotateLeft32((d.l0^a.l0^b.l0)+c.l0+0x1fa27cf8, 16)
	c.l1 = d.l1 + bits.RotateLeft32((d.l1^a.l1^b.l1)+c.l1+0x1fa27cf8, 16)
	c.l2 = d.l2 + bits.RotateLeft32((d.l2^a.l2^b.l2)+c.l2+0x1fa27cf8, 16)
	c.l3 = d.l3 + bits.RotateLeft32((d.l3^a.l3^b.l3)+c.l3+0x1fa27cf8, 16)
	b.l0 = c.l0 + bits.RotateLeft32((c.l0^d.l0^a.l0)+b.l0+w2.l0+0xc4ac5665, 23)
	b.l1 = c.l1 + bits.RotateLeft32((c.l1^d.l1^a.l1)+b.l1+w2.l1+0xc4ac5665, 23)
	b.l2 = c.l2 + bits.RotateLeft32((c.l2^d.l2^a.l2)+b.l2+w2.l2+0xc4ac5665, 23)
	b.l3 = c.l3 + bits.RotateLeft32((c.l3^d.l3^a.l3)+b.l3+w2.l3+0xc4ac5665, 23)
	// Round 4.
	a.l0 = b.l0 + bits.RotateLeft32((c.l0^(b.l0|^d.l0))+a.l0+w0.l0+0xf4292244, 6)
	a.l1 = b.l1 + bits.RotateLeft32((c.l1^(b.l1|^d.l1))+a.l1+w0.l1+0xf4292244, 6)
	a.l2 = b.l2 + bits.RotateLeft32((c.l2^(b.l2|^d.l2))+a.l2+w0.l2+0xf4292244, 6)
	a.l3 = b.l3 + bits.RotateLeft32((c.l3^(b.l3|^d.l3))+a.l3+w0.l3+0xf4292244, 6)
	d.l0 = a.l0 + bits.RotateLeft32((b.l0^(a.l0|^c.l0))+d.l0+0x432aff97, 10)
	d.l1 = a.l1 + bits.RotateLeft32((b.l1^(a.l1|^c.l1))+d.l1+0x432aff97, 10)
	d.l2 = a.l2 + bits.RotateLeft32((b.l2^(a.l2|^c.l2))+d.l2+0x432aff97, 10)
	d.l3 = a.l3 + bits.RotateLeft32((b.l3^(a.l3|^c.l3))+d.l3+0x432aff97, 10)
	c.l0 = d.l0 + bits.RotateLeft32((a.l0^(d.l0|^b.l0))+c.l0+0xab9423a7+96, 15)
	c.l1 = d.l1 + bits.RotateLeft32((a.l1^(d.l1|^b.l1))+c.l1+0xab9423a7+96, 15)
	c.l2 = d.l2 + bits.RotateLeft32((a.l2^(d.l2|^b.l2))+c.l2+0xab9423a7+96, 15)
	c.l3 = d.l3 + bits.RotateLeft32((a.l3^(d.l3|^b.l3))+c.l3+0xab9423a7+96, 15)
	b.l0 = c.l0 + bits.RotateLeft32((d.l0^(c.l0|^a.l0))+b.l0+0xfc93a039, 21)
	b.l1 = c.l1 + bits.RotateLeft32((d.l1^(c.l1|^a.l1))+b.l1+0xfc93a039, 21)
	b.l2 = c.l2 + bits.RotateLeft32((d.l2^(c.l2|^a.l2))+b.l2+0xfc93a039, 21)
	b.l3 = c.l3 + bits.RotateLeft32((d.l3^(c.l3|^a.l3))+b.l3+0xfc93a039, 21)
	a.l0 = b.l0 + bits.RotateLeft32((c.l0^(b.l0|^d.l0))+a.l0+0x655b59c3, 6)
	a.l1 = b.l1 + bits.RotateLeft32((c.l1^(b.l1|^d.l1))+a.l1+0x655b59c3, 6)
	a.l2 = b.l2 + bits.RotateLeft32((c.l2^(b.l2|^d.l2))+a.l2+0x655b59c3, 6)
	a.l3 = b.l3 + bits.RotateLeft32((c.l3^(b.l3|^d.l3))+a.l3+0x655b59c3, 6)
	d.l0 = a.l0 + bits.RotateLeft32((b.l0^(a.l0|^c.l0))+d.l0+0x8f0ccc92+0x80, 10)
	d.l1 = a.l1 + bits.RotateLeft32((b.l1^(a.l1|^c.l1))+d.l1+0x8f0ccc92+0x80, 10)
	d.l2 = a.l2 + bits.RotateLeft32((b.l2^(a.l2|^c.l2))+d.l2+0x8f0ccc92+0x80, 10)
	d.l3 = a.l3 + bits.RotateLeft32((b.l3^(a.l3|^c.l3))+d.l3+0x8f0ccc92+0x80, 10)
	c.l0 = d.l0 + bits.RotateLeft32((a.l0^(d.l0|^b.l0))+c.l0+0xffeff47d, 15)
	c.l1 = d.l1 + bits.RotateLeft32((a.l1^(d.l1|^b.l1))+c.l1+0xffeff47d, 15)
	c.l2 = d.l2 + bits.RotateLeft32((a.l2^(d.l2|^b.l2))+c.l2+0xffeff47d, 15)
	c.l3 = d.l3 + bits.RotateLeft32((a.l3^(d.l3|^b.l3))+c.l3+0xffeff47d, 15)
	b.l0 = c.l0 + bits.RotateLeft32((d.l0^(c.l0|^a.l0))+b.l0+w1.l0+0x85845dd1, 21)
	b.l1 = c.l1 + bits.RotateLeft32((d.l1^(c.l1|^a.l1))+b.l1+w1.l1+0x85845dd1, 21)
	b.l2 = c.l2 + bits.RotateLeft32((d.l2^(c.l2|^a.l2))+b.l2+w1.l2+0x85845dd1, 21)
	b.l3 = c.l3 + bits.RotateLeft32((d.l3^(c.l3|^a.l3))+b.l3+w1.l3+0x85845dd1, 21)
	a.l0 = b.l0 + bits.RotateLeft32((c.l0^(b.l0|^d.l0))+a.l0+0x6fa87e4f, 6)
	a.l1 = b.l1 + bits.RotateLeft32((c.l1^(b.l1|^d.l1))+a.l1+0x6fa87e4f, 6)
	a.l2 = b.l2 + bits.RotateLeft32((c.l2^(b.l2|^d.l2))+a.l2+0x6fa87e4f, 6)
	a.l3 = b.l3 + bits.RotateLeft32((c.l3^(b.l3|^d.l3))+a.l3+0x6fa87e4f, 6)
	d.l0 = a.l0 + bits.RotateLeft32((b.l0^(a.l0|^c.l0))+d.l0+0xfe2ce6e0, 10)
	d.l1 = a.l1 + bits.RotateLeft32((b.l1^(a.l1|^c.l1))+d.l1+0xfe2ce6e0, 10)
	d.l2 = a.l2 + bits.RotateLeft32((b.l2^(a.l2|^c.l2))+d.l2+0xfe2ce6e0, 10)
	d.l3 = a.l3 + bits.RotateLeft32((b.l3^(a.l3|^c.l3))+d.l3+0xfe2ce6e0, 10)
	c.l0 = d.l0 + bits.RotateLeft32((a.l0^(d.l0|^b.l0))+c.l0+0xa3014314, 15)
	c.l1 = d.l1 + bits.RotateLeft32((a.l1^(d.l1|^b.l1))+c.l1+0xa3014314, 15)
	c.l2 = d.l2 + bits.RotateLeft32((a.l2^(d.l2|^b.l2))+c.l2+0xa3014314, 15)
	c.l3 = d.l3 + bits.RotateLeft32((a.l3^(d.l3|^b.l3))+c.l3+0xa3014314, 15)
	b.l0 = c.l0 + bits.RotateLeft32((d.l0^(c.l0|^a.l0))+b.l0+0x4e0811a1, 21)
	b.l1 = c.l1 + bits.RotateLeft32((d.l1^(c.l1|^a.l1))+b.l1+0x4e0811a1, 21)
	b.l2 = c.l2 + bits.RotateLeft32((d.l2^(c.l2|^a.l2))+b.l2+0x4e0811a1, 21)
	b.l3 = c.l3 + bits.RotateLeft32((d.l3^(c.l3|^a.l3))+b.l3+0x4e0811a1, 21)
	a.l0 = b.l0 + bits.RotateLeft32((c.l0^(b.l0|^d.l0))+a.l0+0xf7537e82, 6)
	a.l1 = b.l1 + bits.RotateLeft32((c.l1^(b.l1|^d.l1))+a.l1+0xf7537e82, 6)
	a.l2 = b.l2 + bits.RotateLeft32((c.l2^(b.l2|^d.l2))+a.l2+0xf7537e82, 6)
	a.l3 = b.l3 + bits.RotateLeft32((c.l3^(b.l3|^d.l3))+a.l3+0xf7537e82, 6)
	d.l0 = a.l0 + bits.RotateLeft32((b.l0^(a.l0|^c.l0))+d.l0+0xbd3af235, 10)
	d.l1 = a.l1 + bits.RotateLeft32((b.l1^(a.l1|^c.l1))+d.l1+0xbd3af235, 10)
	d.l2 = a.l2 + bits.RotateLeft32((b.l2^(a.l2|^c.l2))+d.l2+0xbd3af235, 10)
	d.l3 = a.l3 + bits.RotateLeft32((b.l3^(a.l3|^c.l3))+d.l3+0xbd3af235, 10)
	c.l0 = d.l0 + bits.RotateLeft32((a.l0^(d.l0|^b.l0))+c.l0+w2.l0+0x2ad7d2bb, 15)
	c.l1 = d.l1 + bits.RotateLeft32((a.l1^(d.l1|^b.l1))+c.l1+w2.l1+0x2ad7d2bb, 15)
	c.l2 = d.l2 + bits.RotateLeft32((a.l2^(d.l2|^b.l2))+c.l2+w2.l2+0x2ad7d2bb, 15)
	c.l3 = d.l3 + bits.RotateLeft32((a.l3^(d.l3|^b.l3))+c.l3+w2.l3+0x2ad7d2bb, 15)
	b.l0 = c.l0 + bits.RotateLeft32((d.l0^(c.l0|^a.l0))+b.l0+0xeb86d391, 21)
	b.l1 = c.l1 + bits.RotateLeft32((d.l1^(c.l1|^a.l1))+b.l1+0xeb86d391, 21)
	b.l2 = c.l2 + bits.RotateLeft32((d.l2^(c.l2|^a.l2))+b.l2+0xeb86d391, 21)
	b.l3 = c.l3 + bits.RotateLeft32((d.l3^(c.l3|^a.l3))+b.l3+0xeb86d391, 21)
	// END generated steps.

	return [4]uint64{
		md5Prefix(a.l0+a0, b.l0+b0), md5Prefix(a.l1+a0, b.l1+b0),
		md5Prefix(a.l2+a0, b.l2+b0), md5Prefix(a.l3+a0, b.l3+b0),
	}
}

// md5Prefix returns the first 64 bits, big-endian, of the digest whose
// first two words are a and b.
func md5Prefix(a, b uint32) uint64 {
	return uint64(bits.ReverseBytes32(a))<<32 | uint64(bits.ReverseBytes32(b))
}
