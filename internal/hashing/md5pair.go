package hashing

import (
	"math/bits"

	"avmon/internal/ids"
)

// md5Pairs sets out[i] to MD5Hasher{}.Hash64(ys[i], xs[i]) for every i;
// the three slices have one length. One MD5 compression is a chain of
// 64 dependent steps, and the discovery sweep hashes rows of
// independent pairs, so with AVX2 they go sixteen at a time through
// md5x16, about an eighth of crypto/md5's time per pair; without it,
// one at a time through crypto/md5.
func md5Pairs(ys, xs []ids.ID, out []uint64) {
	if !useAVX2 {
		for i := range out {
			out[i] = MD5Hasher{}.Hash64(ys[i], xs[i])
		}
		return
	}
	var l md5Lanes // a short tail hashes stale words in its idle lanes
	for len(out) > 0 {
		n := min(len(out), len(l.a))
		for i, y := range ys[:n] {
			l.w[0][i], l.w[1][i], l.w[2][i] = pairWords(y, xs[i])
		}
		md5x16(&l)
		for i := range out[:n] {
			out[i] = uint64(bits.ReverseBytes32(l.a[i]))<<32 | uint64(bits.ReverseBytes32(l.b[i]))
		}
		ys, xs, out = ys[n:], xs[n:], out[n:]
	}
}

// md5Lanes is one md5x16 call: the message words w0–w2 of sixteen
// pairs, word by word (lanes 0–7 are the kernel's first group, 8–15
// its second), and the first two state words of each digest.
type md5Lanes struct {
	w    [3][16]uint32
	a, b [16]uint32
}

// pairWords returns the three message words of the 12-byte pair
// encoding y‖x (ids.ID.Wire twice), read little-endian as MD5 does.
func pairWords(y, x ids.ID) (w0, w1, w2 uint32) {
	return bits.ReverseBytes32(uint32(y >> 16)),
		uint32(bits.ReverseBytes16(uint16(y))) | uint32(bits.ReverseBytes16(uint16(x>>32)))<<16,
		bits.ReverseBytes32(uint32(x))
}
