// Package hashing implements AVMON's hash-based monitor selection
// scheme (paper Section 3.1) and the optimal coarse-view sizing math
// (Section 4.2).
//
// Two nodes x, y are related as y ∈ PS(x) iff H(y, x) ≤ K/N, where H is
// a consistent hash over the 12-byte concatenation of the two node
// identities, normalized to [0, 1]. The paper uses libSSL MD5 keeping
// only the first 64 bits of the digest; MD5Hasher reproduces that
// exactly. FastHasher is a statistically equivalent 64-bit mixer used
// for large single-core simulations.
package hashing

import (
	"crypto/md5"
	"crypto/sha1"
	"math/bits"

	"avmon/internal/ids"
)

// Hasher maps an ordered pair of node identities to a uniform 64-bit
// value. Hash64(y, x) is the first 64 bits (big-endian) of
// H(bytes(y) || bytes(x)).
//
// Implementations must be deterministic (consistency and verifiability
// of the selection scheme both depend on any third node being able to
// recompute the value).
type Hasher interface {
	Hash64(y, x ids.ID) uint64
	Name() string
}

// MD5Hasher is the paper's default hash: MD5 over the 12-byte pair
// encoding, first 64 bits. The zero value is ready to use.
type MD5Hasher struct{}

var _ Hasher = MD5Hasher{}

// Hash64 implements Hasher.
func (MD5Hasher) Hash64(y, x ids.ID) uint64 {
	var buf [2 * ids.WireLen]byte
	yw := y.Wire()
	xw := x.Wire()
	copy(buf[:], yw[:])
	copy(buf[ids.WireLen:], xw[:])
	sum := md5.Sum(buf[:])
	return be64(sum[:8])
}

// Name implements Hasher.
func (MD5Hasher) Name() string { return "md5" }

// SHA1Hasher is the paper's alternative hash (Section 3.1 mentions
// MD-5 or SHA-1): SHA-1 over the 12-byte pair encoding, first 64 bits.
type SHA1Hasher struct{}

var _ Hasher = SHA1Hasher{}

// Hash64 implements Hasher.
func (SHA1Hasher) Hash64(y, x ids.ID) uint64 {
	var buf [2 * ids.WireLen]byte
	yw := y.Wire()
	xw := x.Wire()
	copy(buf[:], yw[:])
	copy(buf[ids.WireLen:], xw[:])
	sum := sha1.Sum(buf[:])
	return be64(sum[:8])
}

// Name implements Hasher.
func (SHA1Hasher) Name() string { return "sha1" }

// FastHasher is a non-cryptographic 64-bit finalizer (splitmix64-style)
// over the pair encoding. It has the same consistency, verifiability,
// and uniformity properties required by the protocol, at a fraction of
// the cost of MD5; it is the default for large simulations.
type FastHasher struct{}

var _ Hasher = FastHasher{}

// The per-identity multipliers of FastHasher.
const fastMulY, fastMulX = 0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F

// Hash64 implements Hasher.
func (FastHasher) Hash64(y, x ids.ID) uint64 {
	return fastMix(uint64(y)*fastMulY ^ bits.RotateLeft64(uint64(x)*fastMulX, 31))
}

// fastMix is the splitmix64 finalizer.
func fastMix(v uint64) uint64 {
	v ^= v >> 30
	v *= 0xBF58476D1CE4E5B9
	v ^= v >> 27
	v *= 0x94D049BB133111EB
	v ^= v >> 31
	return v
}

// Name implements Hasher.
func (FastHasher) Name() string { return "fast" }

func be64(b []byte) uint64 {
	return uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
}
