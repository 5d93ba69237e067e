package hashing

// useAVX2 reports whether md5Pairs hashes through md5x16. It is set
// once, from the processor; tests clear it to check the fallback.
var useAVX2 = hasAVX2()

// hasAVX2 reports whether the processor has AVX2 and the operating
// system saves the Y registers.
func hasAVX2() bool

// md5x16 hashes the sixteen pairs of l (md5lanes_amd64.s).
//
//go:noescape
func md5x16(l *md5Lanes)
