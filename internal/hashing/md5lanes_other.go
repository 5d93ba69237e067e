//go:build !amd64

package hashing

// useAVX2 is false off amd64: md5Pairs hashes with crypto/md5.
var useAVX2 = false

func md5x16(*md5Lanes) { panic("hashing: md5x16 needs amd64 with AVX2") }
