#include "textflag.h"

// md5x16 is sixteen single-block MD5 compressions, one per 32-bit lane
// of two groups of eight: group 1's state words a, b, c, d in Y0–Y3,
// group 2's in Y4–Y7. Each of the 64 lines below is one step in both
// groups, so either group's chain of dependent steps runs while the
// other's waits. Only message words w0–w2 vary (md5Lanes.w); w3, the
// padding byte 0x80, and w14, the length of 96 bits, are added to their
// steps' round constants, and the other words are zero.

#define A1 Y0
#define B1 Y1
#define C1 Y2
#define D1 Y3
#define A2 Y4
#define B2 Y5
#define C2 Y6
#define D2 Y7
#define T1 Y8
#define T2 Y9
#define K Y10
#define KX X10
#define ONES Y11

// BCAST sets every lane of K to k.
#define BCAST(k) MOVL $(k), AX; VMOVD AX, KX; VPBROADCASTD KX, K

// W adds the message word at byte offset off of md5Lanes.w to the state
// word a step writes, in both groups.
#define W(a1, a2, off) VPADDD off(DI), a1, a1; VPADDD off+32(DI), a2, a2

// STEP ends a step in one group whose round function left its value in
// t: a = b + (a + t + K) <<< s.
#define STEP(a, b, t, s) \
	VPADDD K, a, a; VPADDD t, a, a; \
	VPSRLD $(32-s), a, t; VPSLLD $s, a, a; VPOR t, a, a; \
	VPADDD b, a, a

// FF, GG, HH and II are a step of rounds 1–4 in both groups, with round
// constant k and rotation s; their functions are RFC 1321's F, G, H, I.
#define FF(a1, b1, c1, d1, a2, b2, c2, d2, k, s) \
	BCAST(k); \
	VPXOR c1, d1, T1; VPAND b1, T1, T1; VPXOR d1, T1, T1; \
	VPXOR c2, d2, T2; VPAND b2, T2, T2; VPXOR d2, T2, T2; \
	STEP(a1, b1, T1, s); STEP(a2, b2, T2, s)

#define GG(a1, b1, c1, d1, a2, b2, c2, d2, k, s) \
	BCAST(k); \
	VPXOR b1, c1, T1; VPAND d1, T1, T1; VPXOR c1, T1, T1; \
	VPXOR b2, c2, T2; VPAND d2, T2, T2; VPXOR c2, T2, T2; \
	STEP(a1, b1, T1, s); STEP(a2, b2, T2, s)

#define HH(a1, b1, c1, d1, a2, b2, c2, d2, k, s) \
	BCAST(k); \
	VPXOR b1, c1, T1; VPXOR d1, T1, T1; \
	VPXOR b2, c2, T2; VPXOR d2, T2, T2; \
	STEP(a1, b1, T1, s); STEP(a2, b2, T2, s)

#define II(a1, b1, c1, d1, a2, b2, c2, d2, k, s) \
	BCAST(k); \
	VPXOR ONES, d1, T1; VPOR b1, T1, T1; VPXOR c1, T1, T1; \
	VPXOR ONES, d2, T2; VPOR b2, T2, T2; VPXOR c2, T2, T2; \
	STEP(a1, b1, T1, s); STEP(a2, b2, T2, s)

// INIT sets state word a of both groups to k.
#define INIT(a1, a2, k) BCAST(k); VMOVDQU K, a1; VMOVDQU K, a2

// func md5x16(l *md5Lanes)
TEXT ·md5x16(SB), NOSPLIT, $0-8
	MOVQ l+0(FP), DI
	VPCMPEQD ONES, ONES, ONES
	INIT(A1, A2, 0x67452301)
	INIT(B1, B2, 0xefcdab89)
	INIT(C1, C2, 0x98badcfe)
	INIT(D1, D2, 0x10325476)

	// Round 1.
	W(A1, A2, 0); FF(A1, B1, C1, D1, A2, B2, C2, D2, 0xd76aa478, 7)
	W(D1, D2, 64); FF(D1, A1, B1, C1, D2, A2, B2, C2, 0xe8c7b756, 12)
	W(C1, C2, 128); FF(C1, D1, A1, B1, C2, D2, A2, B2, 0x242070db, 17)
	FF(B1, C1, D1, A1, B2, C2, D2, A2, 0xc1bdceee+0x80, 22)
	FF(A1, B1, C1, D1, A2, B2, C2, D2, 0xf57c0faf, 7)
	FF(D1, A1, B1, C1, D2, A2, B2, C2, 0x4787c62a, 12)
	FF(C1, D1, A1, B1, C2, D2, A2, B2, 0xa8304613, 17)
	FF(B1, C1, D1, A1, B2, C2, D2, A2, 0xfd469501, 22)
	FF(A1, B1, C1, D1, A2, B2, C2, D2, 0x698098d8, 7)
	FF(D1, A1, B1, C1, D2, A2, B2, C2, 0x8b44f7af, 12)
	FF(C1, D1, A1, B1, C2, D2, A2, B2, 0xffff5bb1, 17)
	FF(B1, C1, D1, A1, B2, C2, D2, A2, 0x895cd7be, 22)
	FF(A1, B1, C1, D1, A2, B2, C2, D2, 0x6b901122, 7)
	FF(D1, A1, B1, C1, D2, A2, B2, C2, 0xfd987193, 12)
	FF(C1, D1, A1, B1, C2, D2, A2, B2, 0xa679438e+96, 17)
	FF(B1, C1, D1, A1, B2, C2, D2, A2, 0x49b40821, 22)
	// Round 2.
	W(A1, A2, 64); GG(A1, B1, C1, D1, A2, B2, C2, D2, 0xf61e2562, 5)
	GG(D1, A1, B1, C1, D2, A2, B2, C2, 0xc040b340, 9)
	GG(C1, D1, A1, B1, C2, D2, A2, B2, 0x265e5a51, 14)
	W(B1, B2, 0); GG(B1, C1, D1, A1, B2, C2, D2, A2, 0xe9b6c7aa, 20)
	GG(A1, B1, C1, D1, A2, B2, C2, D2, 0xd62f105d, 5)
	GG(D1, A1, B1, C1, D2, A2, B2, C2, 0x02441453, 9)
	GG(C1, D1, A1, B1, C2, D2, A2, B2, 0xd8a1e681, 14)
	GG(B1, C1, D1, A1, B2, C2, D2, A2, 0xe7d3fbc8, 20)
	GG(A1, B1, C1, D1, A2, B2, C2, D2, 0x21e1cde6, 5)
	GG(D1, A1, B1, C1, D2, A2, B2, C2, 0xc33707d6+96, 9)
	GG(C1, D1, A1, B1, C2, D2, A2, B2, 0xf4d50d87+0x80, 14)
	GG(B1, C1, D1, A1, B2, C2, D2, A2, 0x455a14ed, 20)
	GG(A1, B1, C1, D1, A2, B2, C2, D2, 0xa9e3e905, 5)
	W(D1, D2, 128); GG(D1, A1, B1, C1, D2, A2, B2, C2, 0xfcefa3f8, 9)
	GG(C1, D1, A1, B1, C2, D2, A2, B2, 0x676f02d9, 14)
	GG(B1, C1, D1, A1, B2, C2, D2, A2, 0x8d2a4c8a, 20)
	// Round 3.
	HH(A1, B1, C1, D1, A2, B2, C2, D2, 0xfffa3942, 4)
	HH(D1, A1, B1, C1, D2, A2, B2, C2, 0x8771f681, 11)
	HH(C1, D1, A1, B1, C2, D2, A2, B2, 0x6d9d6122, 16)
	HH(B1, C1, D1, A1, B2, C2, D2, A2, 0xfde5380c+96, 23)
	W(A1, A2, 64); HH(A1, B1, C1, D1, A2, B2, C2, D2, 0xa4beea44, 4)
	HH(D1, A1, B1, C1, D2, A2, B2, C2, 0x4bdecfa9, 11)
	HH(C1, D1, A1, B1, C2, D2, A2, B2, 0xf6bb4b60, 16)
	HH(B1, C1, D1, A1, B2, C2, D2, A2, 0xbebfbc70, 23)
	HH(A1, B1, C1, D1, A2, B2, C2, D2, 0x289b7ec6, 4)
	W(D1, D2, 0); HH(D1, A1, B1, C1, D2, A2, B2, C2, 0xeaa127fa, 11)
	HH(C1, D1, A1, B1, C2, D2, A2, B2, 0xd4ef3085+0x80, 16)
	HH(B1, C1, D1, A1, B2, C2, D2, A2, 0x04881d05, 23)
	HH(A1, B1, C1, D1, A2, B2, C2, D2, 0xd9d4d039, 4)
	HH(D1, A1, B1, C1, D2, A2, B2, C2, 0xe6db99e5, 11)
	HH(C1, D1, A1, B1, C2, D2, A2, B2, 0x1fa27cf8, 16)
	W(B1, B2, 128); HH(B1, C1, D1, A1, B2, C2, D2, A2, 0xc4ac5665, 23)
	// Round 4.
	W(A1, A2, 0); II(A1, B1, C1, D1, A2, B2, C2, D2, 0xf4292244, 6)
	II(D1, A1, B1, C1, D2, A2, B2, C2, 0x432aff97, 10)
	II(C1, D1, A1, B1, C2, D2, A2, B2, 0xab9423a7+96, 15)
	II(B1, C1, D1, A1, B2, C2, D2, A2, 0xfc93a039, 21)
	II(A1, B1, C1, D1, A2, B2, C2, D2, 0x655b59c3, 6)
	II(D1, A1, B1, C1, D2, A2, B2, C2, 0x8f0ccc92+0x80, 10)
	II(C1, D1, A1, B1, C2, D2, A2, B2, 0xffeff47d, 15)
	W(B1, B2, 64); II(B1, C1, D1, A1, B2, C2, D2, A2, 0x85845dd1, 21)
	II(A1, B1, C1, D1, A2, B2, C2, D2, 0x6fa87e4f, 6)
	II(D1, A1, B1, C1, D2, A2, B2, C2, 0xfe2ce6e0, 10)
	II(C1, D1, A1, B1, C2, D2, A2, B2, 0xa3014314, 15)
	II(B1, C1, D1, A1, B2, C2, D2, A2, 0x4e0811a1, 21)
	II(A1, B1, C1, D1, A2, B2, C2, D2, 0xf7537e82, 6)
	II(D1, A1, B1, C1, D2, A2, B2, C2, 0xbd3af235, 10)
	W(C1, C2, 128); II(C1, D1, A1, B1, C2, D2, A2, B2, 0x2ad7d2bb, 15)
	II(B1, C1, D1, A1, B2, C2, D2, A2, 0xeb86d391, 21)

	// The digest's first two words, the initial state added back.
	BCAST(0x67452301)
	VPADDD K, A1, A1
	VPADDD K, A2, A2
	BCAST(0xefcdab89)
	VPADDD K, B1, B1
	VPADDD K, B2, B2
	VMOVDQU A1, 192(DI)
	VMOVDQU A2, 224(DI)
	VMOVDQU B1, 256(DI)
	VMOVDQU B2, 288(DI)
	VZEROUPPER
	RET

// func hasAVX2() bool
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	// CPUID.1:ECX: OSXSAVE (bit 27) and AVX (bit 28).
	MOVL $1, AX
	CPUID
	ANDL $(1<<27 | 1<<28), CX
	CMPL CX, $(1<<27 | 1<<28)
	JNE  no
	// XCR0: the OS saves SSE (bit 1) and AVX (bit 2) state.
	MOVL $0, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	// CPUID.7.0:EBX: AVX2 (bit 5).
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	SHRL $5, BX
	ANDL $1, BX
	MOVB BX, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET
