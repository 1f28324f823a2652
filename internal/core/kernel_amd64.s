#include "textflag.h"

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (xcr0 uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, xcr0+0(FP)
	RET

// func nextWithinAVX512(x uint64, words []uint64, maxD int) int
//
// Eight words per step: XOR with x, VPOPCNTQ, and a signed compare with
// maxD, as the Go loop's OnesCount64(x^y) <= maxD. The first set bit of the
// first nonzero mask is the index. The last 1-7 words are loaded under a
// lane mask, so nothing past words[len(words)-1] is read.
TEXT ·nextWithinAVX512(SB), NOSPLIT, $0-48
	MOVQ x+0(FP), AX
	MOVQ words_base+8(FP), SI
	MOVQ words_len+16(FP), DX
	MOVQ maxD+32(FP), BX
	VPBROADCASTQ AX, Z0
	VPBROADCASTQ BX, Z1
	XORL R9, R9
	MOVQ DX, R8
	ANDQ $-8, R8
	JZ   nwTail

nwLoop:
	VPXORQ   (SI)(R9*8), Z0, Z2
	VPOPCNTQ Z2, Z2
	VPCMPQ   $2, Z1, Z2, K1
	KORTESTW K1, K1
	JNZ      nwFound
	ADDQ     $8, R9
	CMPQ     R9, R8
	JNE      nwLoop

nwTail:
	MOVQ DX, CX
	SUBQ R9, CX
	JZ   nwNone
	MOVL $1, AX
	SHLL CX, AX
	DECL AX
	KMOVW AX, K2
	VMOVDQU64.Z (SI)(R9*8), K2, Z2
	VPXORQ   Z0, Z2, Z2
	VPOPCNTQ Z2, Z2
	VPCMPQ   $2, Z1, Z2, K2, K1
	KORTESTW K1, K1
	JNZ      nwFound

nwNone:
	MOVQ DX, ret+40(FP)
	VZEROUPPER
	RET

nwFound:
	KMOVW K1, AX
	BSFL  AX, AX
	ADDQ  R9, AX
	MOVQ  AX, ret+40(FP)
	VZEROUPPER
	RET

// hitLanes holds j<<distBits for j = 0..7 (distBits is 7): the index part
// of the records of the first step's eight words.
DATA hitLanes<>+0(SB)/8, $0
DATA hitLanes<>+8(SB)/8, $128
DATA hitLanes<>+16(SB)/8, $256
DATA hitLanes<>+24(SB)/8, $384
DATA hitLanes<>+32(SB)/8, $512
DATA hitLanes<>+40(SB)/8, $640
DATA hitLanes<>+48(SB)/8, $768
DATA hitLanes<>+56(SB)/8, $896
GLOBL hitLanes<>(SB), RODATA|NOPTR, $64

// func compactAsm(x uint64, words []uint64, maxD uint, hits []uint32) int
//
// Eight words per step: XOR with x, VPOPCNTQ, and the hit mask 1 <= d <=
// maxD (unsigned, as the Go loop's uint(d-1) < maxD). Each word's record
// j<<distBits | d is narrowed to 32 bits, the hits are compressed to the
// front of a ymm register in word order, and all eight lanes are stored at
// hits[n]; n then advances by the number of hits. The caller guarantees
// len(words) <= walkBuf <= len(hits) with walkBuf a multiple of eight, so
// each store ends at or before hits[j+8], inside the buffer, and a later
// step's store overwrites the lanes past the hits.
TEXT ·compactAsm(SB), NOSPLIT, $0-72
	MOVQ x+0(FP), AX
	MOVQ words_base+8(FP), SI
	MOVQ words_len+16(FP), DX
	MOVQ maxD+32(FP), BX
	MOVQ hits_base+40(FP), DI
	VPBROADCASTQ AX, Z0
	VPBROADCASTQ BX, Z1
	VMOVDQU64    hitLanes<>(SB), Z3
	MOVL         $1024, AX // 8<<distBits, one step's advance of the index part
	VPBROADCASTQ AX, Z4
	XORL BX, BX
	XORL R9, R9
	MOVQ DX, R8
	ANDQ $-8, R8
	JZ   cpTail

cpLoop:
	VPXORQ        (SI)(R9*8), Z0, Z2
	VPOPCNTQ      Z2, Z2
	VPCMPUQ       $2, Z1, Z2, K1
	VPTESTMQ      Z2, Z2, K1, K1
	VPORQ         Z3, Z2, Z2
	VPMOVQD       Z2, Y2
	VPCOMPRESSD.Z Y2, K1, Y2
	VMOVDQU       Y2, (DI)(BX*4)
	KMOVW         K1, AX
	POPCNTL       AX, AX
	ADDQ          AX, BX
	VPADDQ        Z4, Z3, Z3
	ADDQ          $8, R9
	CMPQ          R9, R8
	JNE           cpLoop

cpTail:
	MOVQ DX, CX
	SUBQ R9, CX
	JZ   cpDone
	MOVL $1, AX
	SHLL CX, AX
	DECL AX
	KMOVW AX, K2
	VMOVDQU64.Z   (SI)(R9*8), K2, Z2
	VPXORQ        Z0, Z2, Z2
	VPOPCNTQ      Z2, Z2
	VPCMPUQ       $2, Z1, Z2, K2, K1
	VPTESTMQ      Z2, Z2, K1, K1
	VPORQ         Z3, Z2, Z2
	VPMOVQD       Z2, Y2
	VPCOMPRESSD.Z Y2, K1, Y2
	VMOVDQU       Y2, (DI)(BX*4)
	KMOVW         K1, AX
	POPCNTL       AX, AX
	ADDQ          AX, BX

cpDone:
	MOVQ BX, ret+64(FP)
	VZEROUPPER
	RET
