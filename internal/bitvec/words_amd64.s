//go:build amd64 && !purego

#include "textflag.h"

// AVX2 versions of the five 2-operand word kernels and of the k-way
// intersection count. Each processes 16 words (four 256-bit vectors)
// per main-loop trip, then single vectors, then a scalar POPCNTQ tail,
// so any length and any tail residue mod 16 is handled in one call.
// Loads and stores are unaligned (VMOVDQU): the dataset and miner
// arenas guarantee only 8-byte alignment.
//
// Popcount of a 256-bit vector uses the VPSHUFB nibble-LUT technique
// (Mula/Harley–Seal style accumulation): split each byte into nibbles,
// look both up in a 16-entry popcount table with VPSHUFB, and add. The
// byte-wise counts of the four vectors of a trip are summed (max 32
// per byte, far below overflow) and folded into four qword lanes with
// one VPSADBW against zero, then accumulated with VPADDQ. The qword
// accumulator is reduced horizontally once per call.
//
// Register plan (common to all kernels):
//   SI/DI  input pointers (a, b)     DX  dst pointer (Into kernels)
//   CX     remaining words           AX  running popcount / return
//   Y6     nibble popcount LUT       Y7  0x0f nibble mask
//   Y0     qword accumulator         Y9  zero (VPSADBW operand)
//   Y1-Y4  data                      Y5  NIBPOP scratch
//   BX     scalar-tail scratch

// NIBPOP replaces each byte of V with its popcount, using S as
// scratch. The VPSRLW shifts nibble garbage across byte lanes, which
// the 0x0f mask then clears, so a 16-bit shift is safe for byte data.
#define NIBPOP(V, S) \
	VPSRLW  $4, V, S;  \
	VPAND   Y7, V, V;  \
	VPAND   Y7, S, S;  \
	VPSHUFB V, Y6, V;  \
	VPSHUFB S, Y6, S;  \
	VPADDB  S, V, V

// KERNELINIT loads the LUT/mask constants and zeroes the accumulators.
#define KERNELINIT \
	VMOVDQU nibblePop<>(SB), Y6;  \
	VMOVDQU nibbleMask<>(SB), Y7; \
	VPXOR   Y0, Y0, Y0;           \
	VPXOR   Y9, Y9, Y9;           \
	XORQ    AX, AX

// REDUCE folds the qword accumulator Y0 into AX and leaves AVX state
// clean for the scalar tail and the return to Go code.
#define REDUCE \
	VEXTRACTI128 $1, Y0, X1; \
	VPADDQ       X1, X0, X0; \
	VPSRLDQ      $8, X0, X1; \
	VPADDQ       X1, X0, X0; \
	MOVQ         X0, AX;     \
	VZEROUPPER

DATA nibblePop<>+0x00(SB)/8, $0x0302020102010100
DATA nibblePop<>+0x08(SB)/8, $0x0403030203020201
DATA nibblePop<>+0x10(SB)/8, $0x0302020102010100
DATA nibblePop<>+0x18(SB)/8, $0x0403030203020201
GLOBL nibblePop<>(SB), RODATA|NOPTR, $32

DATA nibbleMask<>+0x00(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibbleMask<>+0x08(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibbleMask<>+0x10(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibbleMask<>+0x18(SB)/8, $0x0f0f0f0f0f0f0f0f
GLOBL nibbleMask<>(SB), RODATA|NOPTR, $32

// func countWordsAVX2(p *uint64, n int) int
TEXT ·countWordsAVX2(SB), NOSPLIT, $0-24
	MOVQ p+0(FP), SI
	MOVQ n+8(FP), CX
	KERNELINIT

loop16:
	CMPQ    CX, $16
	JLT     vec4
	VMOVDQU (SI), Y1
	NIBPOP(Y1, Y5)
	VMOVDQU 32(SI), Y2
	NIBPOP(Y2, Y5)
	VPADDB  Y2, Y1, Y1
	VMOVDQU 64(SI), Y3
	NIBPOP(Y3, Y5)
	VPADDB  Y3, Y1, Y1
	VMOVDQU 96(SI), Y4
	NIBPOP(Y4, Y5)
	VPADDB  Y4, Y1, Y1
	VPSADBW Y9, Y1, Y1
	VPADDQ  Y1, Y0, Y0
	ADDQ    $128, SI
	SUBQ    $16, CX
	JMP     loop16

vec4:
	CMPQ    CX, $4
	JLT     reduce
	VMOVDQU (SI), Y1
	NIBPOP(Y1, Y5)
	VPSADBW Y9, Y1, Y1
	VPADDQ  Y1, Y0, Y0
	ADDQ    $32, SI
	SUBQ    $4, CX
	JMP     vec4

reduce:
	REDUCE

tail:
	TESTQ   CX, CX
	JZ      done
	POPCNTQ (SI), BX
	ADDQ    BX, AX
	ADDQ    $8, SI
	DECQ    CX
	JMP     tail

done:
	MOVQ AX, ret+16(FP)
	RET

// func andCountWordsAVX2(a, b *uint64, n int) int
TEXT ·andCountWordsAVX2(SB), NOSPLIT, $0-32
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ n+16(FP), CX
	KERNELINIT

loop16:
	CMPQ    CX, $16
	JLT     vec4
	VMOVDQU (SI), Y1
	VPAND   (DI), Y1, Y1
	NIBPOP(Y1, Y5)
	VMOVDQU 32(SI), Y2
	VPAND   32(DI), Y2, Y2
	NIBPOP(Y2, Y5)
	VPADDB  Y2, Y1, Y1
	VMOVDQU 64(SI), Y3
	VPAND   64(DI), Y3, Y3
	NIBPOP(Y3, Y5)
	VPADDB  Y3, Y1, Y1
	VMOVDQU 96(SI), Y4
	VPAND   96(DI), Y4, Y4
	NIBPOP(Y4, Y5)
	VPADDB  Y4, Y1, Y1
	VPSADBW Y9, Y1, Y1
	VPADDQ  Y1, Y0, Y0
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $16, CX
	JMP     loop16

vec4:
	CMPQ    CX, $4
	JLT     reduce
	VMOVDQU (SI), Y1
	VPAND   (DI), Y1, Y1
	NIBPOP(Y1, Y5)
	VPSADBW Y9, Y1, Y1
	VPADDQ  Y1, Y0, Y0
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     vec4

reduce:
	REDUCE

tail:
	TESTQ   CX, CX
	JZ      done
	MOVQ    (SI), BX
	ANDQ    (DI), BX
	POPCNTQ BX, BX
	ADDQ    BX, AX
	ADDQ    $8, SI
	ADDQ    $8, DI
	DECQ    CX
	JMP     tail

done:
	MOVQ AX, ret+24(FP)
	RET

// func andNotCountWordsAVX2(a, b *uint64, n int) int
//
// Computes popcount(a &^ b). VPANDN in Go operand order is
// VPANDN src2, src1, dst = ^src1 & src2, so the b vector is loaded
// into the src1 slot and a streams through as the memory operand.
TEXT ·andNotCountWordsAVX2(SB), NOSPLIT, $0-32
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ n+16(FP), CX
	KERNELINIT

loop16:
	CMPQ    CX, $16
	JLT     vec4
	VMOVDQU (DI), Y1
	VPANDN  (SI), Y1, Y1
	NIBPOP(Y1, Y5)
	VMOVDQU 32(DI), Y2
	VPANDN  32(SI), Y2, Y2
	NIBPOP(Y2, Y5)
	VPADDB  Y2, Y1, Y1
	VMOVDQU 64(DI), Y3
	VPANDN  64(SI), Y3, Y3
	NIBPOP(Y3, Y5)
	VPADDB  Y3, Y1, Y1
	VMOVDQU 96(DI), Y4
	VPANDN  96(SI), Y4, Y4
	NIBPOP(Y4, Y5)
	VPADDB  Y4, Y1, Y1
	VPSADBW Y9, Y1, Y1
	VPADDQ  Y1, Y0, Y0
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $16, CX
	JMP     loop16

vec4:
	CMPQ    CX, $4
	JLT     reduce
	VMOVDQU (DI), Y1
	VPANDN  (SI), Y1, Y1
	NIBPOP(Y1, Y5)
	VPSADBW Y9, Y1, Y1
	VPADDQ  Y1, Y0, Y0
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     vec4

reduce:
	REDUCE

tail:
	TESTQ   CX, CX
	JZ      done
	MOVQ    (DI), BX
	NOTQ    BX
	ANDQ    (SI), BX
	POPCNTQ BX, BX
	ADDQ    BX, AX
	ADDQ    $8, SI
	ADDQ    $8, DI
	DECQ    CX
	JMP     tail

done:
	MOVQ AX, ret+24(FP)
	RET

// func andIntoAVX2(dst, a, b *uint64, n int) int
//
// dst = a AND b, returning popcount(dst). Each vector is stored
// before NIBPOP destroys it; dst may equal a and/or b because every
// 32-byte block is fully loaded before it is stored (partial overlap
// at a non-zero offset is not supported, matching the Go kernel's
// documented contract).
TEXT ·andIntoAVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DX
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DI
	MOVQ n+24(FP), CX
	KERNELINIT

loop16:
	CMPQ    CX, $16
	JLT     vec4
	VMOVDQU (SI), Y1
	VPAND   (DI), Y1, Y1
	VMOVDQU Y1, (DX)
	NIBPOP(Y1, Y5)
	VMOVDQU 32(SI), Y2
	VPAND   32(DI), Y2, Y2
	VMOVDQU Y2, 32(DX)
	NIBPOP(Y2, Y5)
	VPADDB  Y2, Y1, Y1
	VMOVDQU 64(SI), Y3
	VPAND   64(DI), Y3, Y3
	VMOVDQU Y3, 64(DX)
	NIBPOP(Y3, Y5)
	VPADDB  Y3, Y1, Y1
	VMOVDQU 96(SI), Y4
	VPAND   96(DI), Y4, Y4
	VMOVDQU Y4, 96(DX)
	NIBPOP(Y4, Y5)
	VPADDB  Y4, Y1, Y1
	VPSADBW Y9, Y1, Y1
	VPADDQ  Y1, Y0, Y0
	ADDQ    $128, SI
	ADDQ    $128, DI
	ADDQ    $128, DX
	SUBQ    $16, CX
	JMP     loop16

vec4:
	CMPQ    CX, $4
	JLT     reduce
	VMOVDQU (SI), Y1
	VPAND   (DI), Y1, Y1
	VMOVDQU Y1, (DX)
	NIBPOP(Y1, Y5)
	VPSADBW Y9, Y1, Y1
	VPADDQ  Y1, Y0, Y0
	ADDQ    $32, SI
	ADDQ    $32, DI
	ADDQ    $32, DX
	SUBQ    $4, CX
	JMP     vec4

reduce:
	REDUCE

tail:
	TESTQ   CX, CX
	JZ      done
	MOVQ    (SI), BX
	ANDQ    (DI), BX
	MOVQ    BX, (DX)
	POPCNTQ BX, BX
	ADDQ    BX, AX
	ADDQ    $8, SI
	ADDQ    $8, DI
	ADDQ    $8, DX
	DECQ    CX
	JMP     tail

done:
	MOVQ AX, ret+32(FP)
	RET

// func andNotIntoAVX2(dst, a, b *uint64, n int) int
//
// dst = a AND NOT b, returning popcount(dst). Same structure and
// aliasing contract as andIntoAVX2; same VPANDN operand order as
// andNotCountWordsAVX2.
TEXT ·andNotIntoAVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DX
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DI
	MOVQ n+24(FP), CX
	KERNELINIT

loop16:
	CMPQ    CX, $16
	JLT     vec4
	VMOVDQU (DI), Y1
	VPANDN  (SI), Y1, Y1
	VMOVDQU Y1, (DX)
	NIBPOP(Y1, Y5)
	VMOVDQU 32(DI), Y2
	VPANDN  32(SI), Y2, Y2
	VMOVDQU Y2, 32(DX)
	NIBPOP(Y2, Y5)
	VPADDB  Y2, Y1, Y1
	VMOVDQU 64(DI), Y3
	VPANDN  64(SI), Y3, Y3
	VMOVDQU Y3, 64(DX)
	NIBPOP(Y3, Y5)
	VPADDB  Y3, Y1, Y1
	VMOVDQU 96(DI), Y4
	VPANDN  96(SI), Y4, Y4
	VMOVDQU Y4, 96(DX)
	NIBPOP(Y4, Y5)
	VPADDB  Y4, Y1, Y1
	VPSADBW Y9, Y1, Y1
	VPADDQ  Y1, Y0, Y0
	ADDQ    $128, SI
	ADDQ    $128, DI
	ADDQ    $128, DX
	SUBQ    $16, CX
	JMP     loop16

vec4:
	CMPQ    CX, $4
	JLT     reduce
	VMOVDQU (DI), Y1
	VPANDN  (SI), Y1, Y1
	VMOVDQU Y1, (DX)
	NIBPOP(Y1, Y5)
	VPSADBW Y9, Y1, Y1
	VPADDQ  Y1, Y0, Y0
	ADDQ    $32, SI
	ADDQ    $32, DI
	ADDQ    $32, DX
	SUBQ    $4, CX
	JMP     vec4

reduce:
	REDUCE

tail:
	TESTQ   CX, CX
	JZ      done
	MOVQ    (DI), BX
	NOTQ    BX
	ANDQ    (SI), BX
	MOVQ    BX, (DX)
	POPCNTQ BX, BX
	ADDQ    BX, AX
	ADDQ    $8, SI
	ADDQ    $8, DI
	ADDQ    $8, DX
	DECQ    CX
	JMP     tail

done:
	MOVQ AX, ret+32(FP)
	RET

// func andCountAllAVX2(cols [][]uint64) int
//
// popcount(cols[0] AND cols[1] AND ... AND cols[k-1]) in one pass over
// k = len(cols) >= 2 columns of len(cols[0]) words each (the Go
// wrapper checks the count and the equal lengths). Each stripe loads
// cols[0], then walks the remaining 24-byte slice headers and ANDs
// each column's words in, so the intersection lives only in registers
// and is never stored. Stripe widths and popcount are those of the
// 2-operand kernels: 16 words per main-loop trip, then single vectors,
// then a scalar POPCNTQ tail.
//
// Registers beyond the common plan:
//   R8   &cols[0] (header array)      R11 end of the header array
//   R10  header walk pointer          DI  current column base
//   SI   stripe byte offset, the same in every column
TEXT ·andCountAllAVX2(SB), NOSPLIT, $0-32
	MOVQ cols_base+0(FP), R8
	MOVQ cols_len+8(FP), R11
	LEAQ (R11)(R11*2), R11
	LEAQ (R8)(R11*8), R11
	MOVQ 8(R8), CX
	XORQ SI, SI
	KERNELINIT

loop16:
	CMPQ    CX, $16
	JLT     vec4
	MOVQ    (R8), DI
	VMOVDQU (DI)(SI*1), Y1
	VMOVDQU 32(DI)(SI*1), Y2
	VMOVDQU 64(DI)(SI*1), Y3
	VMOVDQU 96(DI)(SI*1), Y4
	LEAQ    24(R8), R10

and16:
	MOVQ    (R10), DI
	VPAND   (DI)(SI*1), Y1, Y1
	VPAND   32(DI)(SI*1), Y2, Y2
	VPAND   64(DI)(SI*1), Y3, Y3
	VPAND   96(DI)(SI*1), Y4, Y4
	ADDQ    $24, R10
	CMPQ    R10, R11
	JNE     and16
	NIBPOP(Y1, Y5)
	NIBPOP(Y2, Y5)
	VPADDB  Y2, Y1, Y1
	NIBPOP(Y3, Y5)
	VPADDB  Y3, Y1, Y1
	NIBPOP(Y4, Y5)
	VPADDB  Y4, Y1, Y1
	VPSADBW Y9, Y1, Y1
	VPADDQ  Y1, Y0, Y0
	ADDQ    $128, SI
	SUBQ    $16, CX
	JMP     loop16

vec4:
	CMPQ    CX, $4
	JLT     reduce
	MOVQ    (R8), DI
	VMOVDQU (DI)(SI*1), Y1
	LEAQ    24(R8), R10

and4:
	MOVQ    (R10), DI
	VPAND   (DI)(SI*1), Y1, Y1
	ADDQ    $24, R10
	CMPQ    R10, R11
	JNE     and4
	NIBPOP(Y1, Y5)
	VPSADBW Y9, Y1, Y1
	VPADDQ  Y1, Y0, Y0
	ADDQ    $32, SI
	SUBQ    $4, CX
	JMP     vec4

reduce:
	REDUCE

tail:
	TESTQ   CX, CX
	JZ      done
	MOVQ    (R8), DI
	MOVQ    (DI)(SI*1), BX
	LEAQ    24(R8), R10

and1:
	MOVQ    (R10), DI
	ANDQ    (DI)(SI*1), BX
	ADDQ    $24, R10
	CMPQ    R10, R11
	JNE     and1
	POPCNTQ BX, BX
	ADDQ    BX, AX
	ADDQ    $8, SI
	DECQ    CX
	JMP     tail

done:
	MOVQ AX, ret+24(FP)
	RET
