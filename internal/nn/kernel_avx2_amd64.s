// AVX2/FMA LSTM step for the compiled inference path, plus the CPU
// feature probes. See kernel_avx2_amd64.go for the contracts.

#include "textflag.h"

// func cpuidx(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidx(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (low, high uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, low+0(FP)
	MOVL DX, high+4(FP)
	RET

// Every constant is stored four times so it can be a 256-bit memory
// operand (AVX2 has no embedded broadcast). C2..C12 are 1/n!, the
// Taylor coefficients of exp; LN2HI/LN2LO is fdlibm's split of ln 2;
// adding SHIFTER (1.5 * 2^52) rounds to an integer held in the low
// mantissa bits. The clamps are those of act4 (fastmath.go).
DATA stepconst<>+0(SB)/8, $0x3ff0000000000000
DATA stepconst<>+8(SB)/8, $0x3ff0000000000000
DATA stepconst<>+16(SB)/8, $0x3ff0000000000000
DATA stepconst<>+24(SB)/8, $0x3ff0000000000000
DATA stepconst<>+32(SB)/8, $0xbff0000000000000
DATA stepconst<>+40(SB)/8, $0xbff0000000000000
DATA stepconst<>+48(SB)/8, $0xbff0000000000000
DATA stepconst<>+56(SB)/8, $0xbff0000000000000
DATA stepconst<>+64(SB)/8, $0xc000000000000000
DATA stepconst<>+72(SB)/8, $0xc000000000000000
DATA stepconst<>+80(SB)/8, $0xc000000000000000
DATA stepconst<>+88(SB)/8, $0xc000000000000000
DATA stepconst<>+96(SB)/8, $0xc085e00000000000
DATA stepconst<>+104(SB)/8, $0xc085e00000000000
DATA stepconst<>+112(SB)/8, $0xc085e00000000000
DATA stepconst<>+120(SB)/8, $0xc085e00000000000
DATA stepconst<>+128(SB)/8, $0x4085e00000000000
DATA stepconst<>+136(SB)/8, $0x4085e00000000000
DATA stepconst<>+144(SB)/8, $0x4085e00000000000
DATA stepconst<>+152(SB)/8, $0x4085e00000000000
DATA stepconst<>+160(SB)/8, $0xc04311eb851eb852
DATA stepconst<>+168(SB)/8, $0xc04311eb851eb852
DATA stepconst<>+176(SB)/8, $0xc04311eb851eb852
DATA stepconst<>+184(SB)/8, $0xc04311eb851eb852
DATA stepconst<>+192(SB)/8, $0x404311eb851eb852
DATA stepconst<>+200(SB)/8, $0x404311eb851eb852
DATA stepconst<>+208(SB)/8, $0x404311eb851eb852
DATA stepconst<>+216(SB)/8, $0x404311eb851eb852
DATA stepconst<>+224(SB)/8, $0x3ff71547652b82fe
DATA stepconst<>+232(SB)/8, $0x3ff71547652b82fe
DATA stepconst<>+240(SB)/8, $0x3ff71547652b82fe
DATA stepconst<>+248(SB)/8, $0x3ff71547652b82fe
DATA stepconst<>+256(SB)/8, $0x4338000000000000
DATA stepconst<>+264(SB)/8, $0x4338000000000000
DATA stepconst<>+272(SB)/8, $0x4338000000000000
DATA stepconst<>+280(SB)/8, $0x4338000000000000
DATA stepconst<>+288(SB)/8, $0x3fe62e42fee00000
DATA stepconst<>+296(SB)/8, $0x3fe62e42fee00000
DATA stepconst<>+304(SB)/8, $0x3fe62e42fee00000
DATA stepconst<>+312(SB)/8, $0x3fe62e42fee00000
DATA stepconst<>+320(SB)/8, $0x3dea39ef35793c76
DATA stepconst<>+328(SB)/8, $0x3dea39ef35793c76
DATA stepconst<>+336(SB)/8, $0x3dea39ef35793c76
DATA stepconst<>+344(SB)/8, $0x3dea39ef35793c76
DATA stepconst<>+352(SB)/8, $0x3fe0000000000000
DATA stepconst<>+360(SB)/8, $0x3fe0000000000000
DATA stepconst<>+368(SB)/8, $0x3fe0000000000000
DATA stepconst<>+376(SB)/8, $0x3fe0000000000000
DATA stepconst<>+384(SB)/8, $0x3fc5555555555555
DATA stepconst<>+392(SB)/8, $0x3fc5555555555555
DATA stepconst<>+400(SB)/8, $0x3fc5555555555555
DATA stepconst<>+408(SB)/8, $0x3fc5555555555555
DATA stepconst<>+416(SB)/8, $0x3fa5555555555555
DATA stepconst<>+424(SB)/8, $0x3fa5555555555555
DATA stepconst<>+432(SB)/8, $0x3fa5555555555555
DATA stepconst<>+440(SB)/8, $0x3fa5555555555555
DATA stepconst<>+448(SB)/8, $0x3f81111111111111
DATA stepconst<>+456(SB)/8, $0x3f81111111111111
DATA stepconst<>+464(SB)/8, $0x3f81111111111111
DATA stepconst<>+472(SB)/8, $0x3f81111111111111
DATA stepconst<>+480(SB)/8, $0x3f56c16c16c16c17
DATA stepconst<>+488(SB)/8, $0x3f56c16c16c16c17
DATA stepconst<>+496(SB)/8, $0x3f56c16c16c16c17
DATA stepconst<>+504(SB)/8, $0x3f56c16c16c16c17
DATA stepconst<>+512(SB)/8, $0x3f2a01a01a01a01a
DATA stepconst<>+520(SB)/8, $0x3f2a01a01a01a01a
DATA stepconst<>+528(SB)/8, $0x3f2a01a01a01a01a
DATA stepconst<>+536(SB)/8, $0x3f2a01a01a01a01a
DATA stepconst<>+544(SB)/8, $0x3efa01a01a01a01a
DATA stepconst<>+552(SB)/8, $0x3efa01a01a01a01a
DATA stepconst<>+560(SB)/8, $0x3efa01a01a01a01a
DATA stepconst<>+568(SB)/8, $0x3efa01a01a01a01a
DATA stepconst<>+576(SB)/8, $0x3ec71de3a556c734
DATA stepconst<>+584(SB)/8, $0x3ec71de3a556c734
DATA stepconst<>+592(SB)/8, $0x3ec71de3a556c734
DATA stepconst<>+600(SB)/8, $0x3ec71de3a556c734
DATA stepconst<>+608(SB)/8, $0x3e927e4fb7789f5c
DATA stepconst<>+616(SB)/8, $0x3e927e4fb7789f5c
DATA stepconst<>+624(SB)/8, $0x3e927e4fb7789f5c
DATA stepconst<>+632(SB)/8, $0x3e927e4fb7789f5c
DATA stepconst<>+640(SB)/8, $0x3e5ae64567f544e4
DATA stepconst<>+648(SB)/8, $0x3e5ae64567f544e4
DATA stepconst<>+656(SB)/8, $0x3e5ae64567f544e4
DATA stepconst<>+664(SB)/8, $0x3e5ae64567f544e4
DATA stepconst<>+672(SB)/8, $0x3e21eed8eff8d898
DATA stepconst<>+680(SB)/8, $0x3e21eed8eff8d898
DATA stepconst<>+688(SB)/8, $0x3e21eed8eff8d898
DATA stepconst<>+696(SB)/8, $0x3e21eed8eff8d898
GLOBL stepconst<>(SB), RODATA|NOPTR, $704

#define ONE stepconst<>+0(SB)
#define NEGONE stepconst<>+32(SB)
#define NEGTWO stepconst<>+64(SB)
#define SIGLO stepconst<>+96(SB)
#define SIGHI stepconst<>+128(SB)
#define TANHLO stepconst<>+160(SB)
#define TANHHI stepconst<>+192(SB)
#define INVLN2 stepconst<>+224(SB)
#define SHIFTER stepconst<>+256(SB)
#define LN2HI stepconst<>+288(SB)
#define LN2LO stepconst<>+320(SB)
#define C2 stepconst<>+352(SB)
#define C3 stepconst<>+384(SB)
#define C4 stepconst<>+416(SB)
#define C5 stepconst<>+448(SB)
#define C6 stepconst<>+480(SB)
#define C7 stepconst<>+512(SB)
#define C8 stepconst<>+544(SB)
#define C9 stepconst<>+576(SB)
#define C10 stepconst<>+608(SB)
#define C11 stepconst<>+640(SB)
#define C12 stepconst<>+672(SB)

// EXPV sets r := exp(r) in each lane, for |r| <= 700 (callers clamp).
// The exponent is split as r = k*ln2 + s with integer k and
// |s| <= ln2/2; 2^k is built directly in the exponent bits of Y10, and
// e^s is a degree-12 Taylor polynomial evaluated by Estrin's scheme
// (truncation error ~2e-16 relative). NaN propagates through s.
// Clobbers Y10..Y15.
#define EXPV(r) \
	VMOVUPD SHIFTER, Y10; \
	VFMADD231PD INVLN2, r, Y10; \
	VSUBPD SHIFTER, Y10, Y11; \
	VPSLLQ $52, Y10, Y10; \
	VPADDQ ONE, Y10, Y10; \
	VFNMADD231PD LN2HI, Y11, r; \
	VFNMADD231PD LN2LO, Y11, r; \
	VMULPD r, r, Y12; \
	VADDPD ONE, r, Y14; \
	VMOVUPD C3, Y15; \
	VFMADD213PD C2, r, Y15; \
	VFMADD231PD Y12, Y15, Y14; \
	VMOVUPD C5, Y15; \
	VFMADD213PD C4, r, Y15; \
	VMOVUPD C7, Y11; \
	VFMADD213PD C6, r, Y11; \
	VFMADD231PD Y12, Y11, Y15; \
	VMULPD Y12, Y12, Y13; \
	VFMADD231PD Y13, Y15, Y14; \
	VMOVUPD C9, Y15; \
	VFMADD213PD C8, r, Y15; \
	VMOVUPD C11, Y11; \
	VFMADD213PD C10, r, Y11; \
	VFMADD231PD Y12, Y11, Y15; \
	VMOVUPD C12, Y11; \
	VFMADD213PD Y15, Y13, Y11; \
	VMULPD Y13, Y13, Y12; \
	VFMADD231PD Y12, Y11, Y14; \
	VMULPD Y10, Y14, r

// CLAMP bounds r to [lo, hi]. r is the second source of VMAXPD/VMINPD,
// which is the operand they return when either input is NaN, so NaN
// passes through.
#define CLAMP(r, lo, hi) \
	VMOVUPD lo, Y10; \
	VMAXPD r, Y10, r; \
	VMOVUPD hi, Y10; \
	VMINPD r, Y10, r

// SIGMOIDV sets r := 1/(1+exp(-r)) in each lane. Clobbers Y10..Y15.
#define SIGMOIDV(r) \
	VMULPD NEGONE, r, r; \
	CLAMP(r, SIGLO, SIGHI); \
	EXPV(r); \
	VADDPD ONE, r, r; \
	VMOVUPD ONE, Y10; \
	VDIVPD r, Y10, r

// TANHV sets r := tanh(r) = (1-e)/(1+e) with e = exp(-2r) in each lane.
// At the clamp the quotient rounds to exactly +-1, as math.Tanh does.
// Clobbers Y10..Y15.
#define TANHV(r) \
	VMULPD NEGTWO, r, r; \
	CLAMP(r, TANHLO, TANHHI); \
	EXPV(r); \
	VMOVUPD ONE, Y10; \
	VSUBPD r, Y10, Y10; \
	VADDPD ONE, r, r; \
	VDIVPD r, Y10, r

// func lstmStepAVX2(w, b, xh, z, h, c *float64, blocks, width int)
//
// Two passes over the blocks. The first streams the weights and stores
// each block's 16 gate pre-activations to z; the second loads them back
// and runs the activations. Kept apart, the activation chains of
// adjacent blocks sit close enough in the instruction stream for the
// out-of-order core to overlap them, which a 180-instruction
// multiply-add loop between them prevents (measured ~8% faster per
// forecast than one pass).
//
// Register plan:
//   DI  weight cursor: one block is width columns of 16 weights
//   SI  bias cursor, 16 per block
//   BX  z cursor, 16 per block
//   DX  xh base; AX xh cursor and CX columns left inside a block
//   R8  h cursor, R9 c cursor: 4 units per block
//   R10 blocks left, R11 width
//   Y0..Y3  gate accumulators (i, f, g, o) of 4 units: even columns
//   Y4..Y7  the same for odd columns; two banks keep eight FMA chains
//           in flight, enough to hide the FMA latency
//   Y8, Y9  broadcast column values
//   Y10..Y15 activation temporaries
TEXT ·lstmStepAVX2(SB), NOSPLIT, $0-64
	MOVQ w+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ xh+16(FP), DX
	MOVQ z+24(FP), BX
	MOVQ h+32(FP), R8
	MOVQ c+40(FP), R9
	MOVQ blocks+48(FP), R10
	MOVQ width+56(FP), R11

block_loop:
	VMOVUPD 0(SI), Y0
	VMOVUPD 32(SI), Y1
	VMOVUPD 64(SI), Y2
	VMOVUPD 96(SI), Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ DX, AX
	MOVQ R11, CX
	CMPQ CX, $2
	JLT  col_tail

col_loop:
	VBROADCASTSD (AX), Y8
	VBROADCASTSD 8(AX), Y9
	VFMADD231PD 0(DI), Y8, Y0
	VFMADD231PD 32(DI), Y8, Y1
	VFMADD231PD 64(DI), Y8, Y2
	VFMADD231PD 96(DI), Y8, Y3
	VFMADD231PD 128(DI), Y9, Y4
	VFMADD231PD 160(DI), Y9, Y5
	VFMADD231PD 192(DI), Y9, Y6
	VFMADD231PD 224(DI), Y9, Y7
	ADDQ $16, AX
	ADDQ $256, DI
	SUBQ $2, CX
	CMPQ CX, $2
	JGE  col_loop

col_tail:
	TESTQ CX, CX
	JZ    gates
	VBROADCASTSD (AX), Y8
	VFMADD231PD 0(DI), Y8, Y0
	VFMADD231PD 32(DI), Y8, Y1
	VFMADD231PD 64(DI), Y8, Y2
	VFMADD231PD 96(DI), Y8, Y3
	ADDQ $128, DI

gates:
	VADDPD Y4, Y0, Y0
	VADDPD Y5, Y1, Y1
	VADDPD Y6, Y2, Y2
	VADDPD Y7, Y3, Y3
	VMOVUPD Y0, 0(BX)
	VMOVUPD Y1, 32(BX)
	VMOVUPD Y2, 64(BX)
	VMOVUPD Y3, 96(BX)
	ADDQ $128, SI
	ADDQ $128, BX
	DECQ R10
	JNZ  block_loop

	MOVQ z+24(FP), BX
	MOVQ blocks+48(FP), R10

act_loop:
	VMOVUPD 0(BX), Y0
	VMOVUPD 32(BX), Y1
	VMOVUPD 64(BX), Y2
	VMOVUPD 96(BX), Y3
	SIGMOIDV(Y0)
	SIGMOIDV(Y1)
	TANHV(Y2)
	SIGMOIDV(Y3)

	// c = f*c + i*g; h = o*tanh(c)
	VMULPD Y2, Y0, Y0
	VFMADD231PD (R9), Y1, Y0
	VMOVUPD Y0, (R9)
	TANHV(Y0)
	VMULPD Y3, Y0, Y0
	VMOVUPD Y0, (R8)

	ADDQ $128, BX
	ADDQ $32, R8
	ADDQ $32, R9
	DECQ R10
	JNZ  act_loop

	VZEROUPPER
	RET
