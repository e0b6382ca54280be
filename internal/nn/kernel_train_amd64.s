// AVX2/FMA training kernels for the compiled BPTT path.
// See kernel_train_amd64.go for the contracts.

#include "textflag.h"

// func gemvHiddenAVX2(w, h, z *float64, hidden, width, in int)
//
// Register plan:
//   DI  row base of the current unit's gate-i row, offset to column in
//   SI  h base
//   R8  z cursor
//   R9  units remaining
//   R12 row stride in bytes (width*8)
//   R13 hidden (k-loop trip count, in elements)
//   AX/BX/CX/DX  the four gate-row cursors inside the k loop
//   R14 h cursor, R15 k counter
//   Y0..Y3 gate accumulators, Y4 h vector
TEXT ·gemvHiddenAVX2(SB), NOSPLIT, $0-48
	MOVQ w+0(FP), DI
	MOVQ h+8(FP), SI
	MOVQ z+16(FP), R8
	MOVQ hidden+24(FP), R13
	MOVQ width+32(FP), R12
	MOVQ in+40(FP), R11
	SHLQ $3, R12              // stride = width*8 bytes
	LEAQ (DI)(R11*8), DI      // skip the input columns: start at column in
	MOVQ R13, R9              // units = hidden

unit_loop:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	MOVQ DI, AX               // gate i row
	LEAQ (DI)(R12*1), BX      // gate f row
	LEAQ (DI)(R12*2), CX      // gate g row
	LEAQ (BX)(R12*2), DX      // gate o row
	MOVQ SI, R14
	MOVQ R13, R15
	CMPQ R15, $8
	JLT  tail4

	// Two chunks per iteration with a second accumulator bank
	// (Y5..Y8): a single bank leaves each FMA chain waiting out its
	// own latency — two banks double the dependency distance and let
	// the FMA ports saturate.
k_loop8:
	VMOVUPD (R14), Y4
	VMOVUPD 32(R14), Y9
	VFMADD231PD (AX), Y4, Y0
	VFMADD231PD 32(AX), Y9, Y5
	VFMADD231PD (BX), Y4, Y1
	VFMADD231PD 32(BX), Y9, Y6
	VFMADD231PD (CX), Y4, Y2
	VFMADD231PD 32(CX), Y9, Y7
	VFMADD231PD (DX), Y4, Y3
	VFMADD231PD 32(DX), Y9, Y8
	ADDQ $64, R14
	ADDQ $64, AX
	ADDQ $64, BX
	ADDQ $64, CX
	ADDQ $64, DX
	SUBQ $8, R15
	CMPQ R15, $8
	JGE  k_loop8

	TESTQ R15, R15
	JZ   combine

	// hidden is a multiple of 4, so at most one 4-wide chunk remains.
tail4:
	VMOVUPD (R14), Y4
	VFMADD231PD (AX), Y4, Y0
	VFMADD231PD (BX), Y4, Y1
	VFMADD231PD (CX), Y4, Y2
	VFMADD231PD (DX), Y4, Y3

combine:
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y1, Y1
	VADDPD Y7, Y2, Y2
	VADDPD Y8, Y3, Y3

	// Reduce each YMM accumulator to a scalar and add into z.
	VEXTRACTF128 $1, Y0, X4
	VADDPD X4, X0, X0
	VHADDPD X0, X0, X0
	VADDSD (R8), X0, X0
	VMOVSD X0, (R8)
	VEXTRACTF128 $1, Y1, X4
	VADDPD X4, X1, X1
	VHADDPD X1, X1, X1
	VADDSD 8(R8), X1, X1
	VMOVSD X1, 8(R8)
	VEXTRACTF128 $1, Y2, X4
	VADDPD X4, X2, X2
	VHADDPD X2, X2, X2
	VADDSD 16(R8), X2, X2
	VMOVSD X2, 16(R8)
	VEXTRACTF128 $1, Y3, X4
	VADDPD X4, X3, X3
	VHADDPD X3, X3, X3
	VADDSD 24(R8), X3, X3
	VMOVSD X3, 24(R8)

	ADDQ $32, R8              // z advances four gates per unit
	LEAQ (DI)(R12*4), DI      // next unit's gate-i row
	DECQ R9
	JNZ  unit_loop

	VZEROUPPER
	RET

// func dotRows4AVX2(w, x, y *float64, groups, cols, stride int)
//
// Same register plan and two-bank accumulator scheme as
// gemvHiddenAVX2 above, minus the input-column offset:
// rows start at w itself and advance by stride.
//   DI  base of the current group's first row
//   SI  x base
//   R8  y cursor
//   R9  groups remaining
//   R12 row stride in bytes (stride*8)
//   R13 cols (k-loop trip count, in elements)
//   AX/BX/CX/DX  the four row cursors inside the k loop
//   R14 x cursor, R15 k counter
TEXT ·dotRows4AVX2(SB), NOSPLIT, $0-48
	MOVQ w+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), R8
	MOVQ groups+24(FP), R9
	MOVQ cols+32(FP), R13
	MOVQ stride+40(FP), R12
	SHLQ $3, R12              // stride in bytes

group_loop:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	MOVQ DI, AX               // row 4g
	LEAQ (DI)(R12*1), BX      // row 4g+1
	LEAQ (DI)(R12*2), CX      // row 4g+2
	LEAQ (BX)(R12*2), DX      // row 4g+3
	MOVQ SI, R14
	MOVQ R13, R15
	CMPQ R15, $8
	JLT  tail4

	// Two chunks per iteration with a second accumulator bank, exactly
	// as in the inference GEMV: doubles the FMA dependency distance.
k_loop8:
	VMOVUPD (R14), Y4
	VMOVUPD 32(R14), Y9
	VFMADD231PD (AX), Y4, Y0
	VFMADD231PD 32(AX), Y9, Y5
	VFMADD231PD (BX), Y4, Y1
	VFMADD231PD 32(BX), Y9, Y6
	VFMADD231PD (CX), Y4, Y2
	VFMADD231PD 32(CX), Y9, Y7
	VFMADD231PD (DX), Y4, Y3
	VFMADD231PD 32(DX), Y9, Y8
	ADDQ $64, R14
	ADDQ $64, AX
	ADDQ $64, BX
	ADDQ $64, CX
	ADDQ $64, DX
	SUBQ $8, R15
	CMPQ R15, $8
	JGE  k_loop8

	TESTQ R15, R15
	JZ   combine

	// cols is a multiple of 4, so at most one 4-wide chunk remains.
tail4:
	VMOVUPD (R14), Y4
	VFMADD231PD (AX), Y4, Y0
	VFMADD231PD (BX), Y4, Y1
	VFMADD231PD (CX), Y4, Y2
	VFMADD231PD (DX), Y4, Y3

combine:
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y1, Y1
	VADDPD Y7, Y2, Y2
	VADDPD Y8, Y3, Y3

	// Reduce each YMM accumulator to a scalar and add into y.
	VEXTRACTF128 $1, Y0, X4
	VADDPD X4, X0, X0
	VHADDPD X0, X0, X0
	VADDSD (R8), X0, X0
	VMOVSD X0, (R8)
	VEXTRACTF128 $1, Y1, X4
	VADDPD X4, X1, X1
	VHADDPD X1, X1, X1
	VADDSD 8(R8), X1, X1
	VMOVSD X1, 8(R8)
	VEXTRACTF128 $1, Y2, X4
	VADDPD X4, X2, X2
	VHADDPD X2, X2, X2
	VADDSD 16(R8), X2, X2
	VMOVSD X2, 16(R8)
	VEXTRACTF128 $1, Y3, X4
	VADDPD X4, X3, X3
	VHADDPD X3, X3, X3
	VADDSD 24(R8), X3, X3
	VMOVSD X3, 24(R8)

	ADDQ $32, R8              // y advances four rows per group
	LEAQ (DI)(R12*4), DI      // next group's first row
	DECQ R9
	JNZ  group_loop

	VZEROUPPER
	RET

// func deferredRank1AVX2(gw, x, a *float64, rows, cols, steps, gwStride, xStride, aStride int)
//
// A register-tiled GEMM accumulate: gw (rows x cols, row-major with
// stride) += a^T (rows x steps, column 'r' strided) times x (steps x
// cols, row-major with stride). The tile is 4 gw rows x 8 gw columns
// held in Y0..Y7 across the whole t loop; per step that costs two x
// loads, four a broadcasts, and eight independent FMA chains — enough
// to keep both FMA ports busy while gw itself never leaves registers.
//
//   DI   gw base of the current 4-row group
//   R9   row groups remaining
//   R12  gw row stride in bytes
//   R10  x row stride in bytes
//   R11  a row stride in bytes
//   SI   columns remaining in this row group
//   R8   current column byte offset
//   AX/BX/CX/DX  the four gw row pointers of the tile
//   R14  x cursor, R15 a cursor, R13 t counter
//   0(SP) current row group's byte offset into a's rows (r*8)
TEXT ·deferredRank1AVX2(SB), NOSPLIT, $8-72
	MOVQ gw+0(FP), DI
	MOVQ rows+24(FP), R9
	SHRQ $2, R9               // 4-row groups
	MOVQ gwStride+48(FP), R12
	SHLQ $3, R12
	MOVQ xStride+56(FP), R10
	SHLQ $3, R10
	MOVQ aStride+64(FP), R11
	SHLQ $3, R11
	MOVQ $0, 0(SP)

dr_rowq_loop:
	MOVQ cols+32(FP), SI
	XORQ R8, R8

dr_col_loop:
	CMPQ SI, $8
	JLT  dr_tile4

	// 8-column tile: load the 4x8 gw block into Y0..Y7.
	LEAQ (DI)(R8*1), AX
	LEAQ (AX)(R12*1), BX
	LEAQ (AX)(R12*2), CX
	LEAQ (BX)(R12*2), DX
	VMOVUPD (AX), Y0
	VMOVUPD 32(AX), Y1
	VMOVUPD (BX), Y2
	VMOVUPD 32(BX), Y3
	VMOVUPD (CX), Y4
	VMOVUPD 32(CX), Y5
	VMOVUPD (DX), Y6
	VMOVUPD 32(DX), Y7
	MOVQ x+8(FP), R14
	ADDQ R8, R14
	MOVQ a+16(FP), R15
	ADDQ 0(SP), R15
	MOVQ steps+40(FP), R13

dr_t8_loop:
	VMOVUPD (R14), Y8
	VMOVUPD 32(R14), Y9
	VBROADCASTSD (R15), Y10
	VFMADD231PD Y8, Y10, Y0
	VFMADD231PD Y9, Y10, Y1
	VBROADCASTSD 8(R15), Y10
	VFMADD231PD Y8, Y10, Y2
	VFMADD231PD Y9, Y10, Y3
	VBROADCASTSD 16(R15), Y10
	VFMADD231PD Y8, Y10, Y4
	VFMADD231PD Y9, Y10, Y5
	VBROADCASTSD 24(R15), Y10
	VFMADD231PD Y8, Y10, Y6
	VFMADD231PD Y9, Y10, Y7
	ADDQ R10, R14
	ADDQ R11, R15
	DECQ R13
	JNZ  dr_t8_loop

	VMOVUPD Y0, (AX)
	VMOVUPD Y1, 32(AX)
	VMOVUPD Y2, (BX)
	VMOVUPD Y3, 32(BX)
	VMOVUPD Y4, (CX)
	VMOVUPD Y5, 32(CX)
	VMOVUPD Y6, (DX)
	VMOVUPD Y7, 32(DX)
	ADDQ $64, R8
	SUBQ $8, SI
	JNZ  dr_col_loop
	JMP  dr_rowq_next

	// cols is a multiple of 4, so the tail is one 4-column tile.
dr_tile4:
	LEAQ (DI)(R8*1), AX
	LEAQ (AX)(R12*1), BX
	LEAQ (AX)(R12*2), CX
	LEAQ (BX)(R12*2), DX
	VMOVUPD (AX), Y0
	VMOVUPD (BX), Y2
	VMOVUPD (CX), Y4
	VMOVUPD (DX), Y6
	MOVQ x+8(FP), R14
	ADDQ R8, R14
	MOVQ a+16(FP), R15
	ADDQ 0(SP), R15
	MOVQ steps+40(FP), R13

dr_t4_loop:
	VMOVUPD (R14), Y8
	VBROADCASTSD (R15), Y10
	VFMADD231PD Y8, Y10, Y0
	VBROADCASTSD 8(R15), Y10
	VFMADD231PD Y8, Y10, Y2
	VBROADCASTSD 16(R15), Y10
	VFMADD231PD Y8, Y10, Y4
	VBROADCASTSD 24(R15), Y10
	VFMADD231PD Y8, Y10, Y6
	ADDQ R10, R14
	ADDQ R11, R15
	DECQ R13
	JNZ  dr_t4_loop

	VMOVUPD Y0, (AX)
	VMOVUPD Y2, (BX)
	VMOVUPD Y4, (CX)
	VMOVUPD Y6, (DX)

dr_rowq_next:
	LEAQ (DI)(R12*4), DI
	ADDQ $32, 0(SP)           // next group starts four a-rows later
	DECQ R9
	JNZ  dr_rowq_loop

	VZEROUPPER
	RET
