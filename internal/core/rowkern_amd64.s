#include "textflag.h"

// AVX2 bodies of the row kernels in rowkern.go. Every lane computes exactly
// what the Go body computes for its cell, with the same operations in the
// same order and no FMA: VMULPD, VADDPD and VDIVPD round each lane as MULSD,
// ADDSD and DIVSD round a scalar.

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	MOVL   DX, edx+4(FP)
	RET

// func blendAVX2(dst, src []float64, own, other float64)
//
// dst[k] = own·dst[k] + other·src[k]; len(dst) is a multiple of 4 and src
// is as long. Sixteen cells per step, then four.
TEXT ·blendAVX2(SB), NOSPLIT, $0-64
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         src_base+24(FP), SI
	VBROADCASTSD own+48(FP), Y0
	VBROADCASTSD other+56(FP), Y1
	LEAQ         (DI)(CX*8), BX // end of dst
	ANDQ         $-16, CX
	LEAQ         (DI)(CX*8), R8 // end of the sixteen-cell steps

blend16:
	CMPQ    DI, R8
	JEQ     blend4
	VMULPD  (DI), Y0, Y2
	VMULPD  32(DI), Y0, Y3
	VMULPD  64(DI), Y0, Y4
	VMULPD  96(DI), Y0, Y5
	VMULPD  (SI), Y1, Y6
	VMULPD  32(SI), Y1, Y7
	VMULPD  64(SI), Y1, Y8
	VMULPD  96(SI), Y1, Y9
	VADDPD  Y2, Y6, Y6
	VADDPD  Y3, Y7, Y7
	VADDPD  Y4, Y8, Y8
	VADDPD  Y5, Y9, Y9
	VMOVUPD Y6, (DI)
	VMOVUPD Y7, 32(DI)
	VMOVUPD Y8, 64(DI)
	VMOVUPD Y9, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	JMP     blend16

blend4:
	CMPQ    DI, BX
	JEQ     blendDone
	VMULPD  (DI), Y0, Y2
	VMULPD  (SI), Y1, Y6
	VADDPD  Y2, Y6, Y6
	VMOVUPD Y6, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	JMP     blend4

blendDone:
	VZEROUPPER
	RET

// func colSumsAVX2(cs, row []float64)
//
// cs[c] += row[t·C+c] in slot order, C = len(cs) a multiple of 4, row a
// whole number of four-slot blocks. Each block adds its four slots to one
// four-cluster chunk of cs at a time, in slot order.
TEXT ·colSumsAVX2(SB), NOSPLIT, $0-48
	MOVQ cs_base+0(FP), DI
	MOVQ cs_len+8(FP), CX
	MOVQ row_base+24(FP), SI
	MOVQ row_len+32(FP), BX
	SHLQ $3, CX              // slot stride in bytes
	LEAQ (SI)(BX*8), BX      // end of row
	LEAQ (CX)(CX*2), R8      // three slot strides
	LEAQ (DI)(CX*1), R9      // end of cs

colBlock:
	CMPQ SI, BX
	JEQ  colDone
	MOVQ DI, R10             // cluster chunk of cs
	MOVQ SI, R11             // the block's first slot, at that chunk

colChunk:
	VMOVUPD (R10), Y0
	VADDPD  (R11), Y0, Y0
	VADDPD  (R11)(CX*1), Y0, Y0
	VADDPD  (R11)(CX*2), Y0, Y0
	VADDPD  (R11)(R8*1), Y0, Y0
	VMOVUPD Y0, (R10)
	ADDQ    $32, R10
	ADDQ    $32, R11
	CMPQ    R10, R9
	JNE     colChunk
	LEAQ    (SI)(CX*4), SI
	JMP     colBlock

colDone:
	VZEROUPPER
	RET

// RESCALE_CHUNK rescales one four-cluster chunk of four slots, the first
// at p, by inv in Y15, stores the products, adds them to the cluster
// marginal chunk in Y0 in slot order, and adds them to the four slots' time
// marginals in acc in cluster order. The time marginals take the chunk
// transposed: two-cluster halves of slots 0 and 2 and of slots 1 and 3
// reload from the stored products into one register each, and unpacking
// the pair yields one cluster across the four slots. CX is the slot stride
// in bytes and R8 three strides.
#define RESCALE_CHUNK(p, acc) \
	VMULPD      (p), Y15, Y3; \
	VMULPD      (p)(CX*1), Y15, Y4; \
	VMULPD      (p)(CX*2), Y15, Y5; \
	VMULPD      (p)(R8*1), Y15, Y6; \
	VMOVUPD     Y3, (p); \
	VMOVUPD     Y4, (p)(CX*1); \
	VMOVUPD     Y5, (p)(CX*2); \
	VMOVUPD     Y6, (p)(R8*1); \
	VADDPD      Y3, Y0, Y0; \
	VADDPD      Y4, Y0, Y0; \
	VADDPD      Y5, Y0, Y0; \
	VADDPD      Y6, Y0, Y0; \
	VMOVUPD     (p), X3; \
	VINSERTF128 $1, (p)(CX*2), Y3, Y3; \
	VMOVUPD     (p)(CX*1), X4; \
	VINSERTF128 $1, (p)(R8*1), Y4, Y4; \
	VUNPCKLPD   Y4, Y3, Y5; \
	VUNPCKHPD   Y4, Y3, Y6; \
	VMOVUPD     16(p), X3; \
	VINSERTF128 $1, 16(p)(CX*2), Y3, Y3; \
	VMOVUPD     16(p)(CX*1), X4; \
	VINSERTF128 $1, 16(p)(R8*1), Y4, Y4; \
	VUNPCKLPD   Y4, Y3, Y7; \
	VUNPCKHPD   Y4, Y3, Y8; \
	VADDPD      Y5, acc, acc; \
	VADDPD      Y6, acc, acc; \
	VADDPD      Y7, acc, acc; \
	VADDPD      Y8, acc, acc

// func rescaleAVX2(cs, ts, row []float64, inv float64)
//
// w = row[t·C+c]·inv, stored; cs[c] += w in slot order; ts[t] = 0 + w(t,0)
// + w(t,1) + … in cluster order. C = len(cs) is a multiple of 4 and
// len(ts) of 4; row holds len(ts) slots. Blocks of eight slots keep eight
// time-marginal chains in flight; a last block of four takes the rest.
TEXT ·rescaleAVX2(SB), NOSPLIT, $0-80
	MOVQ         cs_base+0(FP), DI
	MOVQ         cs_len+8(FP), CX
	MOVQ         ts_base+24(FP), DX
	MOVQ         ts_len+32(FP), BX
	MOVQ         row_base+48(FP), SI
	VBROADCASTSD inv+72(FP), Y15
	SHLQ         $3, CX          // slot stride in bytes
	LEAQ         (CX)(CX*2), R8  // three slot strides
	LEAQ         (DI)(CX*1), R9  // end of cs
	MOVQ         BX, R13
	ANDQ         $-8, R13
	LEAQ         (DX)(R13*8), R13 // end of the eight-slot blocks in ts
	LEAQ         (DX)(BX*8), BX   // end of ts

rescale8:
	CMPQ   DX, R13
	JEQ    rescale4
	VXORPD Y1, Y1, Y1           // time marginals of slots 0-3
	VXORPD Y2, Y2, Y2           // time marginals of slots 4-7
	MOVQ   DI, R10
	MOVQ   SI, R11
	LEAQ   (SI)(CX*4), R12

rescale8Chunk:
	VMOVUPD (R10), Y0
	RESCALE_CHUNK(R11, Y1)
	RESCALE_CHUNK(R12, Y2)
	VMOVUPD Y0, (R10)
	ADDQ    $32, R10
	ADDQ    $32, R11
	ADDQ    $32, R12
	CMPQ    R10, R9
	JNE     rescale8Chunk
	VMOVUPD Y1, (DX)
	VMOVUPD Y2, 32(DX)
	ADDQ    $64, DX
	LEAQ    (SI)(CX*8), SI
	JMP     rescale8

rescale4:
	CMPQ   DX, BX
	JEQ    rescaleDone
	VXORPD Y1, Y1, Y1
	MOVQ   DI, R10
	MOVQ   SI, R11

rescale4Chunk:
	VMOVUPD (R10), Y0
	RESCALE_CHUNK(R11, Y1)
	VMOVUPD Y0, (R10)
	ADDQ    $32, R10
	ADDQ    $32, R11
	CMPQ    R10, R9
	JNE     rescale4Chunk
	VMOVUPD Y1, (DX)

rescaleDone:
	VZEROUPPER
	RET

// func mulColsAVX2(row, f []float64)
//
// row[t·C+c] *= f[c], C = len(f) a multiple of 4 and row whole slots.
TEXT ·mulColsAVX2(SB), NOSPLIT, $0-48
	MOVQ row_base+0(FP), DI
	MOVQ row_len+8(FP), BX
	MOVQ f_base+24(FP), SI
	MOVQ f_len+32(FP), CX
	LEAQ (DI)(BX*8), BX         // end of row
	LEAQ (SI)(CX*8), CX         // end of f
	MOVQ SI, DX

mulLoop:
	CMPQ    DI, BX
	JEQ     mulDone
	VMOVUPD (DI), Y0
	VMULPD  (DX), Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, DX
	CMPQ    DX, CX
	JNE     mulLoop
	MOVQ    SI, DX
	JMP     mulLoop

mulDone:
	VZEROUPPER
	RET

// func divColsAVX2(row, d []float64)
//
// row[t·C+c] /= d[c], C = len(d) a multiple of 4 and row whole slots.
TEXT ·divColsAVX2(SB), NOSPLIT, $0-48
	MOVQ row_base+0(FP), DI
	MOVQ row_len+8(FP), BX
	MOVQ d_base+24(FP), SI
	MOVQ d_len+32(FP), CX
	LEAQ (DI)(BX*8), BX         // end of row
	LEAQ (SI)(CX*8), CX         // end of d
	MOVQ SI, DX

divLoop:
	CMPQ    DI, BX
	JEQ     divDone
	VMOVUPD (DI), Y0
	VDIVPD  (DX), Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, DX
	CMPQ    DX, CX
	JNE     divLoop
	MOVQ    SI, DX
	JMP     divLoop

divDone:
	VZEROUPPER
	RET
