package kernel

import (
	"abmm/internal/cpu"
	"abmm/internal/matrix"
)

// Packing: the cache-blocked outer loops copy operand blocks into
// contiguous micro-panel buffers once per block, so the micro-kernel's
// k loop reads both operands with unit stride regardless of the source
// strides, and every edge tile is zero-padded to the full MR×NR shape
// (the padding lanes multiply against zeros and the write-out masks
// them off, so ragged shapes never reach the unrolled loop).
//
// Both pack routines take the operand as a list of (coefficient,
// source) terms rather than a single matrix: the linear combination
// Σ cᵢ·Mᵢ is formed while the block is being copied into the panel.
// This is the fusion move from the Strassen-BLIS line of work — the
// bilinear encode S_r = Σ u_ir·A_i and T_r = Σ v_ir·B_i cost no extra
// memory sweep, because the packing sweep was already paying for the
// pass over the block. A single {1, M} term is a plain pack.
//
// Per-element the combination applies terms in slice order with the
// same first-term ±1 special-casing as matrix.LinearCombine (first
// term: copy, negate, or scale; later terms: add, subtract, or
// multiply-add), so a fused pack is bitwise identical to materializing
// the combination with LinearCombine and then packing it. Zero
// coefficients must be filtered by the caller, as with LinearCombine.
//
// On amd64 the vector routines (pack_amd64.s) apply each term to each
// full micro-panel in registers, one call per term and panel, with the
// same operation per element in the same term order: packA's over the
// largest multiple of the vector width in kc (8 k steps on AVX-512, 4
// on AVX2), transposing each square block of source rows into the
// k-major panel; packB's over every k step, one 8-wide source row
// each. Go packs ragged panels (rows past m or columns past n, which
// are zero-filled) and packA's k tail, and everything under
// cpu.Generic, the only path off amd64 and the tests' reference.

// Term is one scaled source operand of a fused linear combination
// handed to the pack routines: the term contributes Coeff·M.
type Term struct {
	Coeff float64
	M     *matrix.Matrix
}

// Pack modes: the operation term t applies to each panel element p
// from its source element v, by position and coefficient c. The Go
// loops and the vector routines (pack_amd64.s) take the same cases.
const (
	packCopy   = iota // first term, c = 1: p = v
	packNeg           // first term, c = −1: p = −v
	packScale         // first term: p = c·v
	packAdd           // later term, c = 1: p += v
	packSub           // later term, c = −1: p −= v
	packMulAdd        // later term: p += c·v
)

// packMode returns the mode of term t with coefficient c.
func packMode(t int, c float64) int {
	mode := packCopy
	if t > 0 {
		mode = packAdd
	}
	switch c {
	case 1:
		return mode
	case -1:
		return mode + 1
	}
	return mode + 2
}

// packVecLen returns the k steps of a full A micro-panel the vector
// routines cover: kc rounded down to the vector width, or 0 without
// one.
func packVecLen(kc int) int {
	switch useISA {
	case cpu.AVX512:
		return kc &^ 7
	case cpu.AVX2:
		return kc &^ 3
	}
	return 0
}

// packA packs the block rows [i0, i0+m) × cols [k0, k0+kc) of the A
// operand Σ terms into dst as ⌈m/MR⌉ consecutive MR-row micro-panels,
// each stored k-major with the MR row elements of one k adjacent.
// Rows past m are zero-filled. dst must hold ⌈m/MR⌉·MR·kc elements.
// terms must be non-empty: GEMM returns before packing when either
// operand has no terms.
//
//abmm:hotpath
func packA(dst []float64, terms []Term, i0, m, k0, kc int) {
	panels := (m + MR - 1) / MR
	kv := packVecLen(kc)
	for p := 0; p < panels; p++ {
		panel := dst[p*MR*kc : (p+1)*MR*kc]
		i := i0 + p*MR
		k := 0
		if kv > 0 && (p+1)*MR <= m {
			for t, term := range terms {
				packAVec(panel, term, t, i, k0, kv)
			}
			k = kv
		}
		if k == kc {
			continue
		}
		tail := panel[k*MR:]
		for r := 0; r < MR; r++ {
			if p*MR+r < m {
				packRowStrided(tail, r, terms, i+r, k0+k, kc-k)
				continue
			}
			for x := r; x < len(tail); x += MR {
				tail[x] = 0
			}
		}
	}
}

// packAVec runs the vector routine for term t over the first kv k
// steps of the full A micro-panel at rows [i, i+MR), kv a positive
// multiple of the vector width. It touches the last panel element and
// the last source element first, so a view too small for the block
// panics here instead of the routine reading or writing out of range.
//
//abmm:hotpath
func packAVec(panel []float64, term Term, t, i, k0, kv int) {
	src := term.M
	off := i*src.Stride + k0
	_, _ = panel[kv*MR-1], src.Data[off+(MR-1)*src.Stride+kv-1]
	if useISA == cpu.AVX512 {
		packAAVX512(&panel[0], &src.Data[off], 8*src.Stride, kv, term.Coeff, packMode(t, term.Coeff))
	} else {
		packAAVX2(&panel[0], &src.Data[off], 8*src.Stride, kv, term.Coeff, packMode(t, term.Coeff))
	}
}

// packRowStrided writes the combined source row i, cols [k0, k0+kc),
// into panel at stride MR starting at offset r (one row lane of an A
// micro-panel).
//
//abmm:hotpath
func packRowStrided(panel []float64, r int, terms []Term, i, k0, kc int) {
	for t, term := range terms {
		src := term.M
		row := src.Data[i*src.Stride+k0 : i*src.Stride+k0+kc]
		c := term.Coeff
		switch packMode(t, c) {
		case packCopy:
			for k, v := range row {
				panel[k*MR+r] = v
			}
		case packNeg:
			for k, v := range row {
				panel[k*MR+r] = -v
			}
		case packScale:
			for k, v := range row {
				panel[k*MR+r] = c * v
			}
		case packAdd:
			for k, v := range row {
				panel[k*MR+r] += v
			}
		case packSub:
			for k, v := range row {
				panel[k*MR+r] -= v
			}
		default:
			for k, v := range row {
				panel[k*MR+r] += c * v
			}
		}
	}
}

// packB packs micro-panels [p0, p1) of the block rows [k0, k0+kc) ×
// cols [j0, j0+n) of the B operand Σ terms into dst, which holds the
// block's ⌈n/NR⌉ consecutive NR-column micro-panels, each stored k-major
// with the NR column elements of one k adjacent. Columns past n are
// zero-filled. Disjoint panel ranges write disjoint parts of dst, so
// workers can pack one block in parallel. terms must be non-empty, as
// for packA.
//
//abmm:hotpath
func packB(dst []float64, terms []Term, k0, kc, j0, n, p0, p1 int) {
	for p := p0; p < p1; p++ {
		panel := dst[p*NR*kc : (p+1)*NR*kc]
		j := j0 + p*NR
		w := min(NR, j0+n-j)
		if w < NR || useISA == cpu.Generic {
			packColsContig(panel, terms, k0, kc, j, w)
			continue
		}
		for t, term := range terms {
			packBVec(panel, term, t, k0, kc, j)
		}
	}
}

// packBVec runs the vector routine for term t over the full B
// micro-panel at rows [k0, k0+kc), cols [j, j+NR), with packAVec's
// bounds discipline.
//
//abmm:hotpath
func packBVec(panel []float64, term Term, t, k0, kc, j int) {
	src := term.M
	off := k0*src.Stride + j
	_, _ = panel[kc*NR-1], src.Data[off+(kc-1)*src.Stride+NR-1]
	if useISA == cpu.AVX512 {
		packBAVX512(&panel[0], &src.Data[off], 8*src.Stride, kc, term.Coeff, packMode(t, term.Coeff))
	} else {
		packBAVX2(&panel[0], &src.Data[off], 8*src.Stride, kc, term.Coeff, packMode(t, term.Coeff))
	}
}

// packColsContig writes the combined source rows [k0, k0+kc), cols
// [j, j+w), into one NR-column micro-panel, zero-filling column lanes
// past w.
//
//abmm:hotpath
func packColsContig(panel []float64, terms []Term, k0, kc, j, w int) {
	for t, term := range terms {
		src := term.M
		c := term.Coeff
		base := k0*src.Stride + j
		switch packMode(t, c) {
		case packCopy:
			for k := 0; k < kc; k++ {
				row := src.Data[base : base+w]
				out := panel[k*NR : k*NR+NR]
				for x, v := range row {
					out[x] = v
				}
				for x := w; x < NR; x++ {
					out[x] = 0
				}
				base += src.Stride
			}
		case packNeg:
			for k := 0; k < kc; k++ {
				row := src.Data[base : base+w]
				out := panel[k*NR : k*NR+NR]
				for x, v := range row {
					out[x] = -v
				}
				for x := w; x < NR; x++ {
					out[x] = 0
				}
				base += src.Stride
			}
		case packScale:
			for k := 0; k < kc; k++ {
				row := src.Data[base : base+w]
				out := panel[k*NR : k*NR+NR]
				for x, v := range row {
					out[x] = c * v
				}
				for x := w; x < NR; x++ {
					out[x] = 0
				}
				base += src.Stride
			}
		case packAdd:
			for k := 0; k < kc; k++ {
				row := src.Data[base : base+w]
				out := panel[k*NR : k*NR+w]
				for x, v := range row {
					out[x] += v
				}
				base += src.Stride
			}
		case packSub:
			for k := 0; k < kc; k++ {
				row := src.Data[base : base+w]
				out := panel[k*NR : k*NR+w]
				for x, v := range row {
					out[x] -= v
				}
				base += src.Stride
			}
		default:
			for k := 0; k < kc; k++ {
				row := src.Data[base : base+w]
				out := panel[k*NR : k*NR+w]
				for x, v := range row {
					out[x] += c * v
				}
				base += src.Stride
			}
		}
	}
}
