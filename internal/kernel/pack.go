package kernel

import "abmm/internal/matrix"

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

// Term is one scaled source operand of a fused linear combination
// handed to the pack routines: the term contributes Coeff·M.
type Term struct {
	Coeff float64
	M     *matrix.Matrix
}

// packA packs the block rows [i0, i0+m) × cols [k0, k0+kc) of the A
// operand Σ terms into dst as ⌈m/MR⌉ consecutive MR-row micro-panels,
// each stored k-major with the MR row elements of one k adjacent.
// Rows past m are zero-filled. dst must hold ⌈m/MR⌉·MR·kc elements.
//
//abmm:hotpath
func packA(dst []float64, terms []Term, i0, m, k0, kc int) {
	panels := (m + MR - 1) / MR
	for p := 0; p < panels; p++ {
		panel := dst[p*MR*kc : (p+1)*MR*kc]
		for r := 0; r < MR; r++ {
			i := i0 + p*MR + r
			if i >= i0+m {
				for k := 0; k < kc; k++ {
					panel[k*MR+r] = 0
				}
				continue
			}
			packRowStrided(panel, r, terms, i, k0, kc)
		}
	}
}

// packRowStrided writes the combined source row i, cols [k0, k0+kc),
// into panel at stride MR starting at offset r (one row lane of an A
// micro-panel).
//
//abmm:hotpath
func packRowStrided(panel []float64, r int, terms []Term, i, k0, kc int) {
	if len(terms) == 0 {
		for k := 0; k < kc; k++ {
			panel[k*MR+r] = 0
		}
		return
	}
	for t, term := range terms {
		src := term.M
		row := src.Data[i*src.Stride+k0 : i*src.Stride+k0+kc]
		c := term.Coeff
		switch {
		case t == 0 && c == 1:
			for k, v := range row {
				panel[k*MR+r] = v
			}
		case t == 0 && c == -1:
			for k, v := range row {
				panel[k*MR+r] = -v
			}
		case t == 0:
			for k, v := range row {
				panel[k*MR+r] = c * v
			}
		case c == 1:
			for k, v := range row {
				panel[k*MR+r] += v
			}
		case c == -1:
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
// workers can pack one block in parallel.
//
//abmm:hotpath
func packB(dst []float64, terms []Term, k0, kc, j0, n, p0, p1 int) {
	for p := p0; p < p1; p++ {
		panel := dst[p*NR*kc : (p+1)*NR*kc]
		j := j0 + p*NR
		w := min(NR, j0+n-j)
		packColsContig(panel, terms, k0, kc, j, w)
	}
}

// packColsContig writes the combined source rows [k0, k0+kc), cols
// [j, j+w), into one NR-column micro-panel, zero-filling column lanes
// past w.
//
//abmm:hotpath
func packColsContig(panel []float64, terms []Term, k0, kc, j, w int) {
	if len(terms) == 0 {
		for i := range panel {
			panel[i] = 0
		}
		return
	}
	for t, term := range terms {
		src := term.M
		c := term.Coeff
		base := k0*src.Stride + j
		switch {
		case t == 0 && c == 1:
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
		case t == 0 && c == -1:
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
		case t == 0:
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
		case c == 1:
			for k := 0; k < kc; k++ {
				row := src.Data[base : base+w]
				out := panel[k*NR : k*NR+w]
				for x, v := range row {
					out[x] += v
				}
				base += src.Stride
			}
		case c == -1:
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
