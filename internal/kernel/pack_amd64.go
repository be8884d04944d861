//go:build amd64

package kernel

// packAAVX512 applies one term to a full 16-row A micro-panel
// (pack_amd64.s): for rows r < MR and k steps k < kc, panel[k·MR+r]
// takes the source element r·ld bytes past src, plus k, by mode
// (coefficient coeff). kc is a positive multiple of 8.
//
//go:noescape
func packAAVX512(panel, src *float64, ld, kc int, coeff float64, mode int)

// packAAVX2 is packAAVX512 in YMM registers, kc a positive multiple
// of 4.
//
//go:noescape
func packAAVX2(panel, src *float64, ld, kc int, coeff float64, mode int)

// packBAVX512 applies one term to a full 8-column B micro-panel: for
// k steps k < kc (kc ≥ 1), panel[k·NR : k·NR+NR] takes the eight source
// elements k·ld bytes past src, by mode.
//
//go:noescape
func packBAVX512(panel, src *float64, ld, kc int, coeff float64, mode int)

// packBAVX2 is packBAVX512 in YMM registers.
//
//go:noescape
func packBAVX2(panel, src *float64, ld, kc int, coeff float64, mode int)
