// Package scaling implements the diagonal scaling stability-improvement
// techniques of Section V: outside scaling (Dumitrescu), inside scaling
// (Brent / Higham / Ballard et al.), their compositions, and repeated
// alternating outside-inside scaling, wrapped around an arbitrary
// multiplication kernel via the identity
//
//	C = D_A (D_A⁻¹ A D)(D⁻¹ B D_B⁻¹) D_B                    (Eq. 14).
//
// Scale factors are rounded to powers of two so that the pre- and
// post-processing multiplications are exact in floating point and the
// technique never adds error of its own.
package scaling

import (
	"math"

	"abmm/internal/matrix"
)

// Method selects a scaling strategy.
type Method int

const (
	// None multiplies without scaling.
	None Method = iota
	// Outside scales A's rows and B's columns by their absolute maxima
	// (D_A = diag max_j|a_ij|, D_B = diag max_i|b_ij|).
	Outside
	// Inside scales the shared K dimension by
	// D = diag sqrt(max_j|b_kj| / max_i|a_ik|).
	Inside
	// OutsideInside performs one outside step then one inside step.
	OutsideInside
	// InsideOutside performs one inside step then one outside step.
	InsideOutside
	// RepeatedOutsideInside alternates outside and inside steps for
	// repeatedRounds rounds (the paper's R-O-I; a safe default when the
	// input distribution is unknown).
	RepeatedOutsideInside
)

// repeatedRounds is the number of alternating outside-inside rounds
// RepeatedOutsideInside runs.
const repeatedRounds = 2

// String returns the experiment label of the method.
func (m Method) String() string {
	switch m {
	case None:
		return "none"
	case Outside:
		return "outside"
	case Inside:
		return "inside"
	case OutsideInside:
		return "outside-inside"
	case InsideOutside:
		return "inside-outside"
	case RepeatedOutsideInside:
		return "repeated-o-i"
	}
	return "unknown"
}

// Config configures scaled multiplication.
type Config struct {
	Method Method
	// Workers bounds parallelism of the scaling passes; 0 = default.
	Workers int
}

// NewConfig returns the default configuration for a method.
func NewConfig(m Method) Config {
	return Config{Method: m}
}

// Multiply computes A·B through mul with the configured scaling wrapped
// around it.
func Multiply(cfg Config, a, b *matrix.Matrix, mul func(a, b *matrix.Matrix) *matrix.Matrix) *matrix.Matrix {
	if cfg.Method == None {
		return mul(a, b)
	}
	w := cfg.Workers
	sa, sb := a.Clone(), b.Clone()
	rowScale := ones(a.Rows)
	colScale := ones(b.Cols)
	outside := func() {
		da := sanitize(sa.AbsRowMax())
		db := sanitize(sb.AbsColMax())
		matrix.ScaleRows(sa, sa, reciprocals(da), w)
		matrix.ScaleCols(sb, sb, reciprocals(db), w)
		for i := range rowScale {
			rowScale[i] *= da[i]
		}
		for j := range colScale {
			colScale[j] *= db[j]
		}
	}
	inside := func() {
		// d_k = sqrt(max_j |b_kj| / max_i |a_ik|); A ← A·D, B ← D⁻¹B.
		am := sa.AbsColMax()
		bm := sb.AbsRowMax()
		d := make([]float64, len(am))
		for k := range d {
			if am[k] == 0 || bm[k] == 0 {
				d[k] = 1
				continue
			}
			d[k] = math.Sqrt(bm[k] / am[k])
		}
		d = sanitize(d)
		matrix.ScaleCols(sa, sa, d, w)
		matrix.ScaleRows(sb, sb, reciprocals(d), w)
	}
	switch cfg.Method {
	case Outside:
		outside()
	case Inside:
		inside()
	case OutsideInside:
		outside()
		inside()
	case InsideOutside:
		inside()
		outside()
	case RepeatedOutsideInside:
		for s := 0; s < repeatedRounds; s++ {
			outside()
			inside()
		}
	default:
		panic("scaling: unknown method")
	}
	c := mul(sa, sb)
	matrix.ScaleRows(c, c, rowScale, w)
	matrix.ScaleCols(c, c, colScale, w)
	return c
}

// sanitize replaces non-finite or zero scale factors with 1 and rounds
// the others to powers of two.
func sanitize(d []float64) []float64 {
	for i, v := range d {
		if v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			d[i] = 1
			continue
		}
		d[i] = math.Exp2(math.Round(math.Log2(v)))
	}
	return d
}

func reciprocals(d []float64) []float64 {
	out := make([]float64, len(d))
	for i, v := range d {
		out[i] = 1 / v
	}
	return out
}

func ones(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

// Methods lists all scaling methods in presentation order for the
// Figure 4 experiment.
func Methods() []Method {
	return []Method{None, Outside, Inside, OutsideInside, InsideOutside, RepeatedOutsideInside}
}
