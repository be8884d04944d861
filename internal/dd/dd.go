// Package dd implements double-double ("compensated") arithmetic: each
// value is represented as an unevaluated sum hi+lo of two float64s,
// giving roughly 106 bits of significand. The paper measures forward
// errors against classical matrix multiplication carried out in
// quadruple precision; dd arithmetic is this library's substitute for
// IEEE binary128 (see DESIGN.md §4), with more than twice the working
// precision of the float64 algorithms under test, so the reference
// error is negligible relative to the measured errors.
//
// The error-free transformations follow Dekker (1971) and Knuth; the
// product transformation uses math.FMA, which Go compiles to a fused
// hardware instruction on amd64 and arm64.
package dd

import "math"

// DD is a double-double value hi+lo with |lo| <= ulp(hi)/2.
type DD struct {
	Hi, Lo float64
}

// FromFloat converts a float64 exactly.
func FromFloat(x float64) DD { return DD{Hi: x} }

// Float rounds the value to the nearest float64.
func (a DD) Float() float64 { return a.Hi + a.Lo }

// twoSum returns s, e with s = fl(a+b) and a+b = s+e exactly
// (Knuth's branch-free error-free addition).
func twoSum(a, b float64) (s, e float64) {
	s = a + b
	bb := s - a
	e = (a - (s - bb)) + (b - bb)
	return s, e
}

// quickTwoSum requires |a| >= |b| and returns s, e with a+b = s+e.
func quickTwoSum(a, b float64) (s, e float64) {
	s = a + b
	e = b - (s - a)
	return s, e
}

// twoProd returns p, e with p = fl(a*b) and a*b = p+e exactly, using a
// fused multiply-add.
func twoProd(a, b float64) (p, e float64) {
	p = a * b
	e = math.FMA(a, b, -p)
	return p, e
}

// Add returns a+b.
func Add(a, b DD) DD {
	s, e := twoSum(a.Hi, b.Hi)
	e += a.Lo + b.Lo
	s, e = quickTwoSum(s, e)
	return DD{s, e}
}

// AddFloat returns a+x for a float64 x.
func AddFloat(a DD, x float64) DD {
	s, e := twoSum(a.Hi, x)
	e += a.Lo
	s, e = quickTwoSum(s, e)
	return DD{s, e}
}

// Sub returns a-b.
func Sub(a, b DD) DD { return Add(a, DD{-b.Hi, -b.Lo}) }

// Neg returns -a.
func Neg(a DD) DD { return DD{-a.Hi, -a.Lo} }

// Mul returns a*b.
func Mul(a, b DD) DD {
	p, e := twoProd(a.Hi, b.Hi)
	e += a.Hi*b.Lo + a.Lo*b.Hi
	p, e = quickTwoSum(p, e)
	return DD{p, e}
}

// MulFloats returns the exact-to-dd product of two float64 values.
func MulFloats(x, y float64) DD {
	p, e := twoProd(x, y)
	return DD{p, e}
}

// Abs returns |a|.
func Abs(a DD) DD {
	if a.Hi < 0 || (a.Hi == 0 && a.Lo < 0) {
		return Neg(a)
	}
	return a
}

// Cmp compares a and b, returning -1, 0, or +1.
func Cmp(a, b DD) int {
	d := Sub(a, b)
	switch {
	case d.Hi < 0 || (d.Hi == 0 && d.Lo < 0):
		return -1
	case d.Hi > 0 || (d.Hi == 0 && d.Lo > 0):
		return 1
	}
	return 0
}
