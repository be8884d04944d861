package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// rat-aliasing: math/big mutating methods (r.Add(a, b) writes through
// the receiver) are safe only when the receiver does not alias an
// argument in a way the method cannot see. Two aliasing shapes have
// bitten the exact-arithmetic code before and are flagged here:
//
//   - receiver borrowed from an accessor: m.At(i, j).Add(...) mutates
//     storage the matrix owns, invalidating its invariants (and, for
//     big.Rat, sharing denominators across cells).
//
//   - index aliasing: a.data[i].Add(a.data[j], x) where i and j are
//     textually different indices over the same base — when they
//     evaluate equal at runtime the method reads its argument while
//     overwriting it. The textually-identical self-alias
//     e.Add(e, x) is math/big's documented in-place form and stays
//     legal.
//
// A mutating method is one declared on *big.Int / *big.Rat / *big.Float
// that returns its receiver type (the Set/arith family); accessors like
// Num and Denom return a different pointer type and are not flagged as
// mutators — but receivers obtained FROM them are borrowed pointers and
// trigger the first rule.

const ratCheck = "rat-aliasing"

func checkRat(p *pass) {
	for _, u := range p.units {
		info := u.Info
		for _, f := range u.ScanFiles {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				s, ok := info.Selections[sel]
				if !ok || s.Kind() != types.MethodVal {
					return true
				}
				fn, _ := s.Obj().(*types.Func)
				if fn == nil || !isBigMutator(fn) {
					return true
				}
				recv := ast.Unparen(sel.X)

				if c, ok := recv.(*ast.CallExpr); ok {
					if borrowsPointer(info, c) {
						p.report(call.Pos(), ratCheck, fmt.Sprintf(
							"mutating %s through a pointer borrowed from %s; copy into an owned value first",
							fn.Name(), exprString(p.fset, c.Fun)))
					}
					return true
				}

				rIdx, rOk := recv.(*ast.IndexExpr)
				if !rOk {
					return true
				}
				rBase := exprString(p.fset, rIdx.X)
				rIndex := exprString(p.fset, rIdx.Index)
				for _, arg := range call.Args {
					aIdx, ok := ast.Unparen(arg).(*ast.IndexExpr)
					if !ok {
						continue
					}
					if exprString(p.fset, aIdx.X) != rBase {
						continue
					}
					if exprString(p.fset, aIdx.Index) == rIndex {
						continue // identical element: documented in-place form
					}
					p.report(call.Pos(), ratCheck, fmt.Sprintf(
						"%s receiver %s may alias argument %s (same base, different index); alias-unsafe if the indices coincide",
						fn.Name(), exprString(p.fset, recv), exprString(p.fset, arg)))
				}
				return true
			})
		}
	}
}

// borrowsPointer distinguishes accessors that hand out a pointer into
// storage someone else owns (method calls: m.At(i, j), r.Num()) from
// constructors that return a fresh value (new(big.Rat), big.NewInt,
// chains off another mutator which already returned its receiver).
func borrowsPointer(info *types.Info, c *ast.CallExpr) bool {
	sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr)
	if !ok {
		return false // builtin new(...) or a local constructor ident
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return false // package-qualified constructor (big.NewRat, ...)
	}
	fn, _ := s.Obj().(*types.Func)
	if fn != nil && isBigMutator(fn) {
		return false // chained mutator returns its own receiver
	}
	return true
}

// isBigMutator reports whether fn is a receiver-mutating math/big
// method: declared on *big.Int/*big.Rat/*big.Float and returning
// exactly its receiver type (the Set*/arith convention). Accessors
// returning a different pointer type (Rat.Num → *Int) are excluded.
func isBigMutator(fn *types.Func) bool {
	if fn.Pkg() == nil || fn.Pkg().Path() != "math/big" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	rt := sig.Recv().Type()
	if _, ok := rt.(*types.Pointer); !ok {
		return false
	}
	res := sig.Results()
	if res.Len() != 1 {
		return false
	}
	return types.Identical(res.At(0).Type(), rt)
}
