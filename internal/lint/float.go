package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// float-discipline: comparing floats for exact equality is almost
// always a rounding bug. The check flags == and != where both operands
// are non-constant floats; comparisons against untyped constants
// (v == 0, the exact-zero sentinel the kernels rely on) stay legal, as
// does the x != x NaN idiom. switch statements over a float tag are the
// same comparison in disguise, so non-constant cases are flagged too.
//
// Inside the configured compensated-arithmetic packages (DDPkgs) the
// check additionally forbids raw a*b−c residuals: a subtraction with a
// float multiplication as an operand loses the low half of the product
// unless it goes through TwoProd / math.FMA, which is the entire point
// of those packages.

const floatCheck = "float-discipline"

func checkFloat(p *pass) {
	for _, u := range p.units {
		info := u.Info
		// The residual rule applies to the algorithms, not their tests:
		// a dd test computes plain a*b−c on purpose, as the uncompensated
		// reference the compensated result is checked against.
		dd := u.Kind == unitBase && p.cfg.DDPkgs[u.Path]
		for _, f := range u.ScanFiles {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.BinaryExpr:
					switch n.Op {
					case token.EQL, token.NEQ:
						p.checkFloatCmp(u, n.X, n.Y, n.OpPos)
					case token.SUB:
						if dd {
							p.checkDDResidual(u, n)
						}
					}
				case *ast.AssignStmt:
					if dd && n.Tok == token.SUB_ASSIGN && len(n.Rhs) == 1 {
						if isFloatMul(info, n.Rhs[0]) {
							p.report(n.TokPos, floatCheck,
								"raw x -= a*b loses the rounding error of the product; use TwoProd or math.FMA")
						}
					}
				case *ast.SwitchStmt:
					if n.Tag == nil || !isFloat(typeOf(info, n.Tag)) {
						return true
					}
					for _, stmt := range n.Body.List {
						cc, ok := stmt.(*ast.CaseClause)
						if !ok {
							continue
						}
						for _, e := range cc.List {
							if tv, ok := info.Types[e]; ok && tv.Value == nil {
								p.report(e.Pos(), floatCheck,
									"switch over a float compares cases with ==; non-constant case is a float equality")
							}
						}
					}
				}
				return true
			})
		}
	}
}

func (p *pass) checkFloatCmp(u *Package, x, y ast.Expr, pos token.Pos) {
	info := u.Info
	tx, okx := info.Types[x]
	ty, oky := info.Types[y]
	if !okx || !oky || !isFloat(tx.Type) || !isFloat(ty.Type) {
		return
	}
	// Either side constant: comparing against a sentinel (0, 1, −1) is
	// deliberate and exact.
	if tx.Value != nil || ty.Value != nil {
		return
	}
	// x != x is the portable IsNaN.
	if exprString(p.fset, x) == exprString(p.fset, y) {
		return
	}
	p.report(pos, floatCheck, "==/!= between non-constant floats; compare with a tolerance or math.Abs")
}

// checkDDResidual flags a − b where either operand is a float product.
func (p *pass) checkDDResidual(u *Package, n *ast.BinaryExpr) {
	if !isFloat(typeOf(u.Info, n)) {
		return
	}
	if isFloatMul(u.Info, n.X) || isFloatMul(u.Info, n.Y) {
		p.report(n.OpPos, floatCheck,
			"raw a*b−c residual loses the rounding error of the product; use TwoProd or math.FMA")
	}
}

func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func isFloatMul(info *types.Info, e ast.Expr) bool {
	be, ok := ast.Unparen(e).(*ast.BinaryExpr)
	return ok && be.Op == token.MUL && isFloat(typeOf(info, be))
}
