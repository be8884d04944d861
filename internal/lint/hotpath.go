package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// hotpath-alloc: functions annotated //abmm:hotpath — and everything
// they statically call within the module — must not allocate. The
// traversal follows direct calls and concrete method calls; it stops at
// interface method calls (the implementations carry their own
// annotations), at //abmm:coldpath functions (amortized or opt-in
// allocating paths), and at the configured parallel-dispatch packages
// (spawning workers allocates by design). Within a hot body it flags:
//
//   - make / new / any append (growth is undecidable statically, so
//     bounded appends carry an //abmm:allow)
//   - composite literals that escape (&T{...}) and slice/map literals
//   - calls into package fmt
//   - interface boxing of non-pointer-shaped arguments, and variadic
//     calls that pack an argument slice
//   - string ↔ slice conversions
//   - closures that capture variables (except literals passed directly
//     to parallel-dispatch calls), method values, goroutine spawns, and
//     map writes
//
// Arguments of panic(...) are exempt: the death path may allocate.

const hotpathCheck = "hotpath-alloc"

func checkHotpath(p *pass) {
	h := &hotWalker{p: p, visited: make(map[*ast.FuncDecl]bool)}
	for _, u := range p.base {
		for _, f := range u.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && p.hot[fd] {
					h.visit(fd)
				}
			}
		}
	}
}

type hotWalker struct {
	p       *pass
	visited map[*ast.FuncDecl]bool
}

func (h *hotWalker) visit(fd *ast.FuncDecl) {
	if fd == nil || h.visited[fd] {
		return
	}
	h.visited[fd] = true
	if h.p.cold[fd] || fd.Body == nil {
		return
	}
	u := h.p.declOf[fd]
	if u == nil || h.p.cfg.ParallelPkgs[u.Path] {
		return
	}
	h.scan(u, fd)
}

func (h *hotWalker) report(pos token.Pos, msg string) {
	h.p.report(pos, hotpathCheck, msg)
}

func (h *hotWalker) scan(u *Package, fd *ast.FuncDecl) {
	info := u.Info
	exempt := make(map[*ast.FuncLit]bool)
	coldArg := make(map[*ast.FuncLit]bool)
	escaping := make(map[*ast.CompositeLit]bool)
	var callees []*ast.FuncDecl

	walkParents(fd.Body, func(n ast.Node, parents []ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			h.report(n.Pos(), "goroutine spawned on hot path")

		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if ie, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
					if _, isMap := typeOf(info, ie.X).Underlying().(*types.Map); isMap {
						h.report(ie.Pos(), "map write on hot path may allocate")
					}
				}
			}

		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if cl, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					escaping[cl] = true
					h.report(n.Pos(), "composite literal escapes to the heap (&T{...})")
				}
			}

		case *ast.CompositeLit:
			if escaping[n] {
				break
			}
			switch typeOf(info, n).Underlying().(type) {
			case *types.Slice:
				h.report(n.Pos(), "slice literal allocates on hot path")
			case *types.Map:
				h.report(n.Pos(), "map literal allocates on hot path")
			}

		case *ast.SelectorExpr:
			if sel, ok := info.Selections[n]; ok && sel.Kind() == types.MethodVal {
				if !isCallFun(parents, n) {
					h.report(n.Pos(), fmt.Sprintf("method value %s allocates a bound closure", exprString(h.p.fset, n)))
				}
			}

		case *ast.FuncLit:
			if !exempt[n] && capturesOuter(info, fd, n) {
				h.report(n.Pos(), "closure captures variables and may escape to the heap")
			}
			// A literal handed to a coldpath callee runs off the hot
			// path; constructing it was judged above, its body is not
			// hot code.
			if coldArg[n] {
				return false
			}

		case *ast.CallExpr:
			fun := ast.Unparen(n.Fun)
			if tv, ok := info.Types[fun]; ok && tv.IsType() {
				h.checkConversion(info, n, tv.Type)
				return true
			}
			if id, ok := fun.(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok {
					switch b.Name() {
					case "panic":
						return false // death path: its arguments may allocate
					case "make":
						h.report(n.Pos(), "make allocates on hot path")
					case "new":
						h.report(n.Pos(), "new allocates on hot path")
					case "append":
						h.report(n.Pos(), "append may grow its backing array on hot path")
					}
					return true
				}
			}
			callee, ifaceCall := staticCallee(info, n)
			if isOnceDo(callee) {
				// Once-guarded initialization is amortized to zero: the
				// literal runs on the first call only, and the compiler
				// sinks its construction into the not-yet-done branch.
				for _, a := range n.Args {
					if fl, ok := ast.Unparen(a).(*ast.FuncLit); ok {
						exempt[fl] = true
						coldArg[fl] = true
					}
				}
				return true
			}
			if callee != nil && callee.Pkg() != nil && callee.Pkg().Path() == "fmt" {
				h.report(n.Pos(), fmt.Sprintf("call to fmt.%s allocates on hot path", callee.Name()))
				return true
			}
			h.checkCallArgs(info, n, exempt)
			if callee != nil && !ifaceCall && callee.Pkg() != nil && h.p.loader.IsModulePath(callee.Pkg().Path()) {
				if cd := h.p.declFor(callee); cd != nil {
					callees = append(callees, cd)
					if h.p.cold[cd] {
						for _, a := range n.Args {
							if fl, ok := ast.Unparen(a).(*ast.FuncLit); ok {
								coldArg[fl] = true
							}
						}
					}
				}
			}
		}
		return true
	})

	for _, cd := range callees {
		h.visit(cd)
	}
}

// checkCallArgs flags interface boxing and variadic slice packing; for
// calls into the parallel-dispatch packages it instead marks function-
// literal arguments as exempt from the capture rule.
func (h *hotWalker) checkCallArgs(info *types.Info, call *ast.CallExpr, exempt map[*ast.FuncLit]bool) {
	callee, _ := staticCallee(info, call)
	if callee != nil && callee.Pkg() != nil && h.p.cfg.ParallelPkgs[callee.Pkg().Path()] {
		for _, a := range call.Args {
			if fl, ok := ast.Unparen(a).(*ast.FuncLit); ok {
				exempt[fl] = true
			}
		}
		return
	}
	sig, ok := typeOf(info, call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				pt = params.At(params.Len() - 1).Type()
			} else {
				pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt != nil && isInterface(pt) && boxes(info, arg) {
			h.report(arg.Pos(), fmt.Sprintf("argument %s boxes into an interface and allocates", exprString(h.p.fset, arg)))
		}
	}
	if sig.Variadic() && !call.Ellipsis.IsValid() && len(call.Args) >= params.Len() {
		h.report(call.Pos(), "variadic call packs an argument slice on hot path")
	}
}

// checkConversion flags conversions that allocate: boxing into an
// interface type and string ↔ slice copies.
func (h *hotWalker) checkConversion(info *types.Info, call *ast.CallExpr, target types.Type) {
	if len(call.Args) != 1 {
		return
	}
	arg := call.Args[0]
	if isInterface(target) && boxes(info, arg) {
		h.report(call.Pos(), "conversion boxes into an interface and allocates")
		return
	}
	at := typeOf(info, arg)
	_, targetSlice := target.Underlying().(*types.Slice)
	_, argSlice := at.Underlying().(*types.Slice)
	if targetSlice && isString(at) || isString(target) && argSlice {
		h.report(call.Pos(), "string ↔ slice conversion copies on hot path")
	}
}

// isOnceDo reports whether fn is (*sync.Once).Do.
func isOnceDo(fn *types.Func) bool {
	if fn == nil || fn.Name() != "Do" || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

// staticCallee resolves a call to its target function when that target
// is statically known. ifaceCall marks dynamic dispatch through an
// interface (a traversal boundary).
func staticCallee(info *types.Info, call *ast.CallExpr) (fn *types.Func, ifaceCall bool) {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if tf, ok := info.Uses[f].(*types.Func); ok {
			return tf, false
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[f]; ok {
			if sel.Kind() == types.MethodVal {
				tf, _ := sel.Obj().(*types.Func)
				if _, isI := sel.Recv().Underlying().(*types.Interface); isI {
					return tf, true
				}
				return tf, false
			}
			return nil, false // field of func type: dynamic
		}
		if tf, ok := info.Uses[f.Sel].(*types.Func); ok {
			return tf, false // package-qualified call
		}
	}
	return nil, false
}

// capturesOuter reports whether lit references a variable declared in
// the enclosing function outside the literal itself. Package-level
// variables are accessed directly and do not force an allocation.
func capturesOuter(info *types.Info, fd *ast.FuncDecl, lit *ast.FuncLit) bool {
	captured := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		pos := v.Pos()
		if pos >= fd.Pos() && pos < fd.End() && !(pos >= lit.Pos() && pos < lit.End()) {
			captured = true
		}
		return true
	})
	return captured
}

// isCallFun reports whether sel is the function operand of its
// enclosing call (i.e. the method is invoked, not bound).
func isCallFun(parents []ast.Node, sel ast.Expr) bool {
	for i := len(parents) - 1; i >= 0; i-- {
		switch p := parents[i].(type) {
		case *ast.ParenExpr:
			continue
		case *ast.CallExpr:
			return ast.Unparen(p.Fun) == ast.Unparen(sel)
		default:
			return false
		}
	}
	return false
}

func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok && tv.Type != nil {
		return tv.Type
	}
	return types.Typ[types.Invalid]
}

func isInterface(t types.Type) bool {
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// boxes reports whether passing arg to an interface-typed slot heap-
// allocates: true for non-constant, non-nil values of concrete types
// that are not pointer-shaped (pointers, channels, maps, and functions
// store directly in the interface word).
func boxes(info *types.Info, arg ast.Expr) bool {
	tv, ok := info.Types[arg]
	if !ok || tv.Value != nil || tv.IsNil() || tv.Type == nil {
		return false
	}
	if isInterface(tv.Type) {
		return false
	}
	switch tv.Type.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	case *types.Basic:
		if tv.Type.Underlying().(*types.Basic).Kind() == types.UnsafePointer {
			return false
		}
	}
	return true
}
