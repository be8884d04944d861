package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// goroutine-lifecycle: every go statement in a non-test package must
// have a reachable stop signal, or it outlives the work that spawned
// it. A spawn passes if any of these hold:
//
//   - a context.Context flows into the call or is referenced by the
//     spawned body (cancellation reaches it)
//   - the spawned body receives on a channel, selects, or ranges a
//     channel (a done/queue channel closes it out)
//   - the spawned body calls (*sync.WaitGroup).Done, or the spawning
//     function calls (*sync.WaitGroup).Add (the spawner joins it)
//
// Spawns whose callee body is outside the module (go srv.Serve(ln))
// cannot be inspected and are flagged; the ones whose lifetime is
// genuinely process- or shutdown-bound carry a justified allow. The
// configured parallel-dispatch packages are exempt wholesale — worker
// lifetime is their whole job — as are base units of test-only
// helpers (test units are never scanned).

const goroutineCheck = "goroutine-lifecycle"

func checkGoroutine(p *pass) {
	for _, u := range p.base {
		if p.cfg.ParallelPkgs[u.Path] {
			continue
		}
		info := u.Info
		for _, f := range u.ScanFiles {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				spawnerAdds := callsWaitGroupAdd(info, fd.Body)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					gs, ok := n.(*ast.GoStmt)
					if !ok {
						return true
					}
					if spawnerAdds || spawnHasStopSignal(p, info, gs) {
						return true
					}
					p.report(gs.Pos(), goroutineCheck,
						"goroutine has no reachable stop signal (context, done channel, or WaitGroup); it can outlive its spawner")
					return true
				})
			}
		}
	}
}

// spawnHasStopSignal inspects the spawned call and, when its body is
// in the module, the body itself.
func spawnHasStopSignal(p *pass, info *types.Info, gs *ast.GoStmt) bool {
	for _, a := range gs.Call.Args {
		if isContextType(typeOf(info, a)) {
			return true
		}
	}
	var body *ast.BlockStmt
	var bodyInfo *types.Info
	if fl, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
		body, bodyInfo = fl.Body, info
	} else if fn, _ := staticCallee(info, gs.Call); fn != nil {
		if fd := p.declFor(fn); fd != nil && fd.Body != nil {
			if u := p.declOf[fd]; u != nil {
				body, bodyInfo = fd.Body, u.Info
			}
		}
	}
	if body == nil {
		return false // callee body not inspectable: no provable signal
	}
	return bodyHasStopSignal(bodyInfo, body)
}

func bodyHasStopSignal(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if _, isChan := typeOf(info, n.X).Underlying().(*types.Chan); isChan {
				found = true
			}
		case *ast.Ident:
			if v, ok := info.Uses[n].(*types.Var); ok && isContextType(v.Type()) {
				found = true
			}
		case *ast.CallExpr:
			if fn, _ := staticCallee(info, n); fn != nil &&
				fn.Name() == "Done" && fn.Pkg() != nil && fn.Pkg().Path() == "sync" {
				found = true
			}
		}
		return !found
	})
	return found
}

// callsWaitGroupAdd reports whether the body calls sync's Add — the
// spawner registering the goroutine with a WaitGroup it will wait on.
func callsWaitGroupAdd(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if fn, _ := staticCallee(info, call); fn != nil &&
				fn.Name() == "Add" && fn.Pkg() != nil && fn.Pkg().Path() == "sync" {
				found = true
			}
		}
		return !found
	})
	return found
}
