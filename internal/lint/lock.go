package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// lock-discipline: critical sections stay small and non-blocking, and
// declared guard relationships hold. The walker tracks, per function
// (function literals are their own scopes), which mutexes are held at
// each statement — X.Lock()/X.RLock() enter a section, X.Unlock()/
// X.RUnlock() leave it, defer X.Unlock() holds to the end — keyed by
// the receiver's source text ("s.mu"). While anything is held it
// flags:
//
//   - channel operations: sends, receives, select, ranging a channel
//   - known blocking calls: time.Sleep, (*sync.WaitGroup).Wait,
//     (*sync.Cond).Wait, (*sync.Once).Do
//   - dynamic calls of function-typed values (callbacks) — arbitrary
//     user code must not run under the lock
//
// Separately, a struct field annotated //abmm:guards <mu> may only be
// read with some form of <mu> held on the same base, and only written
// with the write lock; accesses through a variable that is local to
// the current function are exempt (the constructor pattern: the value
// is not shared yet). Only base units are scanned — tests poke guarded
// fields single-threaded by design.

const lockCheck = "lock-discipline"

// heldLock records how one mutex is held at a program point.
type heldLock struct {
	write bool // Lock rather than RLock
}

func checkLock(p *pass) {
	for _, u := range p.base {
		info := u.Info
		for _, f := range u.ScanFiles {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				lw := &lockWalker{p: p, info: info, body: fd.Body}
				lw.scope(fd.Body)
			}
		}
	}
}

type lockWalker struct {
	p    *pass
	info *types.Info
	body *ast.BlockStmt // current scope, for the local-variable exemption
}

// scope analyzes one function body; nested literals recurse with their
// own empty held set but keep the outer body for locality decisions —
// a closure still runs against the shared value.
func (lw *lockWalker) scope(body *ast.BlockStmt) {
	held := make(map[string]heldLock)
	lw.stmts(body.List, held)
}

func (lw *lockWalker) stmts(list []ast.Stmt, held map[string]heldLock) {
	for _, s := range list {
		lw.stmt(s, held)
	}
}

func copyHeld(held map[string]heldLock) map[string]heldLock {
	out := make(map[string]heldLock, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

// intersect keeps only locks held in both maps (conservative merge
// after a branch: fewer held locks, fewer findings).
func intersect(held, branch map[string]heldLock) {
	for k := range held {
		if _, ok := branch[k]; !ok {
			delete(held, k)
		}
	}
}

func (lw *lockWalker) stmt(s ast.Stmt, held map[string]heldLock) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if key, op := lw.lockOp(s.X); op != "" {
			switch op {
			case "Lock":
				held[key] = heldLock{write: true}
			case "RLock":
				held[key] = heldLock{}
			case "Unlock", "RUnlock":
				delete(held, key)
			}
			return
		}
		lw.check(s, held)
	case *ast.DeferStmt:
		if _, op := lw.lockOp(s.Call); op == "Unlock" || op == "RUnlock" {
			return // deferred unlock: the lock stays held to the end
		}
		// The deferred call itself runs at function exit, outside this
		// critical section; only its argument evaluation runs now. A
		// deferred literal still gets its own fresh-scope analysis.
		if fl, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			inner := &lockWalker{p: lw.p, info: lw.info, body: fl.Body}
			inner.scope(fl.Body)
		}
		for _, a := range s.Call.Args {
			lw.check(a, held)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			lw.stmt(s.Init, held)
		}
		lw.check(s.Cond, held)
		bodyHeld := copyHeld(held)
		lw.stmts(s.Body.List, bodyHeld)
		elseHeld := copyHeld(held)
		if s.Else != nil {
			lw.stmt(s.Else, elseHeld)
		}
		intersect(held, bodyHeld)
		intersect(held, elseHeld)
	case *ast.BlockStmt:
		lw.stmts(s.List, held)
	case *ast.LabeledStmt:
		lw.stmt(s.Stmt, held)
	case *ast.ForStmt:
		if s.Init != nil {
			lw.stmt(s.Init, held)
		}
		if s.Cond != nil {
			lw.check(s.Cond, held)
		}
		bodyHeld := copyHeld(held)
		lw.stmts(s.Body.List, bodyHeld)
		intersect(held, bodyHeld)
	case *ast.RangeStmt:
		if len(held) > 0 {
			if _, isChan := typeOf(lw.info, s.X).Underlying().(*types.Chan); isChan {
				lw.reportHeld(s.Pos(), "range over a channel", held)
			}
		}
		lw.check(s.X, held)
		bodyHeld := copyHeld(held)
		lw.stmts(s.Body.List, bodyHeld)
		intersect(held, bodyHeld)
	case *ast.SwitchStmt:
		if s.Init != nil {
			lw.stmt(s.Init, held)
		}
		if s.Tag != nil {
			lw.check(s.Tag, held)
		}
		lw.clauses(s.Body.List, held)
	case *ast.TypeSwitchStmt:
		lw.clauses(s.Body.List, held)
	case *ast.SelectStmt:
		if len(held) > 0 {
			lw.reportHeld(s.Pos(), "select", held)
		}
		lw.clauses(s.Body.List, held)
	case *ast.SendStmt:
		if len(held) > 0 {
			lw.reportHeld(s.Pos(), "channel send", held)
		}
		lw.check(s, held)
	case *ast.GoStmt:
		// Spawning is not blocking and the spawned body runs outside
		// this critical section; only argument evaluation runs now. A
		// spawned literal still gets its own fresh-scope analysis.
		if fl, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			inner := &lockWalker{p: lw.p, info: lw.info, body: fl.Body}
			inner.scope(fl.Body)
		}
		for _, a := range s.Call.Args {
			lw.check(a, held)
		}
	case *ast.ReturnStmt, *ast.AssignStmt, *ast.IncDecStmt, *ast.DeclStmt:
		lw.check(s, held)
	}
}

func (lw *lockWalker) clauses(list []ast.Stmt, held map[string]heldLock) {
	for _, c := range list {
		var body []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				lw.check(e, held)
			}
			body = c.Body
		case *ast.CommClause:
			body = c.Body
		}
		ch := copyHeld(held)
		lw.stmts(body, ch)
		intersect(held, ch)
	}
}

// lockOp recognizes X.Lock/RLock/Unlock/RUnlock calls on sync mutexes
// and returns the receiver's source text plus the operation.
func (lw *lockWalker) lockOp(e ast.Expr) (key, op string) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return "", ""
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	fn, _ := staticCallee(lw.info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", ""
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
		return exprString(lw.p.fset, sel.X), fn.Name()
	}
	return "", ""
}

func (lw *lockWalker) heldNames(held map[string]heldLock) string {
	for k := range held {
		if len(held) == 1 {
			return k
		}
	}
	// Deterministic enough for messages: pick the lexicographically
	// first of the (rarely) several held locks.
	first := ""
	for k := range held {
		if first == "" || k < first {
			first = k
		}
	}
	return first
}

func (lw *lockWalker) reportHeld(pos token.Pos, what string, held map[string]heldLock) {
	lw.p.report(pos, lockCheck,
		fmt.Sprintf("%s while %s is held can block the critical section; move it outside the lock", what, lw.heldNames(held)))
}

// check walks one statement or expression flagging blocking operations
// and guarded-field accesses, recursing into nested function literals
// as fresh scopes.
func (lw *lockWalker) check(root ast.Node, held map[string]heldLock) {
	if root == nil {
		return
	}
	walkParents(root, func(n ast.Node, parents []ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			inner := &lockWalker{p: lw.p, info: lw.info, body: n.Body}
			inner.scope(n.Body)
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && len(held) > 0 {
				lw.reportHeld(n.Pos(), "channel receive", held)
			}
		case *ast.CallExpr:
			if len(held) > 0 {
				lw.checkCall(n, held)
			}
		case *ast.SelectorExpr:
			lw.checkGuarded(n, parents, held)
		}
		return true
	})
}

// checkCall flags known blocking calls and dynamic callback calls made
// while a lock is held.
func (lw *lockWalker) checkCall(call *ast.CallExpr, held map[string]heldLock) {
	fn, _ := staticCallee(lw.info, call)
	if fn != nil {
		if fn.Pkg() == nil {
			return
		}
		switch fn.Pkg().Path() {
		case "time":
			if fn.Name() == "Sleep" {
				lw.reportHeld(call.Pos(), "time.Sleep", held)
			}
		case "sync":
			switch fn.Name() {
			case "Wait":
				lw.reportHeld(call.Pos(), "sync ...Wait", held)
			case "Do":
				lw.reportHeld(call.Pos(), "(*sync.Once).Do", held)
			}
		}
		return
	}
	// No static callee: a call of a function-typed value. Builtins and
	// type conversions resolve differently and never land here.
	fun := ast.Unparen(call.Fun)
	switch f := fun.(type) {
	case *ast.Ident:
		if _, ok := lw.info.Uses[f].(*types.Var); ok {
			lw.reportHeld(call.Pos(), fmt.Sprintf("callback %s(...)", f.Name), held)
		}
	case *ast.SelectorExpr:
		if sel, ok := lw.info.Selections[f]; ok && sel.Kind() == types.FieldVal {
			lw.reportHeld(call.Pos(), fmt.Sprintf("callback %s(...)", exprString(lw.p.fset, f)), held)
		}
	}
}

// checkGuarded enforces //abmm:guards annotations: a guarded field may
// only be touched with its declared mutex held on the same base.
func (lw *lockWalker) checkGuarded(sel *ast.SelectorExpr, parents []ast.Node, held map[string]heldLock) {
	v := fieldObj(lw.info, sel)
	if v == nil {
		return
	}
	g := lw.p.guards[lw.p.fset.Position(v.Pos()).String()]
	if g == nil {
		return
	}
	if lw.isScopeLocal(sel.X) {
		return // constructor pattern: the value is not shared yet
	}
	key := exprString(lw.p.fset, sel.X) + "." + g.guard
	h, ok := held[key]
	write := isMutatingContext(parents, sel)
	switch {
	case !ok:
		lw.p.report(sel.Sel.Pos(), lockCheck,
			fmt.Sprintf("field %s is declared //abmm:guards %s but %s is not held here", g.field, g.guard, key))
	case write && !h.write:
		lw.p.report(sel.Sel.Pos(), lockCheck,
			fmt.Sprintf("write to %s under read lock %s; take the write lock", g.field, key))
	}
}

// isScopeLocal reports whether the base expression is rooted at a
// variable declared inside the current scope body (not a parameter or
// receiver), i.e. a value this function just built.
func (lw *lockWalker) isScopeLocal(base ast.Expr) bool {
	for {
		switch b := ast.Unparen(base).(type) {
		case *ast.SelectorExpr:
			base = b.X
		case *ast.IndexExpr:
			base = b.X
		case *ast.StarExpr:
			base = b.X
		case *ast.Ident:
			obj := lw.info.Uses[b]
			if obj == nil {
				obj = lw.info.Defs[b]
			}
			if obj == nil {
				return false
			}
			pos := obj.Pos()
			return pos.IsValid() && lw.body != nil &&
				pos >= lw.body.Pos() && pos < lw.body.End()
		default:
			return false
		}
	}
}

// isMutatingContext reports whether the selector is written: the root
// of an assignment LHS, an IncDec operand, an address-taken operand,
// or the map argument of delete.
func isMutatingContext(parents []ast.Node, sel ast.Expr) bool {
	cur := ast.Node(sel)
	for i := len(parents) - 1; i >= 0; i-- {
		switch par := parents[i].(type) {
		case *ast.ParenExpr:
			cur = par
			continue
		case *ast.IndexExpr:
			if par.X != cur {
				return false // used as the index: a read
			}
			cur = par
			continue
		case *ast.AssignStmt:
			for _, lhs := range par.Lhs {
				if ast.Unparen(lhs) == cur {
					return true
				}
			}
			return false
		case *ast.IncDecStmt:
			return par.X == cur
		case *ast.UnaryExpr:
			return par.Op == token.AND
		case *ast.CallExpr:
			if id, ok := ast.Unparen(par.Fun).(*ast.Ident); ok && id.Name == "delete" &&
				len(par.Args) > 0 && ast.Unparen(par.Args[0]) == cur {
				return true
			}
			return false
		default:
			return false
		}
	}
	return false
}
