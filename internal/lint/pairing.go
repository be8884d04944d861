package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// resource-pairing: every configured acquire — a reqtrace trace/span
// start, a gate acquire, a PlanRegistry claim, an arena draw — must
// reach its release on every return path of the function that
// performed it, or be deferred (which also covers panic paths). The
// analysis is CFG-lite in the style of vet's lostcancel: it walks the
// statement list of the acquiring function, treats a deferred release
// as satisfying every subsequent path, and flags return statements
// (and falling off the end) reached while the resource is live.
//
// It is escape-tolerant: a resource that is returned, stored into a
// struct or slice, passed to a non-release call, sent on a channel, or
// captured by a non-deferred closure is considered handed off, and the
// function is no longer responsible for it (ownership transfer — the
// Plan.retire pattern). Returns inside a branch that tests the
// acquire's error result are exempt: on those paths the resource was
// never handed out (gate.acquire returns a nil release with its
// errors). A resource whose result is discarded outright (assigned to
// _ or evaluated as a bare expression statement) is always a finding.
//
// Only base units are scanned: tests legitimately build half-finished
// traces to probe intermediate states.

const pairingCheck = "resource-pairing"

// Pair describes one acquire/release obligation. Acquire and pass-
// style releases are matched by types.Func.FullName, e.g.
// "(*abmm/internal/reqtrace.Trace).StartSpan" or
// "abmm/internal/reqtrace.New".
type Pair struct {
	// Acquire is the full name of the acquiring function.
	Acquire string
	// Result is the index of the resource in the acquire's result
	// tuple (0 for single-result functions).
	Result int
	// Err is the index of an error result whose guard exempts returns
	// (-1 when the acquire cannot fail).
	Err int
	// Releases lists the accepted release forms, each one of:
	//   "method:Name"     a call of method Name on the resource
	//   "call"            the resource is itself a func; calling it
	//   "pass:<FullName>" the resource passed to the named function
	Releases []string
	// What names the resource in diagnostics ("span", "gate slot", ...).
	What string
}

func checkPairing(p *pass) {
	if len(p.cfg.Pairs) == 0 {
		return
	}
	pairs := make(map[string]*Pair, len(p.cfg.Pairs))
	for i := range p.cfg.Pairs {
		pairs[p.cfg.Pairs[i].Acquire] = &p.cfg.Pairs[i]
	}
	for _, u := range p.base {
		for _, f := range u.ScanFiles {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if p.allowedInFunc(fd, pairingCheck) {
					continue
				}
				// Each function literal is its own scope: a resource
				// acquired inside it must be settled inside it.
				forEachScope(fd.Body, func(body *ast.BlockStmt) {
					pairScope(p, u.Info, pairs, body)
				})
			}
		}
	}
}

// forEachScope calls fn on body and on the body of every function
// literal nested inside it.
func forEachScope(body *ast.BlockStmt, fn func(*ast.BlockStmt)) {
	fn(body)
	ast.Inspect(body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			forEachScope(fl.Body, fn)
			return false
		}
		return true
	})
}

// liveResource is one tracked acquisition within a scope.
type liveResource struct {
	pair   *Pair
	obj    types.Object // the variable bound to the resource
	errObj types.Object // the error result bound alongside it, if any
	site   *ast.AssignStmt
	pos    token.Pos
	// scope is the innermost block enclosing the acquisition: the
	// variable cannot outlive it, so the obligation is checked against
	// its paths, not the whole function's. A span started and ended
	// inside one loop iteration or branch body is settled there.
	scope *ast.BlockStmt
}

// pairScope finds the acquisitions bound in body (not in nested
// literals) and path-checks each one within its innermost block.
func pairScope(p *pass, info *types.Info, pairs map[string]*Pair, body *ast.BlockStmt) {
	var live []*liveResource
	walkParents(body, func(n ast.Node, parents []ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		switch n := n.(type) {
		case *ast.ExprStmt:
			call, ok := ast.Unparen(n.X).(*ast.CallExpr)
			if !ok {
				break
			}
			if pair := matchAcquire(info, pairs, call); pair != nil {
				p.report(call.Pos(), pairingCheck,
					fmt.Sprintf("%s returned by %s is discarded; it can never be released",
						pair.What, shortName(pair.Acquire)))
			}
		case *ast.AssignStmt:
			scope := enclosingBlock(parents, body)
			for _, r := range acquisitions(p, info, pairs, n) {
				r.scope = scope
				live = append(live, r)
			}
		}
		return true
	})
	for _, r := range live {
		pairPath(p, info, r.scope, r)
	}
}

// enclosingBlock returns the innermost statement block in parents
// (innermost last) that the path walker can traverse — switch/select
// bodies hold clauses, not statements, so they and anything narrower
// are skipped in favor of the next block out. Falls back to the
// function body.
func enclosingBlock(parents []ast.Node, body *ast.BlockStmt) *ast.BlockStmt {
	for i := len(parents) - 1; i >= 0; i-- {
		b, ok := parents[i].(*ast.BlockStmt)
		if !ok {
			continue
		}
		if i > 0 {
			switch parents[i-1].(type) {
			case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
				continue
			}
		}
		return b
	}
	return body
}

// acquisitions extracts the resources bound by one assignment,
// reporting resources assigned to the blank identifier on the spot.
func acquisitions(p *pass, info *types.Info, pairs map[string]*Pair, as *ast.AssignStmt) []*liveResource {
	var out []*liveResource
	bind := func(pair *Pair, resultBase int, call *ast.CallExpr) {
		if pair.Result+resultBase >= len(as.Lhs) {
			return
		}
		lhs := ast.Unparen(as.Lhs[pair.Result+resultBase])
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return // stored into a field/element: ownership transfer
		}
		if id.Name == "_" {
			p.report(call.Pos(), pairingCheck,
				fmt.Sprintf("%s returned by %s is discarded; it can never be released",
					pair.What, shortName(pair.Acquire)))
			return
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil {
			return
		}
		r := &liveResource{pair: pair, obj: obj, site: as, pos: call.Pos()}
		if pair.Err >= 0 && pair.Err+resultBase < len(as.Lhs) {
			if eid, ok := ast.Unparen(as.Lhs[pair.Err+resultBase]).(*ast.Ident); ok && eid.Name != "_" {
				if eo := info.Defs[eid]; eo != nil {
					r.errObj = eo
				} else {
					r.errObj = info.Uses[eid]
				}
			}
		}
		out = append(out, r)
	}
	if len(as.Rhs) == 1 {
		if call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok {
			if pair := matchAcquire(info, pairs, call); pair != nil {
				bind(pair, 0, call)
			}
		}
		return out
	}
	// 1:1 multi-assignment: each RHS call yields exactly one value.
	for i, rhs := range as.Rhs {
		if i >= len(as.Lhs) {
			break
		}
		if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
			if pair := matchAcquire(info, pairs, call); pair != nil && pair.Result == 0 {
				bind(pair, i, call)
			}
		}
	}
	return out
}

// matchAcquire returns the pair a call acquires from, or nil.
func matchAcquire(info *types.Info, pairs map[string]*Pair, call *ast.CallExpr) *Pair {
	fn, _ := staticCallee(info, call)
	if fn == nil {
		return nil
	}
	return pairs[fn.FullName()]
}

// shortName trims the package path from a full function name for
// diagnostics: "(*abmm/internal/reqtrace.Trace).StartSpan" →
// "(*reqtrace.Trace).StartSpan".
func shortName(full string) string {
	out := full
	for {
		i := strings.LastIndex(out, "/")
		if i < 0 {
			return out
		}
		j := strings.LastIndexAny(out[:i], "(* ")
		out = out[:j+1] + out[i+1:]
	}
}

// pathState is the walker's view of one resource at a program point.
type pathState struct {
	released bool // a release (or deferred release) dominates this point
	escaped  bool // ownership handed off; obligations end
}

// pairPath walks the scope's statements tracking one resource and
// reports if any return path leaves it live.
func pairPath(p *pass, info *types.Info, body *ast.BlockStmt, r *liveResource) {
	w := &pairWalker{p: p, info: info, r: r}
	st := &pathState{}
	w.stmts(body.List, st, false)
	if w.reported {
		return
	}
	if !st.released && !st.escaped && !w.endUnreachable(body) {
		p.report(r.pos, pairingCheck,
			fmt.Sprintf("%s returned by %s is not %s before the function returns",
				r.pair.What, shortName(r.pair.Acquire), releaseDesc(r.pair)))
	}
}

func releaseDesc(pair *Pair) string {
	var forms []string
	for _, rel := range pair.Releases {
		switch {
		case strings.HasPrefix(rel, "method:"):
			forms = append(forms, "."+strings.TrimPrefix(rel, "method:")+"()")
		case rel == "call":
			forms = append(forms, "called")
		case strings.HasPrefix(rel, "pass:"):
			forms = append(forms, "passed to "+shortName(strings.TrimPrefix(rel, "pass:")))
		}
	}
	if len(forms) == 0 {
		return "released"
	}
	return "released (" + strings.Join(forms, " or ") + ")"
}

type pairWalker struct {
	p        *pass
	info     *types.Info
	r        *liveResource
	reported bool
}

// endUnreachable reports whether the scope's last statement terminates
// (so falling off the end never happens).
func (w *pairWalker) endUnreachable(body *ast.BlockStmt) bool {
	if len(body.List) == 0 {
		return false
	}
	switch last := body.List[len(body.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ForStmt:
		return last.Cond == nil // for {}: no fallthrough
	case *ast.ExprStmt:
		call, ok := ast.Unparen(last.X).(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		return ok && id.Name == "panic"
	}
	return false
}

func (w *pairWalker) flag(pos token.Pos) {
	if w.reported {
		return
	}
	w.reported = true
	w.p.report(w.r.pos, pairingCheck,
		fmt.Sprintf("%s returned by %s is not %s on every return path; release it or defer the release",
			w.r.pair.What, shortName(w.r.pair.Acquire), releaseDesc(w.r.pair)))
}

// stmts walks a statement list updating st. guarded marks statements
// under an error-result or nil-resource test, where early returns are
// exempt.
func (w *pairWalker) stmts(list []ast.Stmt, st *pathState, guarded bool) {
	for _, s := range list {
		w.stmt(s, st, guarded)
	}
}

func (w *pairWalker) stmt(s ast.Stmt, st *pathState, guarded bool) {
	if st.escaped {
		return
	}
	// Statements that end before the acquire (early-validation returns,
	// fast-path branches) cannot touch the resource and their returns
	// never see it live: skip them outright.
	if s.End() < w.r.site.Pos() {
		return
	}
	switch s := s.(type) {
	case *ast.AssignStmt:
		if s == w.r.site {
			return // the acquire itself: LHS binds, nothing to classify
		}
		w.scanExpr(s, st)
	case *ast.ExprStmt, *ast.IncDecStmt, *ast.SendStmt, *ast.DeclStmt:
		w.scanExpr(s, st)
	case *ast.DeferStmt:
		w.deferStmt(s, st)
	case *ast.ReturnStmt:
		for _, res := range s.Results {
			if w.exprMentions(res, w.r.obj) {
				st.escaped = true // returned to the caller: handed off
				return
			}
		}
		if !st.released && !st.escaped && !guarded {
			w.flag(s.Pos())
		}
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, st, guarded)
		}
		w.scanExpr(s.Cond, st)
		condGuards := guarded || w.condGuards(s.Cond)
		bodySt := *st
		w.stmts(s.Body.List, &bodySt, condGuards)
		elseSt := *st
		if s.Else != nil {
			w.stmt(s.Else, &elseSt, condGuards)
		}
		// A release inside a branch testing the resource itself (the
		// "if v != nil { v.End() }" idiom) settles the obligation: on
		// the untaken path there was nothing to release.
		if w.condTestsResource(s.Cond) && (bodySt.released || elseSt.released) {
			st.released = true
		}
		if s.Else != nil {
			st.released = st.released || (bodySt.released && elseSt.released)
		}
		st.escaped = st.escaped || bodySt.escaped || elseSt.escaped
	case *ast.BlockStmt:
		w.stmts(s.List, st, guarded)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, st, guarded)
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, st, guarded)
		}
		if s.Cond != nil {
			w.scanExpr(s.Cond, st)
		}
		bodySt := *st
		w.stmts(s.Body.List, &bodySt, guarded)
		st.escaped = st.escaped || bodySt.escaped
	case *ast.RangeStmt:
		w.scanExpr(s.X, st)
		bodySt := *st
		w.stmts(s.Body.List, &bodySt, guarded)
		st.escaped = st.escaped || bodySt.escaped
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		w.branches(s, st, guarded)
	case *ast.GoStmt:
		w.scanExpr(s.Call, st)
	}
}

// branches walks every clause of a switch/select with a copy of the
// state; escapes propagate, releases only count if every clause (and a
// default) releases.
func (w *pairWalker) branches(s ast.Stmt, st *pathState, guarded bool) {
	var clauses []ast.Stmt
	hasDefault := false
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, st, guarded)
		}
		if s.Tag != nil {
			w.scanExpr(s.Tag, st)
		}
		clauses = s.Body.List
	case *ast.TypeSwitchStmt:
		clauses = s.Body.List
	case *ast.SelectStmt:
		clauses = s.Body.List
	}
	allRelease := len(clauses) > 0
	for _, c := range clauses {
		var body []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				w.scanExpr(e, st)
			}
			hasDefault = hasDefault || c.List == nil
			body = c.Body
		case *ast.CommClause:
			hasDefault = hasDefault || c.Comm == nil
			body = c.Body
		}
		cs := *st
		w.stmts(body, &cs, guarded)
		st.escaped = st.escaped || cs.escaped
		allRelease = allRelease && cs.released
	}
	if allRelease && hasDefault {
		st.released = true
	}
}

// condGuards reports whether a condition tests the acquire's error
// result or the resource itself — branches under it may return early
// without releasing (the resource is nil there).
func (w *pairWalker) condGuards(cond ast.Expr) bool {
	return w.exprMentions(cond, w.r.errObj) || w.exprMentions(cond, w.r.obj)
}

func (w *pairWalker) condTestsResource(cond ast.Expr) bool {
	return w.exprMentions(cond, w.r.obj)
}

func (w *pairWalker) exprMentions(e ast.Expr, obj types.Object) bool {
	if e == nil || obj == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && w.info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// deferStmt handles defer: a deferred release settles the resource for
// the whole rest of the function, including panic unwinding.
func (w *pairWalker) deferStmt(s *ast.DeferStmt, st *pathState) {
	if w.isRelease(s.Call) {
		st.released = true
		return
	}
	if fl, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
		releases := false
		ast.Inspect(fl.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && w.isRelease(call) {
				releases = true
			}
			return !releases
		})
		if releases {
			st.released = true
			return
		}
	}
	w.scanExpr(s.Call, st)
}

// isRelease reports whether a call releases the tracked resource under
// one of the pair's accepted forms.
func (w *pairWalker) isRelease(call *ast.CallExpr) bool {
	for _, rel := range w.r.pair.Releases {
		switch {
		case strings.HasPrefix(rel, "method:"):
			name := strings.TrimPrefix(rel, "method:")
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if ok && sel.Sel.Name == name && w.isResourceExpr(sel.X) {
				return true
			}
		case rel == "call":
			if w.isResourceExpr(call.Fun) {
				return true
			}
		case strings.HasPrefix(rel, "pass:"):
			full := strings.TrimPrefix(rel, "pass:")
			fn, _ := staticCallee(w.info, call)
			if fn == nil || fn.FullName() != full {
				continue
			}
			for _, a := range call.Args {
				if w.isResourceExpr(a) {
					return true
				}
			}
		}
	}
	return false
}

func (w *pairWalker) isResourceExpr(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && w.info.Uses[id] == w.r.obj
}

// scanExpr classifies every use of the resource inside a statement or
// expression: releases flip released, hand-offs flip escaped. Uses in
// comparisons and as a method receiver are neutral.
func (w *pairWalker) scanExpr(root ast.Node, st *pathState) {
	if root == nil {
		return
	}
	walkParents(root, func(n ast.Node, parents []ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			// A non-deferred closure capturing the resource may run at
			// any time: hand-off.
			if w.exprMentionsNode(fl.Body) {
				st.escaped = true
			}
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || w.info.Uses[id] != w.r.obj {
			return true
		}
		if w.classifyUse(id, parents, st) {
			st.escaped = true
		}
		return true
	})
}

func (w *pairWalker) exprMentionsNode(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		if id, ok := c.(*ast.Ident); ok && w.info.Uses[id] == w.r.obj {
			found = true
		}
		return !found
	})
	return found
}

// classifyUse inspects one identifier use; it may mark a release on st
// and returns true when the use hands the resource off.
func (w *pairWalker) classifyUse(id *ast.Ident, parents []ast.Node, st *pathState) bool {
	for i := len(parents) - 1; i >= 0; i-- {
		switch par := parents[i].(type) {
		case *ast.ParenExpr:
			continue
		case *ast.SelectorExpr:
			if ast.Unparen(par.X) != id {
				return false // resource is the selected name elsewhere
			}
			// Receiver position: a release method settles it, any other
			// method use is neutral (spans take Annotate etc.). The
			// enclosing call is one step outward in the parent stack.
			if i > 0 {
				if call, ok := parents[i-1].(*ast.CallExpr); ok && ast.Unparen(call.Fun) == par {
					if w.isRelease(call) {
						st.released = true
					}
					return false
				}
			}
			return false // field read or method value: neutral enough
		case *ast.CallExpr:
			if ast.Unparen(par.Fun) == id {
				// The resource called as a function: the "call" form.
				if w.isRelease(par) {
					st.released = true
					return false
				}
				return false
			}
			// Argument position: a pass-release settles it, anything
			// else is a hand-off.
			if w.isRelease(par) {
				st.released = true
				return false
			}
			return true
		case *ast.BinaryExpr:
			return false // comparisons (v != nil) are neutral
		case *ast.AssignStmt:
			for _, lhs := range par.Lhs {
				if ast.Unparen(lhs) == id {
					return false // reassignment target, not a use
				}
			}
			return true // copied into another variable: hand-off
		case *ast.ReturnStmt, *ast.CompositeLit, *ast.UnaryExpr,
			*ast.SendStmt, *ast.IndexExpr, *ast.KeyValueExpr:
			return true
		case *ast.IfStmt, *ast.ForStmt, *ast.SwitchStmt, *ast.ExprStmt:
			return false
		default:
			return true
		}
	}
	return false
}
