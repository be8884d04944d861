package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// ctx-discipline: cancellation must flow from the caller down, not be
// minted mid-stack. Two rules, both over base units only (tests mint
// root contexts legitimately):
//
//   - context.Background() / context.TODO() may only appear in package
//     main, which owns the process-level root. Anywhere else it severs
//     an incoming deadline or cancellation.
//
//   - an exported function or method that accepts a context.Context
//     and never reads it silently drops the caller's cancellation.
//     Naming the parameter _ is the explicit opt-out for signatures
//     pinned by an interface.

const ctxCheck = "ctx-discipline"

func checkCtx(p *pass) {
	for _, u := range p.base {
		if u.Types == nil || u.Types.Name() == "main" {
			continue
		}
		info := u.Info
		for _, f := range u.ScanFiles {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkCtxRoots(p, info, fd)
				checkCtxDropped(p, info, fd)
			}
		}
	}
}

// checkCtxRoots flags context.Background/TODO calls inside fd.
func checkCtxRoots(p *pass, info *types.Info, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn, _ := staticCallee(info, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
			return true
		}
		if name := fn.Name(); name == "Background" || name == "TODO" {
			p.report(call.Pos(), ctxCheck,
				fmt.Sprintf("context.%s() outside package main severs the caller's cancellation; thread a ctx parameter instead", name))
		}
		return true
	})
}

// checkCtxDropped flags exported entry points that take a ctx and
// never use it.
func checkCtxDropped(p *pass, info *types.Info, fd *ast.FuncDecl) {
	if !fd.Name.IsExported() || fd.Type.Params == nil {
		return
	}
	for _, field := range fd.Type.Params.List {
		t := typeOf(info, field.Type)
		if !isContextType(t) {
			continue
		}
		for _, name := range field.Names {
			if name.Name == "_" {
				continue // explicit opt-out (interface-pinned signature)
			}
			obj := info.Defs[name]
			if obj == nil {
				continue
			}
			used := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
					used = true
				}
				return !used
			})
			if !used {
				p.report(name.Pos(), ctxCheck,
					fmt.Sprintf("exported %s takes ctx but never uses it; the caller's cancellation is dropped", fd.Name.Name))
			}
		}
	}
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
