package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// metric-cardinality: Prometheus label values must come from bounded
// sets, or the time-series count grows with traffic until the scrape
// (and the process) falls over. The check judges the label values of
// two kinds of call: the variadic name/value pairs passed to a
// function marked //abmm:labels (obs.Family's sample writers; a slice
// spread into them is not followed), and the operands of string verbs
// that a constant fmt.Sprintf/Fprintf/Appendf format puts in a
// label-value position — inside a {...} block, immediately after `=`
// or `="`:
//
//   - flagged: the result of fmt.Sprintf/Sprint/Sprintln (an unbounded
//     string build), a non-constant string concatenation, or any
//     expression rooted at request data (*http.Request, http.Header,
//     url.Values, *url.URL)
//   - fine: constants, numeric verbs, struct-field reads and method
//     calls (the PlanRegistry pattern: bounded by construction)
//
// Only base units are scanned.

const metricCheck = "metric-cardinality"

func checkMetrics(p *pass) {
	for _, u := range p.base {
		info := u.Info
		for _, f := range u.ScanFiles {
			walkParents(f, func(n ast.Node, parents []ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				args := labelValueArgs(p, info, call)
				if len(args) == 0 {
					return true
				}
				var fd *ast.FuncDecl
				for _, par := range parents {
					if d, ok := par.(*ast.FuncDecl); ok {
						fd = d
					}
				}
				if p.allowedInFunc(fd, metricCheck) {
					return true
				}
				for _, arg := range args {
					if msg := judgeLabelArg(info, arg); msg != "" {
						p.report(arg.Pos(), metricCheck,
							fmt.Sprintf("metric label value %s: %s; label values must come from a bounded set",
								exprString(p.fset, arg), msg))
					}
				}
				return true
			})
		}
	}
}

// formatArgs maps the recognized fmt formatting calls to the index of
// their format-string argument.
var formatArgs = map[string]int{"fmt.Sprintf": 0, "fmt.Printf": 0, "fmt.Fprintf": 1, "fmt.Appendf": 1}

// labelValueArgs returns the arguments of call that become metric
// label values: the pair values of an //abmm:labels function, or the
// label-position operands of a recognized fmt formatting call.
func labelValueArgs(p *pass, info *types.Info, call *ast.CallExpr) []ast.Expr {
	fn, _ := staticCallee(info, call)
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	var out []ast.Expr
	if p.labels[p.declFor(fn)] {
		// The pairs start at the variadic parameter, values at its odd
		// offsets; a spread slice leaves no argument past it.
		for i := fn.Type().(*types.Signature).Params().Len(); i < len(call.Args); i += 2 {
			out = append(out, call.Args[i])
		}
		return out
	}
	fmtIdx, ok := formatArgs[fn.Pkg().Path()+"."+fn.Name()]
	if !ok || fmtIdx >= len(call.Args) {
		return nil
	}
	format, ok := constString(info, call.Args[fmtIdx])
	if !ok {
		return nil
	}
	for _, vi := range labelVerbIndexes(format) {
		if argIdx := fmtIdx + 1 + vi; argIdx < len(call.Args) {
			out = append(out, call.Args[argIdx])
		}
	}
	return out
}

func constString(info *types.Info, e ast.Expr) (string, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// labelVerbIndexes scans a format string and returns the verb ordinals
// (0-based argument offsets) that produce a label value: a verb inside
// a {...} block directly preceded by = or =".
func labelVerbIndexes(format string) []int {
	var out []int
	verb := 0
	depth := 0
	for i := 0; i < len(format); i++ {
		switch format[i] {
		case '{':
			depth++
		case '}':
			if depth > 0 {
				depth--
			}
		case '%':
			if i+1 < len(format) && format[i+1] == '%' {
				i++
				continue
			}
			// Scan flags, width, precision, then the verb letter.
			j := i + 1
			for j < len(format) && strings.ContainsRune("+-# 0123456789.*", rune(format[j])) {
				if format[j] == '*' {
					verb++ // * consumes an argument
				}
				j++
			}
			if j >= len(format) {
				return out
			}
			if depth > 0 && isLabelValuePosition(format[:i]) && isStringVerb(format[j]) {
				out = append(out, verb)
			}
			verb++
			i = j
		}
	}
	return out
}

// isLabelValuePosition reports whether the text before a verb ends in
// the label=value introducer (= or =").
func isLabelValuePosition(prefix string) bool {
	return strings.HasSuffix(prefix, "=") || strings.HasSuffix(prefix, `="`)
}

// isStringVerb reports whether the verb can inject unbounded text.
// Numeric and boolean verbs are bounded by their domain.
func isStringVerb(v byte) bool {
	switch v {
	case 's', 'q', 'v', 'x', 'X':
		return true
	}
	return false
}

// judgeLabelArg returns a non-empty reason when the expression can
// produce an unbounded label value.
func judgeLabelArg(info *types.Info, arg ast.Expr) string {
	arg = ast.Unparen(arg)
	if tv, ok := info.Types[arg]; ok && tv.Value != nil {
		return "" // constant: bounded
	}
	switch a := arg.(type) {
	case *ast.CallExpr:
		if fn, _ := staticCallee(info, a); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
			return "built with fmt." + fn.Name()
		}
	case *ast.BinaryExpr:
		if a.Op == token.ADD && isString(typeOf(info, arg)) {
			return "non-constant string concatenation"
		}
	}
	if root := requestRooted(info, arg); root != "" {
		return "derived from request data (" + root + ")"
	}
	return ""
}

// requestRooted returns the offending type name when any part of the
// expression has a request-data type.
func requestRooted(info *types.Info, arg ast.Expr) string {
	found := ""
	ast.Inspect(arg, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		t := typeOf(info, e)
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			return true
		}
		obj := named.Obj()
		if obj.Pkg() == nil {
			return true
		}
		switch obj.Pkg().Path() + "." + obj.Name() {
		case "net/http.Request", "net/http.Header", "net/url.Values", "net/url.URL":
			found = obj.Pkg().Name() + "." + obj.Name()
		}
		return found == ""
	})
	return found
}
