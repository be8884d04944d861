// Package lint is the repository's static-analysis suite (the engine
// behind cmd/abmmvet): a stdlib-only analyzer — go/parser, go/types,
// and the source importer, no x/tools — that type-checks every package
// of the module and enforces the invariants the runtime tests can only
// spot-check:
//
//   - hotpath-alloc: functions annotated //abmm:hotpath, and everything
//     they statically call within the module, must not allocate.
//   - atomic-consistency: a struct field accessed through sync/atomic
//     (or declared with a typed atomic.*) is never accessed plainly.
//   - float-discipline: no ==/!= between non-constant floats, and no
//     raw a*b−c residuals inside the compensated-arithmetic packages.
//   - rat-aliasing: no big.Rat/big.Int receiver mutation through a
//     borrowed At() pointer or across differently-indexed aliases.
//   - import-allowlist: stdlib-only imports module-wide plus a
//     per-package internal dependency DAG whose every edge is used.
//
// The service-layer checks (DESIGN.md §2h) guard the concurrency around
// the kernel:
//
//   - resource-pairing: every configured acquire (trace/span start, gate
//     acquire, plan claim, arena draw) reaches its release on every
//     return path, or is deferred.
//   - ctx-discipline: no context.Background()/TODO() outside package
//     main, and no exported entry point that takes a ctx and drops it.
//   - lock-discipline: no channel ops, blocking calls, or dynamic
//     callbacks while a mutex is held, and fields declared
//     //abmm:guards <mu> are only touched with their guard held.
//   - goroutine-lifecycle: every go statement has a reachable stop
//     signal (context, done channel, or WaitGroup discipline).
//   - metric-cardinality: Prometheus label values come from bounded
//     sets, not fmt.Sprintf chains or request-derived strings.
//
// Source directives tune the checks where the invariant is intentional:
//
//	//abmm:hotpath              (func doc) root of the no-alloc traversal
//	//abmm:coldpath             (func doc) excluded from the traversal;
//	                            may allocate (amortized or opt-in paths)
//	//abmm:allow <check> [...]  suppress the named checks on the
//	                            comment's line and the line below (as a
//	                            func doc comment: the whole function)
//	//abmm:guards <field>       (struct-field doc or trailing comment)
//	                            the field is guarded by the sibling
//	                            mutex field named <field>
//	//abmm:labels               (func doc) the variadic parameter takes
//	                            label name/value pairs, whose values
//	                            metric-cardinality judges at each call
//
// Every //abmm:allow must sit in a comment group that also carries at
// least one plain prose line justifying it, and must suppress at least
// one finding; a bare allow and a dead allow are themselves findings
// (unjustified-allow), and those findings cannot be suppressed.
//
// See DESIGN.md §2c and §2h for the directive contract and how to add a
// check.
package lint

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"slices"
	"sort"
	"strings"
)

// Finding is one reported violation.
type Finding struct {
	Pos     token.Position
	Check   string
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Check, f.Message)
}

// Config selects what Run analyzes and which package roles the checks
// assume. DefaultConfig returns the repository's configuration; the
// self-tests build fixture configs by hand.
type Config struct {
	// Dir is the module root; ModulePath overrides go.mod (required
	// when, like the test fixtures, the tree has none).
	Dir        string
	ModulePath string
	// Packages restricts the run to specific import paths; empty means
	// every package of the module.
	Packages []string
	// FakeImports tolerates unresolvable non-module imports (fixtures
	// exercising the import-allowlist check must still type-check).
	FakeImports bool

	// ParallelPkgs are dispatch packages whose exported functions take
	// worker closures: function literals passed directly to their calls
	// are exempt from the hotpath capture rule (parallel dispatch
	// allocates by design), and their own bodies are not traversed.
	ParallelPkgs map[string]bool
	// DDPkgs are compensated-arithmetic packages where float-discipline
	// additionally forbids raw a*b−c residuals (TwoProd/math.FMA
	// territory).
	DDPkgs map[string]bool
	// AllowedImports is the internal dependency DAG: package import
	// path → module-internal imports it may use, each of which some base
	// file of the package must import. Packages missing from the map
	// may import no module packages until registered here. nil
	// disables the DAG half of import-allowlist (stdlib-only is still
	// enforced).
	AllowedImports map[string][]string
	// Pairs is the resource-pairing table: acquiring calls whose result
	// must reach a matching release on every return path. Empty
	// disables the resource-pairing check.
	Pairs []Pair
}

// CheckNames lists every check the suite runs, in reporting order.
// cmd/abmmvet prints it so CI can assert the full suite is active.
func CheckNames() []string {
	return []string{
		importCheck, hotpathCheck, atomicCheck, alignCheck,
		floatCheck, ratCheck, pairingCheck, ctxCheck,
		lockCheck, goroutineCheck, metricCheck, allowCheck,
	}
}

// Run loads the module and applies every check, returning findings
// sorted by position. An error means the load or type-check itself
// failed (the module does not compile), not that findings exist.
func Run(cfg Config) ([]Finding, error) {
	l, err := NewLoader(cfg.Dir, cfg.ModulePath)
	if err != nil {
		return nil, err
	}
	l.FakeImports = cfg.FakeImports
	paths := cfg.Packages
	if len(paths) == 0 {
		paths, err = l.ModulePackages()
		if err != nil {
			return nil, err
		}
	}
	p := &pass{
		cfg:     &cfg,
		fset:    l.Fset,
		loader:  l,
		seen:    make(map[string]bool),
		declOf:  make(map[*ast.FuncDecl]*Package),
		funcIdx: make(map[string]*ast.FuncDecl),
	}
	for _, path := range paths {
		units, err := l.LoadUnits(path)
		if err != nil {
			return nil, err
		}
		p.units = append(p.units, units...)
		for _, u := range units {
			if u.Kind == unitBase {
				p.base = append(p.base, u)
			}
		}
	}
	p.scanDirectives()
	p.indexDecls()

	checkImports(p)
	checkHotpath(p)
	checkAtomic(p)
	checkFloat(p)
	checkRat(p)
	checkPairing(p)
	checkCtx(p)
	checkLock(p)
	checkGoroutine(p)
	checkMetrics(p)
	for _, d := range p.allows {
		if !d.used {
			p.reportAllow(d.pos, fmt.Sprintf("//abmm:allow %s suppresses no finding; delete it",
				strings.Join(d.checks, " ")))
		}
	}

	sort.Slice(p.findings, func(i, j int) bool {
		a, b := p.findings[i], p.findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return p.findings, nil
}

// pass is the shared state of one Run: loaded units, the directive
// tables, the function-declaration index for the hotpath traversal,
// and the deduplicated finding list.
type pass struct {
	cfg    *Config
	fset   *token.FileSet
	loader *Loader
	units  []*Package
	base   []*Package

	// hot/cold/labels mark annotated functions. allows lists every
	// //abmm:allow; allowFunc holds the function-scoped ones (a doc
	// comment's function body), allowLine[file][line] the line-scoped.
	hot       map[*ast.FuncDecl]bool
	cold      map[*ast.FuncDecl]bool
	labels    map[*ast.FuncDecl]bool
	allows    []*allowDir
	allowFunc []allowSpan
	allowLine map[string]map[int]*allowDir

	// guards maps a struct-field declaration position (the stable
	// cross-universe key) to the //abmm:guards declaration on it.
	guards map[string]*guardDecl

	// funcIdx maps a function object (keyed by its declaration
	// position, which is stable across test-unit re-checks) to its
	// declaration; declOf maps declarations back to their package for
	// Info lookups.
	funcIdx map[string]*ast.FuncDecl
	declOf  map[*ast.FuncDecl]*Package

	findings []Finding
	seen     map[string]bool
}

// report records a finding unless a directive or an earlier identical
// report suppresses it. Every directive that covers the finding is
// marked used.
func (p *pass) report(pos token.Pos, check, msg string) {
	position := p.fset.Position(pos)
	suppressed := false
	for _, ln := range [2]int{position.Line, position.Line - 1} {
		suppressed = p.allowLine[position.Filename][ln].use(check) || suppressed
	}
	for _, s := range p.allowFunc {
		if pos >= s.from && pos < s.to {
			suppressed = s.dir.use(check) || suppressed
		}
	}
	if suppressed {
		return
	}
	key := fmt.Sprintf("%s|%s|%s", position, check, msg)
	if p.seen[key] {
		return
	}
	p.seen[key] = true
	p.findings = append(p.findings, Finding{Pos: position, Check: check, Message: msg})
}

// allowCheck rejects //abmm:allow directives whose comment group
// carries no prose justification, or that suppress no finding. It is
// the one check a directive cannot suppress: an allow cannot vouch for
// itself.
const allowCheck = "unjustified-allow"

// allowDir is one //abmm:allow directive; used records whether it
// suppressed a finding.
type allowDir struct {
	pos    token.Position
	checks []string
	used   bool
}

// use reports whether d suppresses check, marking d used if so. A nil
// d suppresses nothing.
func (d *allowDir) use(check string) bool {
	if d == nil || !slices.Contains(d.checks, check) && !slices.Contains(d.checks, "all") {
		return false
	}
	d.used = true
	return true
}

// allowSpan is a function-scoped allow: it covers [from, to), the
// annotated declaration.
type allowSpan struct {
	from, to token.Pos
	dir      *allowDir
}

// reportAllow records an unjustified-allow finding, bypassing report:
// no directive's suppression applies to it.
func (p *pass) reportAllow(position token.Position, msg string) {
	key := fmt.Sprintf("%s|%s", position, allowCheck)
	if !p.seen[key] {
		p.seen[key] = true
		p.findings = append(p.findings, Finding{Pos: position, Check: allowCheck, Message: msg})
	}
}

// guardDecl is one //abmm:guards annotation: the guarded field and the
// name of the sibling mutex field that must be held to touch it.
type guardDecl struct {
	field string // guarded field name, for diagnostics
	guard string // sibling mutex field name
}

// scanDirectives builds the directive tables from every comment of
// every loaded file. Files shared between units are scanned once.
func (p *pass) scanDirectives() {
	p.hot = make(map[*ast.FuncDecl]bool)
	p.cold = make(map[*ast.FuncDecl]bool)
	p.labels = make(map[*ast.FuncDecl]bool)
	p.allowLine = make(map[string]map[int]*allowDir)
	p.guards = make(map[string]*guardDecl)
	done := make(map[*ast.File]bool)
	for _, u := range p.units {
		for _, f := range u.Files {
			if done[f] {
				continue
			}
			done[f] = true
			p.scanFileDirectives(f)
		}
	}
}

// hasJustification reports whether the comment group contains at least
// one non-directive prose line (the human reason for the directive).
func hasJustification(cg *ast.CommentGroup) bool {
	for _, c := range cg.List {
		if strings.HasPrefix(c.Text, "//abmm:") {
			continue
		}
		text := strings.TrimPrefix(strings.TrimPrefix(c.Text, "/*"), "//")
		text = strings.TrimSuffix(text, "*/")
		if strings.TrimSpace(text) != "" {
			return true
		}
	}
	return false
}

func (p *pass) scanFileDirectives(f *ast.File) {
	docs := make(map[*ast.CommentGroup]*ast.FuncDecl)
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Doc != nil {
			docs[fd.Doc] = fd
		}
	}
	// Struct-field comments host the //abmm:guards directive; both the
	// doc position (above the field) and the trailing comment count.
	fieldDocs := make(map[*ast.CommentGroup]*ast.Field)
	ast.Inspect(f, func(n ast.Node) bool {
		st, ok := n.(*ast.StructType)
		if !ok || st.Fields == nil {
			return true
		}
		for _, fld := range st.Fields.List {
			if fld.Doc != nil {
				fieldDocs[fld.Doc] = fld
			}
			if fld.Comment != nil {
				fieldDocs[fld.Comment] = fld
			}
		}
		return true
	})
	for _, cg := range f.Comments {
		fd := docs[cg]
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, "//abmm:")
			if !ok {
				continue
			}
			verb, args, _ := strings.Cut(rest, " ")
			switch verb {
			case "hotpath":
				if fd != nil {
					p.hot[fd] = true
				}
			case "coldpath":
				if fd != nil {
					p.cold[fd] = true
				}
			case "labels":
				if fd != nil {
					p.labels[fd] = true
				}
			case "guards":
				fld := fieldDocs[cg]
				guard := strings.TrimSpace(args)
				if fld == nil || guard == "" {
					continue
				}
				for _, name := range fld.Names {
					key := p.fset.Position(name.Pos()).String()
					p.guards[key] = &guardDecl{field: name.Name, guard: guard}
				}
			case "allow":
				// An embedded "//" ends the check-name list (it marks
				// trailing commentary, e.g. the fixtures' want tags).
				names, _, _ := strings.Cut(args, "//")
				checks := strings.Fields(names)
				if len(checks) == 0 {
					continue
				}
				d := &allowDir{pos: p.fset.Position(c.Pos()), checks: checks}
				p.allows = append(p.allows, d)
				if !hasJustification(cg) {
					p.reportAllow(d.pos, fmt.Sprintf(
						"//abmm:allow %s has no justifying comment; say why in the same comment group",
						strings.Join(checks, " ")))
				}
				if fd != nil {
					p.allowFunc = append(p.allowFunc, allowSpan{from: fd.Pos(), to: fd.End(), dir: d})
					continue
				}
				lines := p.allowLine[d.pos.Filename]
				if lines == nil {
					lines = make(map[int]*allowDir)
					p.allowLine[d.pos.Filename] = lines
				}
				lines[d.pos.Line] = d
			}
		}
	}
}

// indexDecls builds the base-universe function index the hotpath
// traversal resolves static callees against. Keys are declaration
// positions, which identify a function across the independent type
// universes of test units.
func (p *pass) indexDecls() {
	for _, u := range p.base {
		for _, f := range u.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name == nil {
					continue
				}
				obj := u.Info.Defs[fd.Name]
				if obj == nil {
					continue
				}
				p.funcIdx[p.fset.Position(obj.Pos()).String()] = fd
				p.declOf[fd] = u
			}
		}
	}
}

// declFor resolves a types.Object (from any unit's universe) to its
// module declaration, or nil for stdlib and declaration-less objects.
func (p *pass) declFor(obj interface{ Pos() token.Pos }) *ast.FuncDecl {
	if obj == nil {
		return nil
	}
	pos := obj.Pos()
	if !pos.IsValid() {
		return nil
	}
	return p.funcIdx[p.fset.Position(pos).String()]
}

// walkParents traverses root calling fn with every node and its
// ancestor stack (parents[len-1] is the immediate parent). Returning
// false prunes the subtree.
func walkParents(root ast.Node, fn func(n ast.Node, parents []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(n, stack) {
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// exprString renders an expression for messages and for the textual
// alias comparisons of rat-aliasing and the x != x idiom.
func exprString(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		return fmt.Sprintf("%T", e)
	}
	return buf.String()
}
