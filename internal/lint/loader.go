package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The loader type-checks a Go module with nothing but the standard
// library: go/parser for syntax, go/build for file selection (build
// tags, _test.go splits), go/types for semantics, and the go/importer
// source importer for standard-library dependencies. Modern Go
// toolchains ship no export data for the standard library, so the
// source importer re-type-checks stdlib packages from $GOROOT/src —
// slow the first time, cached afterwards. Module-internal imports are
// resolved recursively by the loader itself so that every package in
// one Run shares a single type universe (object identities unify
// across packages, which the hotpath traversal depends on).

// unitKind distinguishes the three type-check units a directory can
// produce, mirroring the go tool: the plain package, the package
// augmented with its in-package _test.go files, and the external
// package_test package.
type unitKind int

const (
	unitBase unitKind = iota
	unitTest
	unitXTest
)

// Package is one type-checked unit.
type Package struct {
	Path  string // import path
	Dir   string
	Kind  unitKind
	Files []*ast.File // all files of the unit, in type-check order
	// ScanFiles is the subset of Files the checks walk: for augmented
	// test units the base files are excluded (they are scanned once, in
	// the base unit), so findings are not reported twice.
	ScanFiles []*ast.File
	Types     *types.Package
	Info      *types.Info
}

// Loader loads and type-checks module packages.
type Loader struct {
	Fset       *token.FileSet
	ModuleDir  string
	ModulePath string
	// FakeImports makes unresolvable non-stdlib imports type-check as
	// empty placeholder packages instead of failing the load. Fixture
	// packages use it to demonstrate import-allowlist findings.
	FakeImports bool

	ctxt    *build.Context
	std     types.Importer
	base    map[string]*Package
	loading map[string]bool
	fakes   map[string]*types.Package
	parsed  map[string]*ast.File

	// parent and under are set on the universe an external test
	// package is checked in (see xtestLoader): module packages that do
	// not import under are shared with parent, the rest are re-checked.
	parent *Loader
	under  string
}

// NewLoader prepares a loader for the module rooted at dir. When
// modulePath is empty it is read from dir/go.mod. Cgo is disabled
// process-wide so the source importer type-checks the pure-Go variants
// of stdlib packages (the importer holds a pointer to build.Default,
// so the mutation takes effect).
func NewLoader(dir, modulePath string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	if modulePath == "" {
		modulePath, err = readModulePath(filepath.Join(abs, "go.mod"))
		if err != nil {
			return nil, err
		}
	}
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		ModuleDir:  abs,
		ModulePath: modulePath,
		ctxt:       &build.Default,
		std:        importer.ForCompiler(fset, "source", nil),
		base:       make(map[string]*Package),
		loading:    make(map[string]bool),
		fakes:      make(map[string]*types.Package),
		parsed:     make(map[string]*ast.File),
	}, nil
}

func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// IsModulePath reports whether path names a package of the loaded
// module.
func (l *Loader) IsModulePath(path string) bool {
	return path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/")
}

// IsStdlib reports whether an import path looks like a standard-library
// package: no dot in its first segment and not a module package. "C" is
// excluded — cgo is not standard library for this tool's purposes.
func (l *Loader) IsStdlib(path string) bool {
	if path == "C" || l.IsModulePath(path) {
		return false
	}
	first, _, _ := strings.Cut(path, "/")
	return !strings.Contains(first, ".")
}

// Import implements types.Importer for the module's own type-checks:
// module packages load recursively through the shared cache, stdlib
// delegates to the source importer, and anything else either fails or
// (under FakeImports) resolves to an empty placeholder.
func (l *Loader) Import(path string) (*types.Package, error) {
	if l.IsModulePath(path) {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	if l.IsStdlib(path) {
		return l.std.Import(path)
	}
	if l.FakeImports {
		if p, ok := l.fakes[path]; ok {
			return p, nil
		}
		name := path[strings.LastIndex(path, "/")+1:]
		p := types.NewPackage(path, name)
		p.MarkComplete()
		l.fakes[path] = p
		return p, nil
	}
	return nil, fmt.Errorf("lint: import %q is neither stdlib nor module-internal", path)
}

func (l *Loader) dirFor(path string) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
	return filepath.Join(l.ModuleDir, filepath.FromSlash(rel))
}

// load type-checks the base (non-test) unit of a module package.
func (l *Loader) load(path string) (*Package, error) {
	if p, ok := l.base[path]; ok {
		return p, nil
	}
	if l.parent != nil {
		p, err := l.parent.load(path)
		if err != nil {
			return nil, err
		}
		if !l.importsPath(p.Types, l.under) {
			l.base[path] = p
			return p, nil
		}
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.dirFor(path)
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", path, err)
	}
	p, err := l.check(path, dir, unitBase, bp.GoFiles, nil)
	if err != nil {
		return nil, err
	}
	l.base[path] = p
	return p, nil
}

// LoadUnits type-checks every unit a package directory produces: the
// base package, the test-augmented package (when it has in-package
// _test.go files), and the external _test package (when present).
func (l *Loader) LoadUnits(path string) ([]*Package, error) {
	basePkg, err := l.load(path)
	if err != nil {
		return nil, err
	}
	units := []*Package{basePkg}
	bp, err := l.ctxt.ImportDir(basePkg.Dir, 0)
	if err != nil {
		return nil, err
	}
	var aug *Package
	if len(bp.TestGoFiles) > 0 {
		aug, err = l.check(path, basePkg.Dir, unitTest, append(append([]string{}, bp.GoFiles...), bp.TestGoFiles...), basePkg.Files)
		if err != nil {
			return nil, err
		}
		units = append(units, aug)
	}
	if len(bp.XTestGoFiles) > 0 {
		xl := l
		if aug != nil {
			xl = l.xtestLoader(path, aug)
		}
		xt, err := xl.check(path+"_test", basePkg.Dir, unitXTest, bp.XTestGoFiles, nil)
		if err != nil {
			return nil, err
		}
		units = append(units, xt)
	}
	return units, nil
}

// xtestLoader returns the universe the external test package of path
// is checked in. As with the go tool, that package sees path as its
// test-augmented unit aug, so hooks declared in in-package _test.go
// files (export_test.go) resolve, and every module package that
// imports path is re-checked against aug; the rest are shared with l.
func (l *Loader) xtestLoader(path string, aug *Package) *Loader {
	x := *l // shares the file set, importers, and parse cache
	x.base = map[string]*Package{path: aug}
	x.loading = make(map[string]bool)
	x.parent, x.under = l, path
	return &x
}

// importsPath reports whether pkg imports the module package path,
// directly or through other module packages.
func (l *Loader) importsPath(pkg *types.Package, path string) bool {
	seen := make(map[*types.Package]bool)
	var walk func(p *types.Package) bool
	walk = func(p *types.Package) bool {
		for _, q := range p.Imports() {
			if q.Path() == path {
				return true
			}
			if l.IsModulePath(q.Path()) && !seen[q] {
				seen[q] = true
				if walk(q) {
					return true
				}
			}
		}
		return false
	}
	return walk(pkg)
}

// check parses (with caching, so identical files share one *ast.File
// across units and positions stay comparable) and type-checks one unit.
// baseFiles, when non-nil, is excluded from the unit's ScanFiles.
func (l *Loader) check(path, dir string, kind unitKind, filenames []string, baseFiles []*ast.File) (*Package, error) {
	var files []*ast.File
	for _, name := range filenames {
		full := filepath.Join(dir, name)
		f, ok := l.parsed[full]
		if !ok {
			var err error
			f, err = parser.ParseFile(l.Fset, full, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			l.parsed[full] = f
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	var errs []error
	conf := types.Config{
		Importer:    l,
		FakeImportC: true,
		Error:       func(err error) { errs = append(errs, err) },
	}
	tpkg, _ := conf.Check(path, l.Fset, files, info)
	if len(errs) > 0 {
		msgs := make([]string, 0, len(errs))
		for _, e := range errs {
			msgs = append(msgs, e.Error())
		}
		return nil, fmt.Errorf("lint: type errors in %s:\n  %s", path, strings.Join(msgs, "\n  "))
	}
	scan := files
	if baseFiles != nil {
		in := make(map[*ast.File]bool, len(baseFiles))
		for _, f := range baseFiles {
			in[f] = true
		}
		scan = nil
		for _, f := range files {
			if !in[f] {
				scan = append(scan, f)
			}
		}
	}
	return &Package{Path: path, Dir: dir, Kind: kind, Files: files, ScanFiles: scan, Types: tpkg, Info: info}, nil
}

// ModulePackages discovers every package directory of the module:
// directories containing buildable .go files, excluding testdata,
// vendor, and hidden or underscore-prefixed directories. Results are
// import paths in sorted order.
func (l *Loader) ModulePackages() ([]string, error) {
	var paths []string
	err := filepath.WalkDir(l.ModuleDir, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != l.ModuleDir && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if _, err := l.ctxt.ImportDir(p, 0); err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				return nil
			}
			return err
		}
		rel, err := filepath.Rel(l.ModuleDir, p)
		if err != nil {
			return err
		}
		if rel == "." {
			paths = append(paths, l.ModulePath)
		} else {
			paths = append(paths, l.ModulePath+"/"+filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}
