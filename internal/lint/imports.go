package lint

import (
	"fmt"
	"slices"
	"strconv"
)

// import-allowlist: the module is stdlib-only — any import whose first
// path segment contains a dot (a domain) is a finding, module-wide,
// tests included. On top of that the base (non-test) units must respect
// the internal dependency DAG in Config.AllowedImports: each package
// may import only the module packages registered for it, and a package
// absent from the map may import no module packages at all until it is
// registered — so new edges are added deliberately, in review, not by
// accident. The DAG must also stay tight: an edge that no base file of
// its package imports is a finding at the package clause, so deleting
// the last use of a dependency deletes its edge too. Test units are
// exempt from the DAG (a test may reach for any helper) but not from
// the stdlib rule.

const importCheck = "import-allowlist"

func checkImports(p *pass) {
	for _, u := range p.units {
		dag := u.Kind == unitBase && p.cfg.AllowedImports != nil
		edges, registered := p.cfg.AllowedImports[u.Path]
		imported := make(map[string]bool)
		for _, f := range u.ScanFiles {
			for _, imp := range f.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					continue
				}
				switch {
				case p.loader.IsModulePath(path):
					if !dag {
						continue
					}
					imported[path] = true
					if slices.Contains(edges, path) {
						continue
					}
					if !registered {
						p.report(imp.Pos(), importCheck, fmt.Sprintf(
							"package %s is not registered in the dependency DAG; add it to AllowedImports before importing %s",
							u.Path, path))
					} else {
						p.report(imp.Pos(), importCheck, fmt.Sprintf(
							"import %s is not in %s's allowlist; add the edge to the dependency DAG deliberately",
							path, u.Path))
					}
				case !p.loader.IsStdlib(path):
					p.report(imp.Pos(), importCheck, fmt.Sprintf(
						"import %s is outside the standard library; the module is stdlib-only", path))
				}
			}
		}
		if !dag || len(u.ScanFiles) == 0 {
			continue
		}
		for _, e := range edges {
			if !imported[e] {
				p.report(u.ScanFiles[0].Package, importCheck, fmt.Sprintf(
					"allowlist edge %s → %s is imported by no file of the package; delete it from AllowedImports",
					u.Path, e))
			}
		}
	}
}
