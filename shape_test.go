package prism

// The shape of the code is a tier-1 test. Three facts about the tree are
// pinned here, read straight from the source with go/parser (no go list,
// no dependency):
//
//   - which prism packages each package may import (allowedImports);
//   - that no non-test function is longer than maxFuncLines, except the
//     ones on longFuncs, a list that may only shrink;
//   - that every exported package-level name and every exported method of
//     an internal package is named by some non-test file, except the ones
//     on testOnlyExports, a list that may only shrink.
//
// A change that adds an import edge, drops one, adds a package, grows a
// function past the ceiling or exports a name or method only tests use
// fails here and has to say so in this file.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// modulePath is the import path of the repository root.
const modulePath = "prism"

// maxFuncLines is the longest a non-test function may be, counted from the
// func keyword to the closing brace.
const maxFuncLines = 100

// allowedImports pins the prism imports of every package's non-test files,
// both sides written relative to the module ("prism" is the root package).
// The list is exact: an import it lacks fails, and so does a listed import
// no file makes any more. docs/architecture.md explains the layers.
var allowedImports = map[string]string{
	// Wire: the client needs only the wire format, and the wire format
	// needs only the constraint language and the shared sentinels.
	"client":            "api",
	"api":               "internal/constraint internal/lang internal/sentinel internal/value",
	"internal/sentinel": "",

	// Library surface.
	"prism": "api internal/bayes internal/constraint internal/dataset internal/discovery internal/exec internal/explain internal/fault internal/filter internal/graphx internal/lang internal/mem internal/obs internal/schema internal/sentinel internal/sqlgen internal/value",

	// Serving tier.
	"internal/server":   "prism api internal/discovery internal/explain internal/fault internal/mem internal/obs internal/serve",
	"internal/serve":    "internal/fault internal/sentinel",
	"internal/loadtest": "prism api client",
	"internal/chaos":    "api client internal/dataset internal/server",

	// The round and its stages.
	"internal/discovery": "api internal/bayes internal/colexec internal/constraint internal/exec internal/fault internal/filter internal/graphx internal/mem internal/obs internal/sched internal/schema internal/sentinel internal/sqlgen internal/value",
	"internal/sched":     "internal/bayes internal/constraint internal/exec internal/fault internal/filter internal/obs internal/schema internal/sentinel",
	"internal/filter":    "internal/constraint internal/exec internal/graphx internal/lang internal/rowset internal/schema internal/value",
	"internal/bayes":     "internal/exec internal/lang internal/par internal/rowset internal/schema",
	"internal/graphx":    "internal/exec internal/schema",
	"internal/sqlgen":    "internal/exec internal/schema",
	"internal/explain":   "internal/constraint internal/graphx",

	// Executors and data.
	"internal/colexec": "internal/exec internal/fault internal/rowset internal/schema internal/sentinel internal/value",
	"internal/mem":     "internal/exec internal/fault internal/par internal/schema internal/sentinel internal/value",
	"internal/exec":    "internal/rowset internal/schema internal/value",
	"internal/dataset": "internal/fault internal/mem internal/schema internal/value",

	// Constraint language and values.
	"internal/constraint": "internal/lang internal/schema internal/value",
	"internal/lang":       "internal/schema internal/value",
	"internal/schema":     "internal/value",
	"internal/value":      "",
	"internal/rowset":     "",
	"internal/par":        "",
	"internal/obs":        "",
	"internal/fault":      "",

	// Evaluation and test support.
	"internal/experiment": "internal/constraint internal/exec internal/filter internal/rowset",
	"internal/workload":   "internal/constraint internal/exec internal/lang internal/mem internal/schema internal/value",
	"internal/difftest":   "internal/constraint internal/dataset internal/exec internal/mem internal/schema internal/value internal/workload",
	"benchmark":           "prism api client internal/bayes internal/constraint internal/dataset internal/exec internal/filter internal/graphx internal/lang internal/mem internal/obs internal/sched internal/serve internal/server internal/sqlgen internal/workload",

	// Commands and examples.
	"cmd/prism-cli":            "prism api client",
	"cmd/prism-demo":           "prism internal/dataset internal/obs internal/serve internal/server",
	"cmd/prism-loadtest":       "prism api client internal/loadtest internal/serve internal/server",
	"examples/custom_database": "prism",
	"examples/imdb_actors":     "prism",
	"examples/nba_scores":      "prism",
	"examples/quickstart":      "prism",
	"examples/streaming":       "prism",
}

// longFuncs lists the non-test functions longer than maxFuncLines, keyed
// package.Func or package.Type.Method, with the length each may not exceed.
// It may only shrink: an entry that is gone, or no longer over the
// ceiling, fails until it is deleted. Never add one.
var longFuncs = map[string]int{
	"cmd/prism-loadtest.main":      133,
	"benchmark.tracer.layerValues": 126,
	"internal/loadtest.Run":        104,
	"benchmark.stager.round":       102,
}

// testSupport lists the internal packages that exist for tests: the
// evaluation and the generators, databases and harnesses tests share. Their
// exports are not checked.
var testSupport = []string{"internal/chaos", "internal/difftest", "internal/experiment", "internal/workload"}

// testOnlyExports lists the exported package-level funcs, types, vars and
// consts of internal packages that no non-test file names outside their own
// declaration and methods, keyed package.Name, and the exported methods no
// non-test file selects outside their own body, keyed package.Type.Method.
// It may only shrink: an entry that a non-test file names, or whose
// declaration is gone, fails until it is deleted. Never add one.
var testOnlyExports = []string{
	"internal/constraint.Spec.MatchesResult",
	"internal/discovery.NewEngineOn",
	"internal/exec.SelectionMemo.Fills",
	"internal/fault.Arm",
	"internal/fault.Armed",
	"internal/fault.DisarmAll",
	"internal/fault.Names",
	"internal/fault.Site.Fired",
	"internal/loadtest.ReadTrajectory",
	"internal/obs.Span.Find",
}

// shapePackage is one package as the shape check sees it: its path
// relative to the module ("prism" for the root) and its parsed non-test
// files.
type shapePackage struct {
	rel   string
	files []*ast.File
}

// checkShape returns one line per violation of the import table, the
// length ceiling and the export check, sorted.
func checkShape(fset *token.FileSet, pkgs []shapePackage, imports map[string]string, long map[string]int, testOnly []string) []string {
	bad := checkExports(pkgs, testOnly)
	seen := map[string]bool{}
	funcs := map[string]int{}
	for _, pkg := range pkgs {
		seen[pkg.rel] = true
		allowed, listed := imports[pkg.rel]
		if !listed {
			bad = append(bad, fmt.Sprintf("package %s is not in the import table", pkg.rel))
		}
		used := map[string]bool{}
		for _, f := range pkg.files {
			for _, spec := range f.Imports {
				imp := strings.Trim(spec.Path.Value, `"`)
				if imp == modulePath || strings.HasPrefix(imp, modulePath+"/") {
					used[strings.TrimPrefix(imp, modulePath+"/")] = true
				}
			}
			for name, n := range funcLengths(fset, pkg.rel, f) {
				funcs[name] = n
			}
		}
		if !listed {
			continue
		}
		want := strings.Fields(allowed)
		for imp := range used {
			if !slices.Contains(want, imp) {
				bad = append(bad, fmt.Sprintf("%s imports %s, which the table does not allow", pkg.rel, imp))
			}
		}
		for _, imp := range want {
			if !used[imp] {
				bad = append(bad, fmt.Sprintf("%s no longer imports %s: delete the edge from the table", pkg.rel, imp))
			}
		}
	}
	for rel := range imports {
		if !seen[rel] {
			bad = append(bad, fmt.Sprintf("package %s is gone: delete it from the table", rel))
		}
	}
	for name, n := range funcs {
		limit, listed := long[name]
		switch {
		case !listed && n > maxFuncLines:
			bad = append(bad, fmt.Sprintf("%s is %d lines, over the %d-line ceiling", name, n, maxFuncLines))
		case listed && n <= maxFuncLines:
			bad = append(bad, fmt.Sprintf("%s is %d lines now: delete it from the allowlist", name, n))
		case listed && n > limit:
			bad = append(bad, fmt.Sprintf("%s grew to %d lines, past its allowlisted %d", name, n, limit))
		}
	}
	for name := range long {
		if _, ok := funcs[name]; !ok {
			bad = append(bad, fmt.Sprintf("%s no longer exists: delete it from the allowlist", name))
		}
	}
	sort.Strings(bad)
	return bad
}

// funcLengths returns the length in lines of every function of f that has a
// body, keyed as in longFuncs.
func funcLengths(fset *token.FileSet, rel string, f *ast.File) map[string]int {
	out := map[string]int{}
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		name := rel + "." + fd.Name.Name
		if fd.Recv != nil && len(fd.Recv.List) == 1 {
			name = rel + "." + receiverName(fd.Recv.List[0].Type) + "." + fd.Name.Name
		}
		out[name] = fset.Position(fd.End()).Line - fset.Position(fd.Pos()).Line + 1
	}
	return out
}

// checkExports returns one line per exported package-level func, type, var
// or const of a checked internal package that no non-test file names
// outside its own declaration and methods, one per exported method (on any
// receiver) that no non-test file selects outside its own body, each unless
// testOnly lists it, and one per testOnly entry that is named or gone. A
// name counts as named by an identifier in its own package or a selector on
// an import of it in another; without type information, a struct literal's
// field key counts too, and a method counts as named by a selector of its
// name on any value. So a method shares the selectors of every field and
// method of its name, and one that only an interface of the standard
// library calls (a String only fmt calls) counts as named only when some
// file selects that name.
func checkExports(pkgs []shapePackage, testOnly []string) []string {
	pkgName := map[string]string{} // rel -> package clause name
	for _, pkg := range pkgs {
		pkgName[pkg.rel] = pkg.files[0].Name.Name
	}
	declared := map[string]bool{}
	named := map[string]bool{}
	selected := map[string]int{}   // method name -> selectors of it in all non-test files
	ownSelects := map[string]int{} // pkg.Type.Method -> selectors of its name in its own body
	for _, pkg := range pkgs {
		checked := strings.HasPrefix(pkg.rel, "internal/") && !slices.Contains(testSupport, pkg.rel)
		for _, f := range pkg.files {
			for name, n := range selectors(f) {
				selected[name] += n
			}
			imports := map[string]string{} // local name -> rel
			for _, spec := range f.Imports {
				imp := strings.Trim(spec.Path.Value, `"`)
				if imp != modulePath && !strings.HasPrefix(imp, modulePath+"/") {
					continue
				}
				rel := strings.TrimPrefix(imp, modulePath+"/")
				local, ok := pkgName[rel]
				if !ok {
					local = path.Base(rel)
				}
				if spec.Name != nil {
					local = spec.Name.Name
				}
				imports[local] = rel
			}
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && checked && fd.Recv != nil && len(fd.Recv.List) == 1 && ast.IsExported(fd.Name.Name) {
					key := pkg.rel + "." + receiverName(fd.Recv.List[0].Type) + "." + fd.Name.Name
					declared[key] = true
					if fd.Body != nil {
						ownSelects[key] = selectors(fd.Body)[fd.Name.Name]
					}
				}
				for _, unit := range declUnits(decl) {
					own := map[string]bool{}
					for _, name := range unit.owns {
						own[pkg.rel+"."+name] = true
						if checked && ast.IsExported(name) && !unit.method {
							declared[pkg.rel+"."+name] = true
						}
					}
					for _, n := range unit.nodes {
						for ref := range references(n, pkg.rel, imports) {
							if !own[ref] { // not its own declaration or method
								named[ref] = true
							}
						}
					}
				}
			}
		}
	}
	for name, own := range ownSelects {
		if selected[name[strings.LastIndex(name, ".")+1:]] > own {
			named[name] = true
		}
	}
	var bad []string
	for name := range declared {
		if !named[name] && !slices.Contains(testOnly, name) {
			bad = append(bad, fmt.Sprintf("%s is named by no non-test file: use it, unexport it or delete it", name))
		}
	}
	for _, name := range testOnly {
		switch {
		case !declared[name]:
			bad = append(bad, fmt.Sprintf("%s no longer exists: delete it from testOnlyExports", name))
		case named[name]:
			bad = append(bad, fmt.Sprintf("%s is named by a non-test file now: delete it from testOnlyExports", name))
		}
	}
	return bad
}

// selectors counts the selector expressions under n by the name they
// select.
func selectors(n ast.Node) map[string]int {
	out := map[string]int{}
	ast.Inspect(n, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			out[sel.Sel.Name]++
		}
		return true
	})
	return out
}

// declUnit is a part of a top-level declaration that declares names: a
// function, a method (owned by its receiver type), a type spec or a value
// spec. Its nodes are where it may name other declarations.
type declUnit struct {
	owns   []string
	method bool
	nodes  []ast.Node
}

// declUnits splits a top-level declaration into its units.
func declUnits(decl ast.Decl) []declUnit {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		u := declUnit{owns: []string{d.Name.Name}, nodes: []ast.Node{d.Type}}
		if d.Recv != nil && len(d.Recv.List) == 1 {
			u = declUnit{owns: []string{receiverName(d.Recv.List[0].Type)}, method: true, nodes: []ast.Node{d.Recv, d.Type}}
		}
		if d.Body != nil {
			u.nodes = append(u.nodes, d.Body)
		}
		return []declUnit{u}
	case *ast.GenDecl:
		var units []declUnit
		for _, spec := range d.Specs {
			switch sp := spec.(type) {
			case *ast.TypeSpec:
				u := declUnit{owns: []string{sp.Name.Name}, nodes: []ast.Node{sp.Type}}
				if sp.TypeParams != nil {
					u.nodes = append(u.nodes, sp.TypeParams)
				}
				units = append(units, u)
			case *ast.ValueSpec:
				u := declUnit{}
				for _, n := range sp.Names {
					u.owns = append(u.owns, n.Name)
				}
				if sp.Type != nil {
					u.nodes = append(u.nodes, sp.Type)
				}
				for _, v := range sp.Values {
					u.nodes = append(u.nodes, v)
				}
				units = append(units, u)
			}
		}
		return units
	}
	return nil
}

// references returns the names n, in package rel, refers to, keyed
// package.Name: a selector on an import names the imported package's Name,
// and any other identifier that is not a selector's field or method or the
// name of a field, parameter or result names rel's.
func references(n ast.Node, rel string, imports map[string]string) map[string]bool {
	refs := map[string]bool{}
	var visit func(ast.Node) bool
	visit = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if imp, ok := imports[id.Name]; ok {
					refs[imp+"."+x.Sel.Name] = true
					return false
				}
			}
			ast.Inspect(x.X, visit)
			return false
		case *ast.Field:
			if x.Type != nil {
				ast.Inspect(x.Type, visit)
			}
			return false
		case *ast.Ident:
			refs[rel+"."+x.Name] = true
		}
		return true
	}
	ast.Inspect(n, visit)
	return refs
}

// receiverName is the type name of a method receiver, without the pointer
// or type parameters.
func receiverName(t ast.Expr) string {
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return fmt.Sprintf("%T", t)
		}
	}
}

// parseTree parses the non-test Go files under root, one shapePackage per
// directory, skipping testdata and hidden directories.
func parseTree(t *testing.T, fset *token.FileSet, root string) []shapePackage {
	t.Helper()
	byDir := map[string]*shapePackage{}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		rel := path.Clean(filepath.ToSlash(dir))
		if rel == "." {
			rel = modulePath
		}
		if byDir[rel] == nil {
			byDir[rel] = &shapePackage{rel: rel}
		}
		byDir[rel].files = append(byDir[rel].files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []shapePackage
	for _, pkg := range byDir {
		pkgs = append(pkgs, *pkg)
	}
	return pkgs
}

// TestShape checks the tree against the import table, the length ceiling
// and the export check.
func TestShape(t *testing.T) {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, v := range checkShape(fset, parseTree(t, fset, root), allowedImports, longFuncs, testOnlyExports) {
		t.Error(v)
	}
}

// TestShapeChecker plants each kind of violation in a synthetic tree and
// checks that the checker reports it, and that the clean tree passes.
func TestShapeChecker(t *testing.T) {
	body := func(lines int) string { // a function of exactly lines lines
		return "func F() {\n" + strings.Repeat("\t_ = 0\n", lines-2) + "}\n"
	}
	tree := func(files map[string]string) (*token.FileSet, []shapePackage) {
		fset := token.NewFileSet()
		var pkgs []shapePackage
		for rel, src := range files {
			f, err := parser.ParseFile(fset, rel+"/x.go", src, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			pkgs = append(pkgs, shapePackage{rel: rel, files: []*ast.File{f}})
		}
		return fset, pkgs
	}
	imports := map[string]string{"api": "", "client": "api"}
	clean := map[string]string{
		"api":    "package api\n" + body(maxFuncLines),
		"client": "package client\nimport _ \"prism/api\"\n",
	}
	// An internal package whose exports a command names through an aliased
	// import (Generate) and the package itself names (Multiline), plus src.
	exports := func(src string) map[string]string {
		return map[string]string{
			"internal/sqlgen": "package sqlgen\nfunc Generate() {}\nfunc Multiline() {}\nfunc multiline() { Multiline() }\n" + src,
			"cmd/x":           "package main\nimport q \"prism/internal/sqlgen\"\nfunc main() { q.Generate() }\n",
		}
	}
	exportImports := map[string]string{"internal/sqlgen": "", "cmd/x": "internal/sqlgen"}
	cases := []struct {
		name     string
		files    map[string]string
		imports  map[string]string
		long     map[string]int
		testOnly []string
		want     string
	}{
		{name: "clean", files: clean, imports: imports},
		{
			name:    "forbidden import",
			files:   map[string]string{"api": clean["api"], "client": "package client\nimport (\n\t_ \"prism/api\"\n\t_ \"prism/internal/mem\"\n)\n"},
			imports: imports,
			want:    "client imports internal/mem, which the table does not allow",
		},
		{
			name:    "unused edge",
			files:   map[string]string{"api": clean["api"], "client": "package client\n"},
			imports: imports,
			want:    "client no longer imports api",
		},
		{
			name:    "unlisted package",
			files:   map[string]string{"api": clean["api"], "client": clean["client"], "internal/mem": "package mem\n"},
			imports: imports,
			want:    "package internal/mem is not in the import table",
		},
		{
			name:    "long function",
			files:   map[string]string{"api": "package api\n" + body(maxFuncLines+1), "client": clean["client"]},
			imports: imports,
			want:    "api.F is 101 lines, over the 100-line ceiling",
		},
		{
			name:    "allowlisted function grew",
			files:   map[string]string{"api": "package api\n" + body(maxFuncLines+3), "client": clean["client"]},
			imports: imports,
			long:    map[string]int{"api.F": maxFuncLines + 2},
			want:    "api.F grew to 103 lines",
		},
		{
			name:    "stale allowlist entry",
			files:   clean,
			imports: imports,
			long:    map[string]int{"api.G": 120},
			want:    "api.G no longer exists",
		},
		{
			name:    "allowlist entry under the ceiling",
			files:   clean,
			imports: imports,
			long:    map[string]int{"api.F": 120},
			want:    "api.F is 100 lines now",
		},
		{name: "exports named", files: exports(""), imports: exportImports},
		{
			name:    "unnamed export",
			files:   exports("func Unused() { Unused() }\n"),
			imports: exportImports,
			want:    "internal/sqlgen.Unused is named by no non-test file",
		},
		{
			name:    "type named only by its methods",
			files:   exports("type T struct{ next *T }\nfunc (t T) m() T { return T{} }\n"),
			imports: exportImports,
			want:    "internal/sqlgen.T is named by no non-test file",
		},
		{
			name:    "unnamed method",
			files:   exports("type s struct{}\nfunc (s) Unused() {}\n"),
			imports: exportImports,
			want:    "internal/sqlgen.s.Unused is named by no non-test file",
		},
		{
			name:    "method named through another type's value",
			files:   exports("type s struct{}\nfunc (s) Close() {}\ntype closer interface{ Close() }\nfunc use(c closer) { c.Close() }\n"),
			imports: exportImports,
		},
		{
			name:    "self-recursive method",
			files:   exports("type s struct{}\nfunc (r s) Loop() { r.Loop() }\n"),
			imports: exportImports,
			want:    "internal/sqlgen.s.Loop is named by no non-test file",
		},
		{
			name:     "stale test-only method entry",
			files:    exports(""),
			imports:  exportImports,
			testOnly: []string{"internal/sqlgen.s.Gone"},
			want:     "internal/sqlgen.s.Gone no longer exists: delete it from testOnlyExports",
		},
		{
			name:     "test-only export named",
			files:    exports(""),
			imports:  exportImports,
			testOnly: []string{"internal/sqlgen.Multiline"},
			want:     "internal/sqlgen.Multiline is named by a non-test file now",
		},
		{
			name:     "stale test-only entry",
			files:    exports(""),
			imports:  exportImports,
			testOnly: []string{"internal/sqlgen.Gone"},
			want:     "internal/sqlgen.Gone no longer exists: delete it from testOnlyExports",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fset, pkgs := tree(tc.files)
			got := checkShape(fset, pkgs, tc.imports, tc.long, tc.testOnly)
			if tc.want == "" {
				if len(got) != 0 {
					t.Fatalf("clean tree reported %q", got)
				}
				return
			}
			if len(got) != 1 || !strings.HasPrefix(got[0], tc.want) {
				t.Fatalf("got %q, want one violation starting %q", got, tc.want)
			}
		})
	}
}
