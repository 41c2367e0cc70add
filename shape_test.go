package prism

// The shape of the code is a tier-1 test. Two facts about the tree are
// pinned here, read straight from the source with go/parser (no go list,
// no dependency):
//
//   - which prism packages each package may import (allowedImports);
//   - that no non-test function is longer than maxFuncLines, except the
//     ones on longFuncs, a list that may only shrink.
//
// A change that adds an import edge, drops one, adds a package or grows a
// function past the ceiling fails here and has to say so in this file.

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
	"internal/sched":     "internal/bayes internal/constraint internal/exec internal/fault internal/filter internal/obs internal/rowset internal/schema internal/sentinel",
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
	"internal/experiment": "internal/constraint internal/dataset internal/discovery internal/exec internal/filter internal/graphx internal/mem internal/obs internal/sched internal/workload",
	"internal/workload":   "internal/constraint internal/exec internal/lang internal/mem internal/schema internal/value",
	"internal/difftest":   "internal/constraint internal/dataset internal/exec internal/mem internal/schema internal/value internal/workload",
	"benchmark":           "prism api client internal/bayes internal/constraint internal/dataset internal/exec internal/filter internal/graphx internal/lang internal/mem internal/obs internal/sched internal/serve internal/server internal/sqlgen internal/workload",

	// Commands and examples.
	"cmd/prism-bench":          "prism api client internal/dataset internal/experiment internal/mem",
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
	"cmd/prism-bench.run":           188,
	"cmd/prism-loadtest.main":       133,
	"benchmark.tracer.layerValues":  126,
	"internal/dataset.decodeSQLite": 115,
	"internal/loadtest.Run":         104,
	"benchmark.stager.round":        102,
}

// shapePackage is one package as the shape check sees it: its path
// relative to the module ("prism" for the root) and its parsed non-test
// files.
type shapePackage struct {
	rel   string
	files []*ast.File
}

// checkShape returns one line per violation of the import table and the
// length ceiling, sorted.
func checkShape(fset *token.FileSet, pkgs []shapePackage, imports map[string]string, long map[string]int) []string {
	var bad []string
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

// TestShape checks the tree against the import table and the length
// ceiling.
func TestShape(t *testing.T) {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, v := range checkShape(fset, parseTree(t, fset, root), allowedImports, longFuncs) {
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
	cases := []struct {
		name    string
		files   map[string]string
		imports map[string]string
		long    map[string]int
		want    string
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
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fset, pkgs := tree(tc.files)
			got := checkShape(fset, pkgs, tc.imports, tc.long)
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
