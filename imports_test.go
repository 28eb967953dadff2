package planetapps_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// goFiles lists the Go files under the repository root that keep accepts,
// skipping dot-directories and testdata.
func goFiles(t *testing.T, keep func(path string) bool) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name[0] == '.' || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && keep(path) {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func isTest(path string) bool { return strings.HasSuffix(path, "_test.go") }

// importGraph parses the import clauses of every non-test Go file under
// the repository root: package path -> the paths it imports.
func importGraph(t *testing.T) map[string][]string {
	t.Helper()
	const prefix = "planetapps/"
	graph := map[string][]string{}
	fset := token.NewFileSet()
	for _, path := range goFiles(t, func(path string) bool { return !isTest(path) }) {
		pkg := strings.TrimSuffix(prefix+filepath.ToSlash(filepath.Dir(path)), "/.")
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		if _, seen := graph[pkg]; !seen {
			graph[pkg] = nil // a package with no imports is still a package
		}
		for _, spec := range f.Imports {
			if p, err := strconv.Unquote(spec.Path.Value); err == nil && p != pkg {
				graph[pkg] = append(graph[pkg], p)
			}
		}
	}
	return graph
}

func isInternal(pkg string) bool { return strings.HasPrefix(pkg, "planetapps/internal/") }

// TestEveryInternalPackageHasAnImporter fails when a planetapps/internal
// package is imported by nothing but tests — its own or anyone's. Such a
// package is code the programs in this repository do not run (every
// binary and the cmd/bench module count as importers), and it
// either gets wired in or deleted; internal/session sat in that state
// for six PRs before anyone looked.
func TestEveryInternalPackageHasAnImporter(t *testing.T) {
	graph := importGraph(t)
	internal, imported := 0, map[string]bool{}
	for _, imports := range graph {
		for _, p := range imports {
			imported[p] = true
		}
	}
	for pkg := range graph {
		if !isInternal(pkg) {
			continue
		}
		internal++
		if !imported[pkg] {
			t.Errorf("%s has no non-test importer: wire it in or delete it", pkg)
		}
	}
	if internal == 0 {
		t.Fatal("found no internal packages: run from the repository root")
	}
}

// TestEveryInternalExportHasACaller is the importer rule one level down:
// an exported function or method under internal/ that no program mentions
// by name is code nothing runs — wire it in, unexport it beside the test
// that uses it, or delete it. The programs are the non-test files and the
// example_test.go files (go test runs an Example and checks what it
// prints). Matching is by bare name, so it errs towards silence: a field
// or local that shares the name hides it. There is no allow-list: every
// method the standard library calls through an interface (String, Error,
// ServeHTTP, RoundTrip, …) is also named by a program here; one that is
// not would need the interface named beside it.
func TestEveryInternalExportHasACaller(t *testing.T) {
	type export struct{ name, pos string }
	var exports []export
	used := map[string]bool{}
	fset := token.NewFileSet()
	programs := goFiles(t, func(path string) bool {
		return !isTest(path) || filepath.Base(path) == "example_test.go"
	})
	for _, path := range programs {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		library := strings.HasPrefix(filepath.ToSlash(path), "internal/") && !isTest(path)
		declared := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				declared[n.Name] = true
				if library && n.Name.IsExported() {
					exports = append(exports, export{n.Name.Name, fset.Position(n.Pos()).String()})
				}
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						declared[name] = true
					}
				}
			case *ast.Ident:
				if !declared[n] {
					used[n.Name] = true
				}
			}
			return true
		})
	}
	if len(exports) == 0 {
		t.Fatal("found no exports under internal/: run from the repository root")
	}
	for _, e := range exports {
		if !used[e.name] {
			t.Errorf("%s: %s is named by no program: wire it in, move it beside its test, or delete it", e.pos, e.name)
		}
	}
}

// TestModuleMapIsCurrent holds DESIGN.md §2 to the tree: every package
// directory under internal/ and cmd/ (cmd/bench included) has a row in the
// module map, and every row names a directory that holds Go source.
func TestModuleMapIsCurrent(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(design), "\n## 2. ")
	if !ok {
		t.Fatal("DESIGN.md has no section 2")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	rows := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		if rest, ok := strings.CutPrefix(line, "| `"); ok {
			dir, _, _ := strings.Cut(rest, "`")
			rows[dir] = true
		}
	}
	if len(rows) == 0 {
		t.Fatal("found no module rows in DESIGN.md section 2")
	}
	dirs := map[string]bool{}
	for pkg := range importGraph(t) {
		dir := strings.TrimPrefix(pkg, "planetapps/")
		dirs[dir] = true
		if (strings.HasPrefix(dir, "internal/") || strings.HasPrefix(dir, "cmd/")) && !rows[dir] {
			t.Errorf("%s has no row in DESIGN.md section 2", dir)
		}
	}
	for dir := range rows {
		if !dirs[dir] {
			t.Errorf("DESIGN.md section 2 names %s, which is not a package directory", dir)
		}
	}
}
