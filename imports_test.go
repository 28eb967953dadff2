package planetapps_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
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

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// TestEveryConfigFieldIsSet is the caller rule applied to settings: an
// exported field of an exported *Config, *Options or *Spec struct under
// internal/ that nothing writes but its own package's defaults is a
// constant with a knob on it — make it the constant, in the package that
// reads it. A write is a composite-literal key or an x.F = assignment,
// resolved to the field it names by type-checking the tree (cmd/bench and
// every test included). It counts from a program, another package or a
// test, and from the field's own package only when the value is a
// parameter of the enclosing function (DefaultConfig(baseURL) filling
// BaseURL). There is no allow-list.
func TestEveryConfigFieldIsSet(t *testing.T) {
	fset := token.NewFileSet()
	type pkgFiles struct{ lib, tests, xtests []*ast.File }
	dirs, order := map[string]*pkgFiles{}, []string(nil)
	for _, path := range goFiles(t, func(path string) bool {
		ok, err := build.Default.MatchFile(filepath.Dir(path), filepath.Base(path))
		return err == nil && ok
	}) {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		pf := dirs[dir]
		if pf == nil {
			pf = &pkgFiles{}
			dirs[dir], order = pf, append(order, dir)
		}
		switch {
		case !isTest(path):
			pf.lib = append(pf.lib, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			pf.xtests = append(pf.xtests, f)
		default:
			pf.tests = append(pf.tests, f)
		}
	}

	newInfo := func() *types.Info {
		return &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{}}
	}
	std := importer.Default()
	checked, libInfo := map[string]*types.Package{}, map[string]*types.Info{}
	var imp importerFunc
	check := func(path string, files []*ast.File, info *types.Info) *types.Package {
		conf := types.Config{Importer: imp}
		p, err := conf.Check(path, fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", path, err)
		}
		return p
	}
	imp = func(path string) (*types.Package, error) {
		dir, ok := strings.CutPrefix(path, "planetapps/")
		if !ok {
			return std.Import(path)
		}
		if p := checked[path]; p != nil {
			return p, nil
		}
		info := newInfo()
		p := check(path, dirs[dir].lib, info)
		checked[path], libInfo[dir] = p, info
		return p, nil
	}

	// Every write, by the position of the field it writes.
	type write struct {
		dir    string
		counts bool // a test, or a value passed in by the caller
	}
	writes := map[token.Pos][]write{}
	scan := func(dir string, files []*ast.File, info *types.Info, test bool) {
		for _, f := range files {
			for _, decl := range f.Decls {
				params := map[types.Object]bool{}
				if fd, ok := decl.(*ast.FuncDecl); ok {
					for _, p := range fd.Type.Params.List {
						for _, name := range p.Names {
							params[info.Defs[name]] = true
						}
					}
				}
				record := func(obj types.Object, value ast.Expr) {
					if v, ok := obj.(*types.Var); ok && v.IsField() {
						id, _ := value.(*ast.Ident)
						pos := v.Origin().Pos()
						writes[pos] = append(writes[pos], write{dir, test || id != nil && params[info.Uses[id]]})
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.KeyValueExpr:
						if key, ok := n.Key.(*ast.Ident); ok {
							record(info.Uses[key], n.Value)
						}
					case *ast.AssignStmt:
						for i, lhs := range n.Lhs {
							if sel, ok := lhs.(*ast.SelectorExpr); ok && info.Selections[sel] != nil {
								var value ast.Expr
								if len(n.Rhs) == len(n.Lhs) {
									value = n.Rhs[i]
								}
								record(info.Selections[sel].Obj(), value)
							}
						}
					}
					return true
				})
			}
		}
	}
	for _, dir := range order {
		pf, path := dirs[dir], strings.TrimSuffix("planetapps/"+dir, "/.")
		if pf.lib != nil {
			imp(path) //nolint:errcheck // check fails the test itself
			scan(dir, pf.lib, libInfo[dir], false)
		}
		if pf.tests != nil {
			info := newInfo()
			check(path, append(pf.lib[:len(pf.lib):len(pf.lib)], pf.tests...), info)
			scan(dir, pf.tests, info, true)
		}
		if pf.xtests != nil {
			info := newInfo()
			check(path+"_test", pf.xtests, info)
			scan(dir, pf.xtests, info, true)
		}
	}

	fields := 0
	for _, dir := range order {
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		for _, f := range dirs[dir].lib {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts := spec.(*ast.TypeSpec)
					st, ok := ts.Type.(*ast.StructType)
					name := ts.Name.Name
					if !ok || !ts.Name.IsExported() || !strings.HasSuffix(name, "Config") &&
						!strings.HasSuffix(name, "Options") && !strings.HasSuffix(name, "Spec") {
						continue
					}
					for _, fl := range st.Fields.List {
						for _, fn := range fl.Names {
							if !fn.IsExported() {
								continue
							}
							fields++
							if !slices.ContainsFunc(writes[fn.Pos()], func(w write) bool { return w.dir != dir || w.counts }) {
								t.Errorf("%s: %s.%s.%s is set by no program, test or other package: make it a constant where it is read",
									fset.Position(fn.Pos()), filepath.Base(dir), name, fn.Name)
							}
						}
					}
				}
			}
		}
	}
	if fields == 0 {
		t.Fatal("found no config fields under internal/: run from the repository root")
	}
	t.Logf("%d exported config fields under internal/", fields)
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
