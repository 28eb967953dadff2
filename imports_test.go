package planetapps_test

import (
	"encoding/json"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
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

// pkgFiles is one package directory's Go files grouped the way go test
// builds them, each group with the type information of its check.
type pkgFiles struct {
	lib, tests, xtests           []*ast.File
	libInfo, testInfo, xtestInfo *types.Info
}

// typedTree is every Go file under the repository root that the default
// build context matches, cmd/bench and every test included, parsed and
// type-checked three ways per package directory: the library, the library
// with its in-package tests, and the external tests. order lists the
// directories in walk order.
type typedTree struct {
	fset  *token.FileSet
	dirs  map[string]*pkgFiles
	order []string
}

// checkedTree memoizes typeCheckTree: the tests of this package run one at
// a time, and the check takes seconds.
var checkedTree *typedTree

func typeCheckTree(t *testing.T) *typedTree {
	t.Helper()
	if checkedTree != nil {
		return checkedTree
	}
	tr := &typedTree{fset: token.NewFileSet(), dirs: map[string]*pkgFiles{}}
	for _, path := range goFiles(t, func(path string) bool {
		ok, err := build.Default.MatchFile(filepath.Dir(path), filepath.Base(path))
		return err == nil && ok
	}) {
		f, err := parser.ParseFile(tr.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		pf := tr.dirs[dir]
		if pf == nil {
			pf = &pkgFiles{}
			tr.dirs[dir], tr.order = pf, append(tr.order, dir)
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
	checked := map[string]*types.Package{}
	var imp importerFunc
	check := func(path string, files []*ast.File, info *types.Info) *types.Package {
		conf := types.Config{Importer: imp}
		p, err := conf.Check(path, tr.fset, files, info)
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
		pf := tr.dirs[dir]
		pf.libInfo = newInfo()
		checked[path] = check(path, pf.lib, pf.libInfo)
		return checked[path], nil
	}
	for _, dir := range tr.order {
		pf, path := tr.dirs[dir], strings.TrimSuffix("planetapps/"+dir, "/.")
		if pf.lib != nil {
			imp(path) //nolint:errcheck // check fails the test itself
		}
		if pf.tests != nil {
			pf.testInfo = newInfo()
			check(path, append(pf.lib[:len(pf.lib):len(pf.lib)], pf.tests...), pf.testInfo)
		}
		if pf.xtests != nil {
			pf.xtestInfo = newInfo()
			check(path+"_test", pf.xtests, pf.xtestInfo)
		}
	}
	checkedTree = tr
	return tr
}

// TestEveryInternalExportHasACaller is the importer rule one level down:
// an exported function or method under internal/ that no program calls is
// code nothing runs — wire it in, unexport it beside the test that uses
// it, or delete it. The programs are the non-test files and the
// example_test.go files (go test runs an Example and checks what it
// prints), each type-checked with its package. A package-level function
// counts as called when a program names that very function. A method
// counts when a program names anything by its bare name, because interface
// dispatch hides a method's callers from the type checker; so the method
// census errs towards silence: a field or local that shares the name hides
// it. There is no allow-list: every method the standard library calls
// through an interface (String, Error, ServeHTTP, RoundTrip, …) is also
// named by a program here; one that is not would need the interface named
// beside it.
func TestEveryInternalExportHasACaller(t *testing.T) {
	tr := typeCheckTree(t)
	var exports []*ast.FuncDecl
	called := map[token.Pos]bool{} // package-level functions, by declaration
	named := map[string]bool{}     // every other identifier, by bare name
	visit := func(f *ast.File, info *types.Info, library bool) {
		declared := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				declared[n.Name] = true
				if library && n.Name.IsExported() {
					exports = append(exports, n)
				}
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						declared[name] = true
					}
				}
			case *ast.Ident:
				if fn, ok := info.Uses[n].(*types.Func); ok && fn.Type().(*types.Signature).Recv() == nil {
					called[fn.Origin().Pos()] = true
				} else if !declared[n] {
					named[n.Name] = true
				}
			}
			return true
		})
	}
	examples := func(files []*ast.File, info *types.Info) {
		for _, f := range files {
			if filepath.Base(tr.fset.Position(f.Package).Filename) == "example_test.go" {
				visit(f, info, false)
			}
		}
	}
	for _, dir := range tr.order {
		pf := tr.dirs[dir]
		for _, f := range pf.lib {
			visit(f, pf.libInfo, strings.HasPrefix(dir, "internal/"))
		}
		examples(pf.tests, pf.testInfo)
		examples(pf.xtests, pf.xtestInfo)
	}
	if len(exports) == 0 {
		t.Fatal("found no exports under internal/: run from the repository root")
	}
	for _, e := range exports {
		if e.Recv == nil && !called[e.Name.Pos()] || e.Recv != nil && !named[e.Name.Name] {
			t.Errorf("%s: %s is named by no program: wire it in, move it beside its test, or delete it",
				tr.fset.Position(e.Pos()), e.Name.Name)
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
//
// The count is a ratchet: it may not rise above configFieldCeiling, so a
// new setting is a visible edit of the ceiling. Such a struct may not embed
// a field either: an embedded struct would carry settings the count, which
// walks named fields, never sees.
func TestEveryConfigFieldIsSet(t *testing.T) {
	tr := typeCheckTree(t)
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
	for _, dir := range tr.order {
		pf := tr.dirs[dir]
		scan(dir, pf.lib, pf.libInfo, false)
		scan(dir, pf.tests, pf.testInfo, true)
		scan(dir, pf.xtests, pf.xtestInfo, true)
	}

	fields := 0
	for _, dir := range tr.order {
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		for _, f := range tr.dirs[dir].lib {
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
						if len(fl.Names) == 0 {
							t.Errorf("%s: %s.%s embeds %s: name the field, so that the census counts the settings it carries",
								tr.fset.Position(fl.Pos()), filepath.Base(dir), name, types.ExprString(fl.Type))
						}
						for _, fn := range fl.Names {
							if !fn.IsExported() {
								continue
							}
							fields++
							if !slices.ContainsFunc(writes[fn.Pos()], func(w write) bool { return w.dir != dir || w.counts }) {
								t.Errorf("%s: %s.%s.%s is set by no program, test or other package: make it a constant where it is read",
									tr.fset.Position(fn.Pos()), filepath.Base(dir), name, fn.Name)
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
	if fields > configFieldCeiling {
		t.Errorf("%d exported config fields under internal/, above the ceiling of %d: make the new setting a constant where it is read, or raise configFieldCeiling in the same change",
			fields, configFieldCeiling)
	}
}

// configFieldCeiling is the most exported config fields
// TestEveryConfigFieldIsSet lets internal/ hold.
const configFieldCeiling = 97

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

var (
	// backticked is a code span in a document.
	backticked = regexp.MustCompile("`([^`\n]+)`")
	// goName is an identifier, or identifiers joined by dots.
	goName = regexp.MustCompile(`^[A-Za-z][A-Za-z0-9]*(\.[A-Za-z][A-Za-z0-9]*)*$`)
	// goFileName is the name of a Go source file, with or without a path.
	goFileName = regexp.MustCompile(`^[\w./-]+\.go$`)
	// typeArgs and callParts are what a span drops before it is read as a
	// name: cache.LRU[string], runtime.GC(), marketsim.(*Market).Export.
	typeArgs  = regexp.MustCompile(`\[[^\]]*\]`)
	callParts = strings.NewReplacer("()", "", "(*", "", ")", "")
	// sectionNumber is how DESIGN.md numbers a heading: 5, 5.2 (and the
	// lettered 3d that citations of an older numbering carry).
	sectionNumber = `\d+[a-z]?(?:\.\d+)?`
	heading       = regexp.MustCompile(`(?m)^#{2,3} (` + sectionNumber + `)[. ]`)
	// designCitation is "DESIGN.md §N", and the "§M" or "–M" items that
	// continue its list.
	designCitation = regexp.MustCompile(`DESIGN\.md\s+§` + sectionNumber +
		`(?:\s*(?:,|and)\s*§` + sectionNumber + `|\s*[–-]\s*§?` + sectionNumber + `)*`)
	citedNumber = regexp.MustCompile(sectionNumber)
	// bareCitation is a § inside DESIGN.md; "paper §N" is the paper's.
	bareCitation = regexp.MustCompile(`(paper(?:'s)? )?§(` + sectionNumber + `)`)
)

// TestDocsNameWhatExists holds the prose to the tree the way
// TestModuleMapIsCurrent holds the module map, so that a document cannot
// go on describing code that is gone or a section that was renumbered.
// Every backticked Go identifier in DESIGN.md, README.md and API.md is
// declared somewhere in the tree, and every backticked Go file name is a
// file in it. A span counts as a Go identifier when it is one name with a
// capital after its first letter (PageSize, serveMerged), or a dotted
// name qualified by a package or type of this tree with a capital after
// the qualifier (fleet.NewShard, Config.PageSize, marketsim.syncTables);
// call parentheses, (*T) receivers and type arguments are dropped first.
// Capitals alone (GET, GOGC), single words (Vary, heap), snake_case
// (next_cursor), metric rows (arena.compactions), flags and paths are
// not; a standard-library name is written qualified (http.ServeMux),
// which leaves it alone. And every citation of a DESIGN.md section —
// "DESIGN.md §N" in those documents, EXPERIMENTS.md, ROADMAP.md, the
// verify skill and Go comments, and any § inside DESIGN.md not written
// "paper §N" — names a heading DESIGN.md has. There is no allow-list.
func TestDocsNameWhatExists(t *testing.T) {
	declared := map[string]bool{}             // every name declared in the tree
	inPackage := map[string]map[string]bool{} // package directory name -> names declared there
	typeNames, fileNames := map[string]bool{}, map[string]bool{}
	var comments []string
	fset := token.NewFileSet()
	for _, path := range goFiles(t, func(string) bool { return true }) {
		fileNames[filepath.Base(path)] = true
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		pkg := filepath.Base(filepath.Dir(path))
		if inPackage[pkg] == nil {
			inPackage[pkg] = map[string]bool{}
		}
		add := func(ids ...*ast.Ident) {
			for _, id := range ids {
				declared[id.Name], inPackage[pkg][id.Name] = true, true
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				add(n.Name)
			case *ast.TypeSpec:
				add(n.Name)
				typeNames[n.Name.Name] = true
			case *ast.ValueSpec:
				add(n.Names...)
			case *ast.Field:
				add(n.Names...)
			case *ast.AssignStmt:
				if n.Tok == token.DEFINE {
					for _, lhs := range n.Lhs {
						if id, ok := lhs.(*ast.Ident); ok {
							add(id)
						}
					}
				}
			}
			return true
		})
		for _, cg := range f.Comments {
			comments = append(comments, cg.Text())
		}
	}
	if len(declared) == 0 {
		t.Fatal("found no Go declarations: run from the repository root")
	}

	read := func(path string) string {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for _, doc := range []string{"DESIGN.md", "README.md", "API.md"} {
		for _, m := range backticked.FindAllStringSubmatch(read(doc), -1) {
			span := m[1]
			if goFileName.MatchString(span) {
				if !fileNames[filepath.Base(span)] {
					t.Errorf("%s names %s, which is no Go file in the tree", doc, span)
				}
				continue
			}
			name := typeArgs.ReplaceAllString(callParts.Replace(span), "")
			if !goName.MatchString(name) {
				continue
			}
			names, first := strings.Split(name, "."), declared
			if len(names) == 1 {
				// One name: PageSize and serveMerged, not Vary or GOGC.
				if strings.ToLower(name) == name || strings.ToUpper(name) == name ||
					strings.ToLower(name[1:]) == name[1:] {
					continue
				}
			} else {
				// Qualified by a package or a type of the tree, with a
				// capital after it: fleet.NewShard, not arena.compactions.
				switch q := names[0]; {
				case inPackage[q] != nil:
					first = inPackage[q]
				case !typeNames[q]:
					continue
				}
				names = names[1:]
				if strings.ToLower(strings.Join(names, "")) == strings.Join(names, "") {
					continue
				}
			}
			for i, p := range names {
				in := declared
				if i == 0 {
					in = first
				}
				if !in[p] {
					t.Errorf("%s names `%s`: %s is declared nowhere in the tree", doc, span, p)
					break
				}
			}
		}
	}

	design := read("DESIGN.md")
	headings := map[string]bool{}
	for _, m := range heading.FindAllStringSubmatch(design, -1) {
		headings[m[1]] = true
	}
	citations := 0
	cite := func(where, number string) {
		citations++
		if !headings[number] {
			t.Errorf("%s cites DESIGN.md §%s, which is no heading of DESIGN.md", where, number)
		}
	}
	for _, m := range bareCitation.FindAllStringSubmatch(design, -1) {
		if m[1] == "" {
			cite("DESIGN.md", m[2])
		}
	}
	sources := map[string]string{}
	for _, doc := range []string{"README.md", "API.md", "EXPERIMENTS.md", "ROADMAP.md", ".claude/skills/verify/SKILL.md"} {
		sources[doc] = read(doc)
	}
	sources["Go comments"] = strings.Join(comments, "\n")
	for where, text := range sources {
		for _, m := range designCitation.FindAllString(text, -1) {
			for _, number := range citedNumber.FindAllString(strings.TrimPrefix(m, "DESIGN.md"), -1) {
				cite(where, number)
			}
		}
	}
	if citations == 0 {
		t.Fatal("found no DESIGN.md section citations: run from the repository root")
	}
}

// resultFileName is how a file names a benchmark result file at the root.
var resultFileName = regexp.MustCompile(`BENCH_[a-z]+\.json`)

// TestDocsCiteResultFilesThatExist holds what the tree says about
// measurements to the result files it has: every BENCH_<name>.json that a
// Go file, a script, a workflow, a test fixture or a document names must
// be at the root, so no claim rests on a record that was deleted. At the
// root only the four documents scripts/loc.sh counts describe the system;
// the other Markdown files there are the change log, the roadmap and the
// paper's reference shelf, which quote deleted records as history. So does
// cmd/bench's README, whose mapping table says which metric replaced each
// one (that module is frozen).
func TestDocsCiteResultFilesThatExist(t *testing.T) {
	describes := map[string]bool{"DESIGN.md": true, "EXPERIMENTS.md": true, "README.md": true, "API.md": true}
	files := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		switch {
		case d.IsDir():
			if path == ".git" || path == ".bench_build" {
				return filepath.SkipDir
			}
			return nil
		case !d.Type().IsRegular(), path == "cmd/bench/README.md",
			filepath.Dir(path) == "." && strings.HasSuffix(path, ".md") && !describes[path]:
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		files++
		for _, name := range resultFileName.FindAllString(string(b), -1) {
			if _, err := os.Stat(name); err != nil {
				t.Errorf("%s names %s, which is not at the root", path, name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < len(describes) {
		t.Fatalf("read %d files: run from the repository root", files)
	}
}

// TestBenchHistoryRowsAreRows holds BENCH_history.json, the record
// scripts/pairs.sh appends a row to, to its shape: a list of objects, each
// with parent, change, pairs and workloads, so that jq '.[].workloads'
// reads every row.
func TestBenchHistoryRowsAreRows(t *testing.T) {
	b, err := os.ReadFile("BENCH_history.json")
	if err != nil {
		t.Fatal(err)
	}
	var rows []json.RawMessage
	if err := json.Unmarshal(b, &rows); err != nil {
		t.Fatalf("BENCH_history.json is no list: %v", err)
	}
	for i, raw := range rows {
		var row map[string]json.RawMessage
		if err := json.Unmarshal(raw, &row); err != nil {
			t.Errorf("element %d is no object: %v", i, err)
			continue
		}
		for _, key := range []string{"parent", "change", "pairs", "workloads"} {
			if _, ok := row[key]; !ok {
				t.Errorf("element %d has no %q", i, key)
			}
		}
	}
}
