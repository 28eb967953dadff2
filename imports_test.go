package planetapps_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestEveryInternalPackageHasAnImporter fails when a planetapps/internal
// package is imported by nothing but tests — its own or anyone's. Such a
// package is code the programs in this repository do not run (every
// binary, example and the cmd/bench module count as importers), and it
// either gets wired in or deleted; internal/session sat in that state
// for six PRs before anyone looked.
func TestEveryInternalPackageHasAnImporter(t *testing.T) {
	const prefix = "planetapps/"
	internal, imported := map[string]bool{}, map[string]bool{}
	fset := token.NewFileSet()
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
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		pkg := prefix + filepath.ToSlash(filepath.Dir(path))
		if strings.HasPrefix(pkg, prefix+"internal/") {
			internal[pkg] = true
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, spec := range f.Imports {
			if p, err := strconv.Unquote(spec.Path.Value); err == nil && p != pkg {
				imported[p] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(internal) == 0 {
		t.Fatal("found no internal packages: run from the repository root")
	}
	for pkg := range internal {
		if !imported[pkg] {
			t.Errorf("%s has no non-test importer: wire it in or delete it", pkg)
		}
	}
}
