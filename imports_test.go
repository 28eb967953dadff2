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

// importGraph parses the import clauses of every non-test Go file under
// the repository root: package path -> the paths it imports.
func importGraph(t *testing.T) map[string][]string {
	t.Helper()
	const prefix = "planetapps/"
	graph := map[string][]string{}
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
		pkg := strings.TrimSuffix(prefix+filepath.ToSlash(filepath.Dir(path)), "/.")
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		if _, seen := graph[pkg]; !seen {
			graph[pkg] = nil // a package with no imports is still a package
		}
		for _, spec := range f.Imports {
			if p, err := strconv.Unquote(spec.Path.Value); err == nil && p != pkg {
				graph[pkg] = append(graph[pkg], p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return graph
}

func isInternal(pkg string) bool { return strings.HasPrefix(pkg, "planetapps/internal/") }

// TestEveryInternalPackageHasAnImporter fails when a planetapps/internal
// package is imported by nothing but tests — its own or anyone's. Such a
// package is code the programs in this repository do not run (every
// binary, example and the cmd/bench module count as importers), and it
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

// TestNoInternalPackageImportsTheRoot keeps the root package a facade over
// internal/..., never a dependency of it: one forward borrowed from the
// facade hangs experiments, pricing, affinity and report under every
// binary that links the borrower (internal/fleet did, and with it the
// gateway and cmd/bench).
func TestNoInternalPackageImportsTheRoot(t *testing.T) {
	for pkg, imports := range importGraph(t) {
		if !isInternal(pkg) {
			continue
		}
		for _, p := range imports {
			if p == "planetapps" {
				t.Errorf("%s imports the root package: call the internal package behind the forward", pkg)
			}
		}
	}
}
