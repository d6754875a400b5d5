// Package load type-checks the packages navlint analyzes, without any
// dependency outside the standard library and the go toolchain.
//
// The trick that keeps this cheap and network-free: imports are never
// type-checked from source. One `go list -export -deps -json` invocation
// makes the toolchain compile (or reuse from the build cache) export
// data for every dependency — standard library included — and the gc
// importer reads types straight out of those files. Only the packages
// under analysis are parsed and type-checked from source. The analyzer
// corpora under internal/lint/testdata/src are modules of their own and
// load the same way.
package load

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one source-checked package ready for analysis.
type Package struct {
	// PkgPath is the import path ("repro/internal/core").
	PkgPath string
	// Files are the parsed compilation units (no _test.go files).
	Files []*ast.File
	// Types and Info are the type-checker's output.
	Types *types.Package
	Info  *types.Info
}

// listEntry is the slice of `go list -json` output the loader reads.
type listEntry struct {
	ImportPath string
	Dir        string
	Export     string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
}

// goList runs `go list -export -deps -json` over patterns in dir and
// returns the decoded entries, every package after the packages it
// imports. The -export flag makes the toolchain produce (or reuse)
// export data for every listed package.
func goList(dir string, patterns []string) ([]listEntry, error) {
	gocmd := os.Getenv("GO")
	if gocmd == "" {
		gocmd = "go"
	}
	args := append([]string{"list", "-export", "-deps",
		"-json=ImportPath,Dir,Export,Standard,DepOnly,GoFiles"}, patterns...)
	cmd := exec.Command(gocmd, args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		// go list says why it failed (a compile error, a bad pattern) on
		// its stderr, which Output keeps in the error.
		var exit *exec.ExitError
		if errors.As(err, &exit) && len(exit.Stderr) > 0 {
			err = fmt.Errorf("%w\n%s", err, bytes.TrimSpace(exit.Stderr))
		}
		return nil, fmt.Errorf("load: go list %s: %w", strings.Join(patterns, " "), err)
	}
	var entries []listEntry
	dec := json.NewDecoder(strings.NewReader(string(out)))
	for {
		var e listEntry
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("load: decoding go list output: %w", err)
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// exportLookup adapts a path→export-file map to the gc importer's
// lookup contract.
func exportLookup(exports map[string]string) func(string) (io.ReadCloser, error) {
	return func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("load: no export data for %q", path)
		}
		return os.Open(file)
	}
}

// newInfo allocates the full set of type-checker result maps.
func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
}

// parseDir parses the named files in dir into fset.
func parseDir(fset *token.FileSet, dir string, files []string) ([]*ast.File, error) {
	var out []*ast.File
	for _, name := range files {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// check type-checks one parsed package against imp, stopping at the
// first error.
func check(fset *token.FileSet, pkgPath string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := newInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(pkgPath, fset, files, info)
	return tpkg, info, err
}

// Repo loads every package matched by patterns (e.g. "./...") in the
// module rooted at dir, type-checked from source with all imports —
// module-local ones included — resolved through export data. Packages
// are returned in go list's dependency order, ready for a fact-passing
// analysis sweep.
func Repo(dir string, patterns ...string) (*token.FileSet, []*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	entries, err := goList(dir, patterns)
	if err != nil {
		return nil, nil, err
	}
	exports := map[string]string{}
	for _, e := range entries {
		if e.Export != "" {
			exports[e.ImportPath] = e.Export
		}
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", exportLookup(exports))
	var pkgs []*Package
	for _, e := range entries {
		if e.DepOnly || e.Standard || len(e.GoFiles) == 0 {
			continue
		}
		files, err := parseDir(fset, e.Dir, e.GoFiles)
		if err != nil {
			return nil, nil, fmt.Errorf("load: parsing %s: %w", e.ImportPath, err)
		}
		tpkg, info, err := check(fset, e.ImportPath, files, imp)
		if err != nil {
			return nil, nil, fmt.Errorf("load: type-checking %s: %v", e.ImportPath, err)
		}
		pkgs = append(pkgs, &Package{PkgPath: e.ImportPath, Files: files, Types: tpkg, Info: info})
	}
	return fset, pkgs, nil
}
