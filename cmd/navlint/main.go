// Command navlint runs the repository's invariant analyzers (see
// internal/lint): hotpath, locks, planes, apihandler and the directive
// grammar check.
//
//	navlint ./...           # every package of the module in .
//	navlint -C dir ./...    # every package of the module in dir
//	navlint -list           # the analyzers and what they check
//
// navlint loads the matched packages in dependency order and sweeps the
// suite across them, passing analyzer facts from package to package in
// memory.
//
// Exit status: 0 clean, 1 when diagnostics were reported, 3 on loading
// errors. Diagnostics name the rule:
//
//	internal/server/server.go:388:9: [hotpath] hotpath function etagMatches calls strings.Split ...
package main

import (
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/apihandler"
	"repro/internal/lint/directives"
	"repro/internal/lint/hotpath"
	"repro/internal/lint/load"
	"repro/internal/lint/locks"
	"repro/internal/lint/planes"
)

// suite is every analyzer navlint runs, in a fixed order so output is
// stable.
var suite = []*analysis.Analyzer{
	directives.Analyzer,
	hotpath.Analyzer,
	locks.Analyzer,
	planes.Analyzer,
	apihandler.Analyzer,
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("navlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and what they check")
	dir := fs.String("C", ".", "change to `dir` before loading packages")
	if err := fs.Parse(args); err != nil {
		return 3
	}
	if *list {
		for _, a := range suite {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	return check(*dir, fs.Args(), stdout, stderr)
}

// diag is one rendered diagnostic.
type diag struct {
	pos      token.Position
	analyzer string
	msg      string
}

// runSuite applies every analyzer to pkgs (already in dependency
// order) against one shared fact store.
func runSuite(fset *token.FileSet, pkgs []*load.Package) ([]diag, error) {
	facts := analysis.NewFactStore()
	var diags []diag
	for _, p := range pkgs {
		for _, a := range suite {
			a := a
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      fset,
				Files:     p.Files,
				Pkg:       p.Types,
				TypesInfo: p.Info,
				Facts:     facts,
				Report: func(d analysis.Diagnostic) {
					diags = append(diags, diag{fset.Position(d.Pos), a.Name, d.Message})
				},
			}
			if _, err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, p.PkgPath, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.pos.Filename != b.pos.Filename {
			return a.pos.Filename < b.pos.Filename
		}
		if a.pos.Line != b.pos.Line {
			return a.pos.Line < b.pos.Line
		}
		if a.pos.Column != b.pos.Column {
			return a.pos.Column < b.pos.Column
		}
		return a.analyzer < b.analyzer
	})
	return diags, nil
}

// check loads the packages patterns match in dir, sweeps the suite
// across them and prints the findings.
func check(dir string, patterns []string, stdout, stderr io.Writer) int {
	fset, pkgs, err := load.Repo(dir, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "navlint: %v\n", err)
		return 3
	}
	diags, err := runSuite(fset, pkgs)
	if err != nil {
		fmt.Fprintf(stderr, "navlint: %v\n", err)
		return 3
	}
	cwd, _ := os.Getwd()
	for _, d := range diags {
		name := d.pos.Filename
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(rel, "..") {
				name = rel
			}
		}
		fmt.Fprintf(stdout, "%s:%d:%d: [%s] %s\n", name, d.pos.Line, d.pos.Column, d.analyzer, d.msg)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "navlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
