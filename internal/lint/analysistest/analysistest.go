// Package analysistest runs a navlint analyzer over a testdata corpus
// and checks its diagnostics against // want "regexp" comments, the
// same convention as golang.org/x/tools/go/analysis/analysistest:
//
//	mu.Lock() // want `mu is locked here but not unlocked`
//
// A want comment may carry several quoted regexps (each must match a
// distinct diagnostic on that line). Every diagnostic must be wanted
// and every want must be matched; anything else fails the test with
// the file:line of the mismatch.
//
// Each corpus is a module of its own (testdata/src/<name>, with a go.mod
// naming it <name>). Run loads all of its packages the way navlint
// loads the repository, dependencies first, so analyzers that exchange
// facts across packages are exercised for real.
package analysistest

import (
	"fmt"
	"go/token"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint/analysis"
	"repro/internal/lint/load"
)

// expectation is one parsed want regexp.
type expectation struct {
	re      *regexp.Regexp
	matched bool
}

// Run loads every package of the corpus module in dir and applies a to
// each (dependencies first, sharing one fact store), then reconciles
// diagnostics with the corpus's want comments.
func Run(t *testing.T, dir string, a *analysis.Analyzer) {
	t.Helper()
	fset, pkgs, err := load.Repo(dir, "./...")
	if err != nil {
		t.Fatalf("loading corpus %s: %v", dir, err)
	}
	wants := map[string][]*expectation{} // "file:line" → expectations
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					parseWants(t, fset, c.Pos(), c.Text, wants)
				}
			}
		}
	}
	facts := analysis.NewFactStore()
	for _, p := range pkgs {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     p.Files,
			Pkg:       p.Types,
			TypesInfo: p.Info,
			Facts:     facts,
		}
		pass.Report = func(d analysis.Diagnostic) {
			pos := fset.Position(d.Pos)
			key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
			for _, exp := range wants[key] {
				if !exp.matched && exp.re.MatchString(d.Message) {
					exp.matched = true
					return
				}
			}
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
		if _, err := a.Run(pass); err != nil {
			t.Fatalf("%s on %s: %v", a.Name, p.PkgPath, err)
		}
	}
	for key, exps := range wants {
		for _, exp := range exps {
			if !exp.matched {
				t.Errorf("%s: expected diagnostic matching %q, got none", key, exp.re)
			}
		}
	}
}

// parseWants extracts the quoted regexps from a // want comment.
func parseWants(t *testing.T, fset *token.FileSet, pos token.Pos, text string, wants map[string][]*expectation) {
	t.Helper()
	// The marker is a comment starting with "// want", or — when the
	// line's comment is already taken by a directive — an embedded
	// "// want" later in the same comment.
	var rest string
	if i := strings.Index(text[2:], "// want "); i >= 0 {
		rest = strings.TrimSpace(text[2+i+len("// want "):])
	} else if body := strings.TrimLeft(strings.TrimPrefix(text, "//"), " \t"); strings.HasPrefix(body, "want ") {
		rest = strings.TrimSpace(body[len("want "):])
	} else {
		return
	}
	position := fset.Position(pos)
	key := fmt.Sprintf("%s:%d", position.Filename, position.Line)
	for rest != "" {
		var raw string
		var err error
		switch rest[0] {
		case '"':
			end := 1
			for end < len(rest) {
				if rest[end] == '\\' {
					end += 2
					continue
				}
				if rest[end] == '"' {
					break
				}
				end++
			}
			if end >= len(rest) {
				t.Fatalf("%s: unterminated want string", position)
			}
			raw, err = strconv.Unquote(rest[:end+1])
			rest = strings.TrimSpace(rest[end+1:])
		case '`':
			end := strings.IndexByte(rest[1:], '`')
			if end < 0 {
				t.Fatalf("%s: unterminated want raw string", position)
			}
			raw = rest[1 : end+1]
			rest = strings.TrimSpace(rest[end+2:])
		default:
			t.Fatalf("%s: malformed want comment near %q", position, rest)
		}
		if err != nil {
			t.Fatalf("%s: bad want string: %v", position, err)
		}
		re, err := regexp.Compile(raw)
		if err != nil {
			t.Fatalf("%s: bad want regexp %q: %v", position, raw, err)
		}
		wants[key] = append(wants[key], &expectation{re: re})
	}
}
