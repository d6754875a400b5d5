package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// ruleNames is every analyzer the suite runs, in suite order.
var ruleNames = []string{"directives", "hotpath", "locks", "planes", "apihandler"}

// badmodFindings is exactly what navlint prints over the badmod corpus
// (one deliberate violation per analyzer, two for apihandler), sorted
// by position.
const badmodFindings = `testdata/badmod/internal/navigation/nav.go:5:8: [planes] plane violation: repro/internal/navigation must not import repro/internal/server (layering rule for repro/internal/navigation)
testdata/badmod/internal/server/bad.go:11:1: [directives] malformed //repro: directive: unknown directive verb
testdata/badmod/internal/server/bad.go:18:9: [hotpath] hotpath function Hot calls fmt.Sprintf (reflective formatting); fix it or annotate the call with //repro:allow(reason)
testdata/badmod/internal/server/bad.go:29:2: [locks] g.mu is locked here but not unlocked on the path leaving the function at line 31
testdata/badmod/internal/server/bad.go:45:13: [apihandler] //repro:apimux dispatcher serveAPI never sets Cache-Control: no-store
testdata/badmod/internal/server/bad.go:46:2: [apihandler] handler apiThing dispatched without a method guard (allowMethods): wrong-method requests will not get 405 + Allow
`

// TestStandaloneNamesEveryRule runs navlint over the badmod corpus and
// requires exactly its six findings, byte for byte, with exit 1.
func TestStandaloneNamesEveryRule(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := realMain([]string{"-C", filepath.Join("testdata", "badmod"), "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if got := stdout.String(); got != badmodFindings {
		t.Errorf("stdout:\n%s\nwant:\n%s", got, badmodFindings)
	}
	if got, want := stderr.String(), "navlint: 6 finding(s)\n"; got != want {
		t.Errorf("stderr = %q, want %q", got, want)
	}
}

// TestStandaloneCleanExitsZero: a package with no violations (the
// corpus core stub) comes back clean, silent, exit 0.
func TestStandaloneCleanExitsZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := realMain([]string{"-C", filepath.Join("testdata", "badmod"), "./internal/core/"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("clean run produced output:\n%s", stdout.String())
	}
}

// TestListNamesEveryRule: -list prints one line per analyzer, in suite
// order, naming it first.
func TestListNamesEveryRule(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exit = %d\nstderr:\n%s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n")
	if len(lines) != len(ruleNames) {
		t.Fatalf("-list printed %d lines, want %d:\n%s", len(lines), len(ruleNames), stdout.String())
	}
	for i, name := range ruleNames {
		if f := strings.Fields(lines[i]); len(f) < 2 || f[0] != name {
			t.Errorf("-list line %d = %q, want %s and its doc", i, lines[i], name)
		}
	}
}

// TestLoadErrorNamesCompilerMessage: over a module that does not
// type-check, navlint exits 3, and its load error on the stderr it was
// given carries the compiler's message, not only go list's exit status.
func TestLoadErrorNamesCompilerMessage(t *testing.T) {
	dir := t.TempDir()
	for name, text := range map[string]string{
		"go.mod": "module broken\n\ngo 1.21\n",
		"a.go":   "package broken\n\nvar x = undefinedThing\n",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var stdout, stderr bytes.Buffer
	code := realMain([]string{"-C", dir, "./..."}, &stdout, &stderr)
	if code != 3 {
		t.Fatalf("exit = %d, want 3\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	got := stderr.String()
	if i := strings.Index(got, "navlint: load:"); i < 0 || !strings.Contains(got[i:], "undefined: undefinedThing") {
		t.Errorf("stderr does not carry the compiler's message after navlint's load error:\n%s", got)
	}
}
