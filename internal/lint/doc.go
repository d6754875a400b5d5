// Package lint is the umbrella for navlint, the repository's own
// static-analysis suite. The analyzers live in subpackages and are run
// by cmd/navlint; each one turns an architectural invariant of the
// navigational-separation design into a machine-checked rule:
//
//	hotpath     //repro:hotpath functions (the paths AllocsPerRun
//	            guards) must not transitively format, touch
//	            encoding/json, read time.Now, take RWMutex write locks,
//	            launch goroutines or call known-escaping helpers.
//	locks       every Lock/RLock released on all paths, in function
//	            literals too; no nested acquisition, direct or
//	            through a method that acquires the lock itself or
//	            through the methods it calls on its receiver.
//	planes      the import lattice between the navigational aspect,
//	            the core, and the serving/control stack.
//	apihandler  /api/v1 dispatch hygiene: Cache-Control: no-store
//	            before dispatch, 405+Allow method guards on every
//	            mounted handler, strict JSON decoding, //repro:nostore
//	            bodies really setting no-store.
//	directives  the //repro: annotation grammar itself, so a typo'd
//	            annotation fails the build instead of silently
//	            disabling a rule.
//
// Which server code may mutate the model is not a lint rule: the
// serving routes hold a core.Reader, which has no mutation to call, so
// the compiler checks the serve/control split (and internal/server's
// TestServePlaneHoldsNoMutator that no serving field reaches a
// core.App or conceptual.Store).
//
// The annotation grammar is documented in internal/lint/annotations;
// the invariant tables (sin list, layering) in internal/lint/rules. The analysis subpackage is a stdlib-only mirror
// of the golang.org/x/tools/go/analysis API the analyzers are written
// against, kept compatible so the suite can migrate to x/tools by
// swapping imports; load is the one loader, over `go list` and export
// data, for the repository and the testdata corpora alike.
package lint
