// Package annotations parses the //repro: directive comments the navlint
// analyzers act on. The grammar, in full:
//
//	//repro:hotpath
//	    On a function declaration (doc comment or the declaration line):
//	    the function is on a benchmarked hot path; the hotpath analyzer
//	    forbids it — and everything it statically, transitively calls —
//	    from formatting, JSON codecs, time.Now, RWMutex write locks and
//	    the other known-allocating constructs in internal/lint/rules.
//
//	//repro:allow(reason)
//	    On (or on the line directly above) an offending line: suppresses
//	    navlint findings there. The reason is mandatory; an allow on a
//	    call also stops the hotpath walk from descending into the callee
//	    (the escape hatch for cold branches like cache-miss weaves).
//
//	//repro:apimux
//	    On the function that dispatches /api/v1 requests: the apihandler
//	    analyzer checks it sets Cache-Control: no-store before any
//	    dispatch and that every api* handler it mounts is method-guarded.
//
//	//repro:nostore
//	    On a handler that serves live operational or per-visitor state:
//	    the apihandler analyzer checks the body sets
//	    Cache-Control: no-store.
//
// Directives are comments, so they cost nothing at runtime; navlint's
// directives analyzer rejects malformed ones (unknown verb, missing
// allow reason) so a typo cannot silently disable a rule. There is no
// plane verb (it is reported as unknown): the serving routes hold a
// core.Reader, so the compiler keeps them from mutating the model.
package annotations

import (
	"go/ast"
	"go/token"
	"strings"
)

// Prefix starts every navlint directive comment.
const Prefix = "//repro:"

// Kind enumerates the directive verbs.
type Kind string

const (
	KindHotpath Kind = "hotpath"
	KindAllow   Kind = "allow"
	KindAPIMux  Kind = "apimux"
	KindNoStore Kind = "nostore"
)

// Directive is one parsed //repro: comment.
type Directive struct {
	Kind Kind
	// Arg is the parenthesized argument (the allow reason); empty for
	// argument-less verbs.
	Arg string
	Pos token.Pos
	// Line is the line the comment ends on.
	Line int
	// Malformed describes a grammar violation ("" when well-formed).
	Malformed string
}

// File is the parsed directive set of one source file.
type File struct {
	fset *token.FileSet
	// All lists every directive in source order (including malformed
	// ones, for the directives analyzer).
	All []Directive
	// byLine indexes well-formed directives by the line they end on.
	byLine map[int][]Directive
}

// Parse scans one file's comments for directives.
func Parse(fset *token.FileSet, f *ast.File) *File {
	df := &File{fset: fset, byLine: map[int][]Directive{}}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, Prefix) {
				continue
			}
			d := parseDirective(c.Text)
			d.Pos = c.Pos()
			d.Line = fset.Position(c.End()).Line
			df.All = append(df.All, d)
			if d.Malformed == "" {
				df.byLine[d.Line] = append(df.byLine[d.Line], d)
			}
		}
	}
	return df
}

// parseDirective interprets the text after //repro: .
func parseDirective(text string) Directive {
	body := strings.TrimPrefix(text, Prefix)
	verb, arg := body, ""
	// The verb runs to the first '(' or whitespace; a parenthesized
	// argument may contain spaces, and anything after the argument (or
	// after the first space of an argument-less directive) is
	// commentary.
	if i := strings.IndexAny(body, "( \t"); i >= 0 {
		verb = body[:i]
		if body[i] == '(' {
			rest := body[i+1:]
			j := strings.IndexByte(rest, ')')
			if j < 0 {
				return Directive{Kind: Kind(verb), Malformed: "unclosed '(' in directive"}
			}
			arg = strings.TrimSpace(rest[:j])
		}
	}
	d := Directive{Kind: Kind(verb), Arg: arg}
	switch d.Kind {
	case KindHotpath, KindAPIMux, KindNoStore:
		if arg != "" {
			d.Malformed = "directive takes no argument"
		}
	case KindAllow:
		if arg == "" {
			d.Malformed = "allow requires a reason: //repro:allow(reason)"
		}
	default:
		d.Malformed = "unknown directive verb"
	}
	return d
}

// kindAt returns the first well-formed directive of the given kind
// ending on line.
func (df *File) kindAt(line int, kind Kind) *Directive {
	for i := range df.byLine[line] {
		if df.byLine[line][i].Kind == kind {
			return &df.byLine[line][i]
		}
	}
	return nil
}

// AllowedAt reports whether pos is covered by an //repro:allow: a
// directive on the same line, or one on the line directly above (a
// standalone comment ahead of the statement).
func (df *File) AllowedAt(pos token.Pos) (reason string, ok bool) {
	line := df.fset.Position(pos).Line
	if d := df.kindAt(line, KindAllow); d != nil {
		return d.Arg, true
	}
	if d := df.kindAt(line-1, KindAllow); d != nil {
		return d.Arg, true
	}
	return "", false
}

// FuncDirective returns the directive of the given kind attached to
// decl: in its doc comment, or ending on the line its func keyword sits
// on, or on the line directly above it (a detached comment).
func (df *File) FuncDirective(decl *ast.FuncDecl, kind Kind) *Directive {
	if decl.Doc != nil {
		start := df.fset.Position(decl.Doc.Pos()).Line
		end := df.fset.Position(decl.Doc.End()).Line
		for line := start; line <= end; line++ {
			if d := df.kindAt(line, kind); d != nil {
				return d
			}
		}
	}
	line := df.fset.Position(decl.Pos()).Line
	if d := df.kindAt(line, kind); d != nil {
		return d
	}
	if d := df.kindAt(line-1, kind); d != nil {
		return d
	}
	return nil
}
