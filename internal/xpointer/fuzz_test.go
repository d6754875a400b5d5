package xpointer

import (
	"testing"

	"repro/internal/xmldom"
)

// painterSrc is the small painter document fuzzed pointers resolve
// against (the xpath package fuzzes expressions against the same one).
const painterSrc = `<painter id="picasso" xmlns:m="urn:meta">
  <name>Pablo Picasso</name>
  <born>1881</born>
  <painting id="guitar" year="1913"><title>Guitar</title><technique>Sheet metal</technique></painting>
  <painting id="avignon" year="1907"><title>Les Demoiselles d'Avignon</title></painting>
  <!--cubism--><?style gallery?>
  <m:note xml:lang="fr">d&#233;but</m:note>
</painter>`

// maxFuzzPointer bounds fuzzed pointers, so nesting depth stays far
// from the stack's limit.
const maxFuzzPointer = 256

// FuzzXPointerParse: any fragment identifier parses or is rejected, and
// a parsed pointer resolves against the painter document, or fails,
// without panicking, as an href's fragment must.
func FuzzXPointerParse(f *testing.F) {
	for _, src := range []string{
		"guitar",
		"/1/3",
		"element(guitar/1)",
		"element(/1/2/1)",
		"xpointer(//painting[@year > 1910])",
		"xmlns(m=urn:meta) xpointer(//m:note)",
		"xpath1(/painter/name)",
		"element(nothing) element(avignon)",
		"xpointer(id('guitar')/title)",
		"unknown(x) guitar",
		"xpointer(//title[contains(., '^)')])",
		"xpointer(",
		"element(/0)",
		"",
	} {
		f.Add(src)
	}
	doc := xmldom.MustParseString(painterSrc)
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > maxFuzzPointer {
			return
		}
		p, err := Parse(src)
		if err != nil {
			return
		}
		_, _ = p.Resolve(doc)
		_, _ = p.ResolveFrom(doc, doc.Root())
		_, _ = p.ResolveElements(doc)
	})
}
