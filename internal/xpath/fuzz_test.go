package xpath

import (
	"testing"

	"repro/internal/xmldom"
)

// painterSrc is a small painter document (the paper's Figure 7, with a
// namespaced note, a comment and a processing instruction) that fuzzed
// expressions are evaluated against.
const painterSrc = `<painter id="picasso" xmlns:m="urn:meta">
  <name>Pablo Picasso</name>
  <born>1881</born>
  <painting id="guitar" year="1913"><title>Guitar</title><technique>Sheet metal</technique></painting>
  <painting id="avignon" year="1907"><title>Les Demoiselles d'Avignon</title></painting>
  <!--cubism--><?style gallery?>
  <m:note xml:lang="fr">d&#233;but</m:note>
</painter>`

// maxFuzzSource bounds fuzzed sources, so nesting depth stays far from
// the stack's limit.
const maxFuzzSource = 256

// FuzzXPathCompile: any source compiles or is rejected, and a compiled
// expression evaluates against the painter document, or fails, without
// panicking — as match, select and value-of sources arriving through
// the control plane's stylesheet upload must.
func FuzzXPathCompile(f *testing.F) {
	for _, src := range []string{
		"/painter/painting[@year > 1910]/title",
		"//painting[position() = last()]/@id",
		"count(//*) div 2 mod 3",
		"sum(//@year) - -1",
		"//m:note[lang('fr')]",
		"string-length(normalize-space(//name)) = 13",
		"substring-before(//title, ' ')",
		"translate(concat(//name, 'x'), 'abc', 'AB')",
		"//comment() | //processing-instruction('style')",
		"ancestor-or-self::node()[1]/following-sibling::*",
		"id('guitar')/preceding::*",
		"$v + number('1e3') * -(2)",
		"boolean(//painting[not(technique)])",
		"round(1 div 0) = floor(-0.5) or ceiling(0.5)",
		"/descendant::painting[2]/..",
		"((((1))))",
		"]",
		"//*[",
		"'unterminated",
	} {
		f.Add(src)
	}
	doc := xmldom.MustParseString(painterSrc)
	ctx := &Context{Node: doc, Vars: map[string]Value{"v": Number(1), "s": String("x")},
		Namespaces: map[string]string{"m": "urn:meta"}}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > maxFuzzSource {
			return
		}
		expr, err := Compile(src)
		if err != nil {
			return
		}
		_, _ = expr.Eval(ctx)
		_, _ = expr.Select(doc.Root())
		_, _ = Matches(expr, doc.Root())
	})
}
