// Package a is the directives corpus: every way to get the annotation
// grammar wrong.
package a

//repro:hotpth // want `malformed //repro: directive: unknown directive verb`
var x = 1

//repro:allow // want `malformed //repro: directive: allow requires a reason: //repro:allow\(reason\)`
var y = 2

//repro:plane(control) // want `malformed //repro: directive: unknown directive verb`
var z = 3

//repro:allow(unclosed // want `malformed //repro: directive: unclosed '\(' in directive`
var w = 4

//repro:hotpath // want `//repro:hotpath is not attached to a function declaration and has no effect`
var v = 5

// ok attaches its directive properly: no finding.
//
//repro:hotpath
func ok() int { return x + y + z + w + v }
