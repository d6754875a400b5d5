// Package core stubs the application core: a package with nothing for
// any analyzer to find, which navlint passes clean.
package core

// App stands in for the real core.App.
type App struct{}
