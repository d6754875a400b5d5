// Package core is the planes corpus's stand-in application core.
package core

type App struct {
	v int
}

func (a *App) Get() int { return a.v }
