// Package srv plays the serving stack, which the navigation layer must
// not import.
package srv

import "planestest/core"

func Serve(a *core.App) int {
	return a.Get()
}
