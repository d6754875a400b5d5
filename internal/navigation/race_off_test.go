//go:build !race

package navigation_test

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
