//go:build !race

package storage_test

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
