//go:build race

package storage_test

// raceEnabled reports whether the race detector is compiled in; the
// heap and allocation bounds skip under it, because instrumentation
// skews both.
const raceEnabled = true
