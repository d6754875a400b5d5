//go:build race

package navigation_test

// raceEnabled reports whether the race detector is compiled in; the
// allocation-guard tests skip under it, because instrumentation skews
// allocation counts and sync.Pool drops items at random.
const raceEnabled = true
