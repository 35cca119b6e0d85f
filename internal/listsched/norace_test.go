//go:build !race

package listsched_test

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = false
