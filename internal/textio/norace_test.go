//go:build !race

package textio

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = false
