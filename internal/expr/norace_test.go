//go:build !race

package expr

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = false
