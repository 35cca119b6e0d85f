//go:build !race

package httpserver

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = false
