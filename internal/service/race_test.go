//go:build race

package service

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = true
