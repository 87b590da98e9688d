//go:build race

package oram

// raceEnabled says the tests run under the race detector.
const raceEnabled = true
