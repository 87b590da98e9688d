//go:build !race

package obsort

// raceEnabled says the tests run under the race detector.
const raceEnabled = false
