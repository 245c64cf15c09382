//go:build !race

package pattern

// raceEnabled reports that this test binary runs under the race detector.
const raceEnabled = false
