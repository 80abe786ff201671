//go:build race

package covguide

// raceEnabled reports whether the test binary runs under the race
// detector, whose slowdown would carry this package's sweeps past go
// test's default timeout.
const raceEnabled = true
