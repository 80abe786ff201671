//go:build race

package vax

// The race detector's instrumentation allocates on its own schedule, so
// allocation counts are not comparable under it.
func init() { raceEnabled = true }
