//go:build race

package ggcg

// The race detector's instrumentation allocates on its own schedule, and
// sync.Pool drops items at random under it, so allocation counts are not
// comparable under it.
func init() { raceEnabled = true }
