//go:build race

package machine

// The race detector adds allocations of its own, and its sync.Pool drops
// pooled items at random, so allocation counts read under it are not the
// shipped code's.
func init() { raceEnabled = true }
