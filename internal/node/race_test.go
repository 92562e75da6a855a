//go:build race

package node

// The race detector adds allocations of its own, so allocation counts read
// under it are not the shipped code's.
func init() { raceEnabled = true }
