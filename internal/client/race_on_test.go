//go:build race

package client

// raceEnabled reports whether the race detector is compiled in.
// sync.Pool deliberately drops puts at random under the race detector
// (to surface reuse races), so the pooled reconstruction scratch behind
// a completed retrieval allocates now and then, and allocation-count
// assertions skip themselves in that configuration.
const raceEnabled = true
