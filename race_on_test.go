//go:build race

package pinbcast

// raceEnabled reports whether the race detector is compiled in: it makes
// sync.Pool drop puts at random, so the pooled reconstruction scratch
// behind a completed retrieval allocates now and then, and allocation
// counts skip themselves.
const raceEnabled = true
