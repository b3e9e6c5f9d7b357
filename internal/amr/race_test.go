//go:build race

package amr

// raceEnabled reports whether the tests run under the race detector,
// whose sync.Pool drops puts at random: an allocation count there
// depends on the run, so allocation bounds apply only without it.
const raceEnabled = true
