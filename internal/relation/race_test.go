//go:build race

package relation

// raceEnabled reports a -race build: the race detector allocates on
// its own, so an absolute allocation count is checked only without it.
const raceEnabled = true
