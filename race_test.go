//go:build race

package logbase_test

// raceEnabled reports a -race build: sync.Pool then drops a random share
// of the objects put back, so allocation counts of pooled paths vary.
const raceEnabled = true
