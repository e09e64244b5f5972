//go:build race

package httpd_test

// raceEnabled reports the race detector is active: sync.Pool deliberately
// drops a fraction of Puts under race instrumentation, so allocation-count
// assertions are meaningless in that build.
const raceEnabled = true
