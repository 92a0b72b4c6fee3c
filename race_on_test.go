//go:build race

package cds

// raceEnabled reports a race-detector build, under which sync.Pool drops
// items at random, so allocation counts are not stable.
const raceEnabled = true
