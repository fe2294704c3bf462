//go:build race

package ethrpc

// raceEnabled reports the race detector is active: allocation-count
// assertions are skipped there, since the detector's own bookkeeping
// allocates on synchronization paths.
const raceEnabled = true
