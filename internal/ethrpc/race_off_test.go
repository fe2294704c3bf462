//go:build !race

package ethrpc

const raceEnabled = false
