//go:build race

package views

// The race detector instruments memory accesses and allocates, so
// allocation bounds cannot hold under -race.
const raceEnabled = true
