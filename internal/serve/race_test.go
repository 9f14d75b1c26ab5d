//go:build race

package serve

// raceEnabled: the race detector makes sync.Pool drop items at random,
// so allocation pins through a pool do not hold under it.
const raceEnabled = true
