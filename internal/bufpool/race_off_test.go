//go:build !race

package bufpool

// raceEnabled reports that the race detector is on: sync.Pool then
// drops a random share of Puts, so recycling is not guaranteed.
const raceEnabled = false
